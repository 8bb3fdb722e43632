#include <algorithm>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "common/log.hpp"
#include "mona/mona.hpp"
#include "mona/tags.hpp"

namespace colza::mona {

namespace {
constexpr const char* kMailbox = "mona";

std::uint64_t hash_members(const std::vector<net::ProcId>& addrs) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (net::ProcId p : addrs) {
    for (int i = 0; i < 4; ++i) {
      h ^= (p >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}
}  // namespace

Instance::Instance(net::Process& proc, net::Profile profile)
    : proc_(&proc), profile_(std::move(profile)) {
  proc_->spawn("mona-demux", [this] { demux_loop(); },
               des::SpawnOptions{.daemon = true});
}

Instance::~Instance() { shutdown(); }

std::vector<Instance::PostedRecv*> Instance::extract_posts(
    const std::function<bool(const PostedRecv&)>& pred) {
  std::vector<PostedRecv*> out;
  for (auto it = posted_by_key_.begin(); it != posted_by_key_.end();) {
    auto& q = it->second;
    for (auto qi = q.begin(); qi != q.end();) {
      if (pred(**qi)) {
        out.push_back(*qi);
        qi = q.erase(qi);
      } else {
        ++qi;
      }
    }
    it = q.empty() ? posted_by_key_.erase(it) : std::next(it);
  }
  for (auto it = posted_any_.begin(); it != posted_any_.end();) {
    auto& q = it->second;
    for (auto qi = q.begin(); qi != q.end();) {
      if (pred(**qi)) {
        out.push_back(*qi);
        qi = q.erase(qi);
      } else {
        ++qi;
      }
    }
    it = q.empty() ? posted_any_.erase(it) : std::next(it);
  }
  std::sort(out.begin(), out.end(),
            [](const PostedRecv* a, const PostedRecv* b) {
              return a->seq < b->seq;
            });
  return out;
}

void Instance::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  proc_->mailbox(kMailbox).close();
  for (PostedRecv* p : extract_posts([](const PostedRecv&) { return true; })) {
    p->status = Status::ShuttingDown();
    p->done = true;
    des::unblock_for_sync(sim(), p->fiber);
  }
}

void Instance::deliver(PostedRecv& p, net::Message& m) {
  p.matched_source = m.source;
  if (m.payload.size() > p.out.size()) {
    p.status = Status::InvalidArgument(
        "mona::recv: message truncated (" + std::to_string(m.payload.size()) +
        " > " + std::to_string(p.out.size()) + ")");
  } else {
    std::memcpy(p.out.data(), m.payload.data(), m.payload.size());
    p.received = m.payload.size();
    p.status = Status::Ok();
  }
  p.done = true;
  des::unblock_for_sync(sim(), p.fiber);
}

void Instance::dispatch(net::Message msg) {
  // Candidates: the oldest specific-source post for (source, tag) and the
  // oldest ANY_SOURCE post for the tag; the lower posting seq wins, exactly
  // like the original scan of the posting-order list.
  auto key_it = posted_by_key_.find(MatchKey{msg.source, msg.tag});
  auto any_it = posted_any_.find(msg.tag);
  PostedRecv* specific =
      key_it != posted_by_key_.end() ? key_it->second.front() : nullptr;
  PostedRecv* wildcard =
      any_it != posted_any_.end() ? any_it->second.front() : nullptr;
  PostedRecv* winner = nullptr;
  if (specific != nullptr && wildcard != nullptr) {
    winner = specific->seq < wildcard->seq ? specific : wildcard;
  } else {
    winner = specific != nullptr ? specific : wildcard;
  }
  if (winner != nullptr) {
    if (winner == specific) {
      key_it->second.pop_front();
      if (key_it->second.empty()) posted_by_key_.erase(key_it);
    } else {
      any_it->second.pop_front();
      if (any_it->second.empty()) posted_any_.erase(any_it);
    }
    deliver(*winner, msg);
    return;  // message consumed; its buffer returns to the pool here
  }
  const std::uint64_t seq = ++match_seq_;
  const std::uint64_t tag = msg.tag;
  const net::ProcId source = msg.source;
  unexpected_by_key_[MatchKey{source, tag}].push_back(
      StoredMsg{std::move(msg), seq});
  ArrivalIndex& ai = unexpected_by_tag_[tag];
  ai.order.emplace_back(seq, source);
  ++ai.live;
}

void Instance::note_specific_consume(std::uint64_t tag) {
  auto it = unexpected_by_tag_.find(tag);
  if (it == unexpected_by_tag_.end()) return;
  ArrivalIndex& ai = it->second;
  --ai.live;
  if (ai.live == 0) {
    unexpected_by_tag_.erase(it);
    return;
  }
  if (ai.order.size() <= 2 * ai.live + 16) return;
  // Mostly stale: rebuild keeping only entries whose message is still in its
  // per-key queue. Per-key consumption is FIFO in seq order, so an entry is
  // live iff its key's queue exists and its front seq is <= the entry's.
  std::deque<std::pair<std::uint64_t, net::ProcId>> keep;
  for (const auto& [seq, from] : ai.order) {
    auto key_it = unexpected_by_key_.find(MatchKey{from, tag});
    if (key_it != unexpected_by_key_.end() &&
        key_it->second.front().seq <= seq) {
      keep.emplace_back(seq, from);
    }
  }
  ai.order.swap(keep);
}

std::pair<std::size_t, std::size_t> Instance::arrival_index_stats(
    std::uint64_t tag) const {
  auto it = unexpected_by_tag_.find(tag);
  if (it == unexpected_by_tag_.end()) return {0, 0};
  return {it->second.order.size(), it->second.live};
}

void Instance::demux_loop() {
  auto& box = proc_->mailbox(kMailbox);
  // An incast burst (collectives, staging fan-in) that lands at one virtual
  // instant costs one wakeup: recv() on a non-empty mailbox never blocks.
  while (!stopped_) {
    auto msg = box.recv();
    if (!msg.has_value()) return;  // mailbox closed (shutdown or kill)
    dispatch(std::move(*msg));
  }
}

Status Instance::send(std::span<const std::byte> data, net::ProcId dest,
                      std::uint64_t tag) {
  if (stopped_) return Status::ShuttingDown();
  proc_->network().transmit(
      *proc_, dest, kMailbox, profile_,
      net::Message{proc_->id(), tag,
                   common::BufferPool::global().copy_of(data)});
  return Status::Ok();
}

Status Instance::recv(std::span<std::byte> out, net::ProcId source,
                      std::uint64_t tag, std::size_t* received) {
  return recv_impl(out, source, tag, nullptr, received);
}

Status Instance::recv_any(std::span<std::byte> out, std::uint64_t tag,
                          net::ProcId* source, std::size_t* received) {
  return recv_impl(out, net::kInvalidProc, tag, source, received);
}

Status Instance::recv_impl(std::span<std::byte> out, net::ProcId source,
                           std::uint64_t tag, net::ProcId* matched,
                           std::size_t* received) {
  if (stopped_) return Status::ShuttingDown();
  // Stored-message lookup (the "unexpected queue" of MPI matching). The
  // original scanned arrivals in order and took the first match; the per-key
  // queues (specific source) and the per-tag arrival index (ANY_SOURCE)
  // reproduce that order without touching unrelated messages.
  if (source != net::kInvalidProc) {
    auto it = unexpected_by_key_.find(MatchKey{source, tag});
    if (it != unexpected_by_key_.end()) {
      StoredMsg& stored = it->second.front();
      if (stored.msg.payload.size() > out.size())
        return Status::InvalidArgument("mona::recv: message truncated");
      std::memcpy(out.data(), stored.msg.payload.data(),
                  stored.msg.payload.size());
      if (received != nullptr) *received = stored.msg.payload.size();
      if (matched != nullptr) *matched = stored.msg.source;
      it->second.pop_front();
      if (it->second.empty()) unexpected_by_key_.erase(it);
      note_specific_consume(tag);
      return Status::Ok();
    }
  } else {
    auto tag_it = unexpected_by_tag_.find(tag);
    if (tag_it != unexpected_by_tag_.end()) {
      ArrivalIndex& ai = tag_it->second;
      while (!ai.order.empty()) {
        const auto [seq, from] = ai.order.front();
        auto key_it = unexpected_by_key_.find(MatchKey{from, tag});
        if (key_it == unexpected_by_key_.end() ||
            key_it->second.front().seq != seq) {
          ai.order.pop_front();  // consumed by a specific receive -- stale
          continue;
        }
        StoredMsg& stored = key_it->second.front();
        if (stored.msg.payload.size() > out.size())
          return Status::InvalidArgument("mona::recv: message truncated");
        std::memcpy(out.data(), stored.msg.payload.data(),
                    stored.msg.payload.size());
        if (received != nullptr) *received = stored.msg.payload.size();
        if (matched != nullptr) *matched = stored.msg.source;
        key_it->second.pop_front();
        if (key_it->second.empty()) unexpected_by_key_.erase(key_it);
        ai.order.pop_front();
        --ai.live;
        if (ai.live == 0) unexpected_by_tag_.erase(tag_it);
        return Status::Ok();
      }
      if (ai.live == 0) unexpected_by_tag_.erase(tag_it);
    }
  }
  PostedRecv post{source,
                  tag,
                  out,
                  0,
                  net::kInvalidProc,
                  Status::Ok(),
                  false,
                  sim().current_fiber_id(),
                  ++match_seq_};
  if (source != net::kInvalidProc) {
    posted_by_key_[MatchKey{source, tag}].push_back(&post);
  } else {
    posted_any_[tag].push_back(&post);
  }
  while (!post.done) sim().block_current();
  if (received != nullptr) *received = post.received;
  if (matched != nullptr) *matched = post.matched_source;
  return post.status;
}

void Instance::fail_pending(net::ProcId dead) {
  for (PostedRecv* p : extract_posts(
           [dead](const PostedRecv& p) { return p.source == dead; })) {
    p->status =
        Status::Unreachable("mona: peer " + net::to_string(dead) + " failed");
    p->done = true;
    des::unblock_for_sync(sim(), p->fiber);
  }
}

void Instance::revoke_context(std::uint64_t context) {
  if (!revoked_.insert(context).second) return;  // already revoked
  for (PostedRecv* p : extract_posts([context](const PostedRecv& p) {
         return tags::belongs_to(p.tag, context);
       })) {
    p->status = Status::Aborted("mona: communicator revoked");
    p->done = true;
    des::unblock_for_sync(sim(), p->fiber);
  }
}

std::shared_ptr<Communicator> Instance::comm_create(
    std::vector<net::ProcId> addrs) {
  const std::uint64_t h = hash_members(addrs);
  const std::uint32_t count = comm_counter_[h]++;
  const std::uint64_t context = h ^ (static_cast<std::uint64_t>(count) *
                                     0x9e3779b97f4a7c15ULL);
  return make_comm(std::move(addrs), context);
}

std::shared_ptr<Communicator> Instance::comm_create(
    std::vector<net::ProcId> addrs, std::uint64_t epoch) {
  // (epoch + 1) keeps epoch 0 distinct from the counter path's first
  // context (h itself), and the odd multiplier spreads epochs across the
  // 23-bit context space the tag layout provides.
  const std::uint64_t context =
      hash_members(addrs) ^ ((epoch + 1) * 0xc2b2ae3d27d4eb4fULL);
  return make_comm(std::move(addrs), context);
}

std::shared_ptr<Communicator> Instance::make_comm(
    std::vector<net::ProcId> addrs, std::uint64_t context) {
  int rank = -1;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] == self()) {
      rank = static_cast<int>(i);
      break;
    }
  }
  if (rank < 0) return nullptr;
  return std::shared_ptr<Communicator>(
      new Communicator(*this, std::move(addrs), rank, context));
}

// ------------------------------------------------------------- Request

Status Request::wait() {
  if (state_ == nullptr) return Status::Ok();  // empty request
  if (!state_->done) sim_->join(fiber_);
  return state_->status;
}

bool Request::test() const { return state_ == nullptr || state_->done; }

Status Request::wait_all(std::span<Request> reqs) {
  Status first;
  for (Request& r : reqs) {
    Status s = r.wait();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace colza::mona
