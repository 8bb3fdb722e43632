#include "net/network.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"
#include "common/log.hpp"
#include "des/parallel.hpp"

namespace colza::net {

namespace {
// Serialization time of `bytes` at `gbps` gigabytes per second, in ns.
// 1 GB/s == 1 byte/ns, so ns = bytes / gbps.
des::Duration bytes_over(double gbps, std::size_t bytes) {
  return static_cast<des::Duration>(static_cast<double>(bytes) / gbps);
}

// [offset, offset + length) lies within `size`, compared without the sum so
// wire-supplied values cannot wrap past the check.
bool range_within(std::uint64_t offset, std::uint64_t length,
                  std::uint64_t size) noexcept {
  return length <= size && offset <= size - length;
}

// One parallel_pure task of crc32c_copy: a 2 MiB block is eight.
constexpr std::size_t kStageChunk = 256 * 1024;
// One three-lane block of crc32c_hw: hashed, then copied from L1.
constexpr std::size_t kPiece = 24 * 1024;

std::uint32_t hash_copy_serial(const std::byte* src, std::size_t n,
                               std::byte* dst, std::uint32_t seed) {
  std::uint32_t crc = seed;
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kPiece, n - done);
    crc = common::crc32c({src + done, m}, crc);
    if (dst != nullptr) std::memcpy(dst + done, src + done, m);
    done += m;
  }
  return crc;
}
}  // namespace

std::uint32_t crc32c_copy(std::span<const std::byte> src, std::byte* dst) {
  const std::size_t chunks = src.size() / kStageChunk;
  std::uint32_t crc = 0;
  std::size_t done = 0;
  if (chunks >= 2) {
    std::vector<std::uint32_t> chunk_crc(chunks);
    des::parallel_pure(chunks, [&](std::size_t i) {
      const std::size_t at = i * kStageChunk;
      chunk_crc[i] = hash_copy_serial(src.data() + at, kStageChunk,
                                      dst != nullptr ? dst + at : nullptr, 0);
    });
    for (const std::uint32_t c : chunk_crc) {
      crc = common::crc32c_splice<kStageChunk>(crc, c);
    }
    done = chunks * kStageChunk;
  }
  return hash_copy_serial(src.data() + done, src.size() - done,
                          dst != nullptr ? dst + done : nullptr, crc);
}

// ---------------------------------------------------------------- Mailbox

void Mailbox::push(Message msg) {
  if (closed_) return;
  queue_.push_back(std::move(msg));
  cv_.notify_one();
}

std::optional<Message> Mailbox::recv(std::optional<des::Duration> timeout) {
  des::LockGuard g(mutex_);
  auto ready = [this] { return !queue_.empty() || closed_; };
  if (timeout.has_value()) {
    if (!cv_.wait_for(mutex_, *timeout, ready)) return std::nullopt;
  } else {
    cv_.wait(mutex_, ready);
  }
  if (queue_.empty()) return std::nullopt;  // closed
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

std::optional<Message> Mailbox::try_recv() {
  if (queue_.empty()) return std::nullopt;
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

void Mailbox::close() {
  closed_ = true;
  cv_.notify_all();
}

// ---------------------------------------------------------------- Process

Process::Process(Network& net, ProcId id, NodeId node)
    : net_(&net), id_(id), node_(node) {}

Process::~Process() = default;

des::Simulation& Process::sim() noexcept { return net_->sim(); }

des::FiberHandle Process::spawn(std::string name, std::function<void()> body,
                                des::SpawnOptions opts) {
  opts.tag = static_cast<std::uint64_t>(id_) + 1;
  return sim().spawn(std::move(name), std::move(body), opts);
}

Mailbox& Process::mailbox(const std::string& name) {
  for (auto& [box_name, box] : mailboxes_) {
    if (box_name == name) return *box;
  }
  mailboxes_.emplace_back(name, std::make_unique<Mailbox>(sim()));
  return *mailboxes_.back().second;
}

void Process::kill() {
  if (!alive_) return;
  alive_ = false;
  regions_.clear();
  for (auto& [name, box] : mailboxes_) box->close();
}

BulkRef Process::expose(std::span<const std::byte> region) {
  const std::uint64_t id = next_region_++;
  regions_.emplace(id, region);
  return BulkRef{id_, id, region.size()};
}

void Process::unexpose(const BulkRef& ref) { regions_.erase(ref.region); }

std::optional<std::span<const std::byte>> Process::lookup(
    const BulkRef& ref) const {
  auto it = regions_.find(ref.region);
  if (it == regions_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------- Network

Network::Network(des::Simulation& sim, NetworkConfig config)
    : sim_(&sim),
      config_(config),
      loss_rng_(std::make_unique<Rng>(sim.rng().fork())) {}

void Network::set_link_down(ProcId a, ProcId b, bool down) {
  if (down) {
    down_links_.insert({a, b});
  } else {
    down_links_.erase({a, b});
  }
}

bool Network::link_down(ProcId a, ProcId b) const {
  // Fault-free runs (the common case) pay only the empty() check per message.
  return !down_links_.empty() && down_links_.count({a, b}) != 0;
}

Network::~Network() = default;

Process& Network::create_process(NodeId node) {
  const ProcId id = next_proc_++;
  auto proc = std::make_unique<Process>(*this, id, node);
  Process& ref = *proc;
  procs_.push_back(std::move(proc));  // ids are dense: procs_[id - 1]
  nodes_.try_emplace(node);
  return ref;
}

Process* Network::find(ProcId id) noexcept {
  if (id == 0 || id > procs_.size()) return nullptr;
  return procs_[id - 1].get();
}

Process* Network::find_alive_on_node(NodeId node) noexcept {
  // procs_ is ordered by ProcId, so the first match is the lowest id.
  for (auto& p : procs_) {
    if (p->node() == node && p->alive()) return p.get();
  }
  return nullptr;
}

std::size_t Network::alive_count() const noexcept {
  std::size_t n = 0;
  for (const auto& p : procs_) n += p->alive() ? 1 : 0;
  return n;
}

des::Time Network::reserve_nic(NodeId node, des::Time earliest,
                               std::size_t bytes) {
  Node& n = nodes_[node];
  const des::Time start = std::max(earliest, n.nic_free);
  const des::Time end = start + bytes_over(config_.nic_bandwidth_gbps, bytes);
  n.nic_free = end;
  return end;
}

des::Duration Network::message_delay(NodeId src, NodeId dst, std::size_t bytes,
                                     const Profile& p) const {
  des::Duration d = p.sw_latency + p.per_request_alloc;
  if (src == dst && p.shm_enabled) {
    return d + p.shm_latency + bytes_over(p.shm_bandwidth_gbps, bytes);
  }
  if (config_.nodes_per_group > 0 &&
      src / config_.nodes_per_group != dst / config_.nodes_per_group) {
    d += config_.inter_group_latency;  // extra hops through the global links
  }
  if (bytes <= p.eager_threshold) {
    d += bytes_over(p.bandwidth_gbps, bytes);
  } else if (p.large_uses_rdma) {
    d += p.rdma_setup + bytes_over(p.rdma_bandwidth_gbps, bytes);
  } else {
    d += p.rendezvous_overhead +
         static_cast<des::Duration>(
             static_cast<double>(bytes_over(p.rdma_bandwidth_gbps, bytes)) *
             p.rendezvous_byte_factor);
  }
  return d + config_.wire_latency;
}

void Network::transmit(Process& src, ProcId dst, const std::string& box,
                       const Profile& profile, Message msg) {
  if (!src.alive()) return;  // a dead process cannot put bytes on the wire
  Process* target = find(dst);
  if (target == nullptr || !target->alive()) return;  // dropped on the fabric
  if (link_down(src.id(), dst)) return;               // injected link failure
  if (config_.message_loss_probability > 0 && src.node() != target->node() &&
      loss_rng_->uniform() < config_.message_loss_probability) {
    return;  // injected random loss
  }

  const std::size_t bytes = msg.payload.size();
  const des::Duration base =
      message_delay(src.node(), target->node(), bytes, profile);
  FaultVerdict verdict;
  if (injector_ != nullptr) {
    verdict = injector_->on_message(src, *target, box, msg.tag, bytes, base);
    if (verdict.drop) return;  // swallowed by the injected fault
  }
  des::Time deliver_at = sim_->now() + base;
  if (src.node() != target->node() && bytes > profile.eager_threshold &&
      !profile.large_uses_rdma && profile.rendezvous_overhead > 0) {
    // Receiver-side rendezvous serialization: the destination's progress
    // engine handles one handshake at a time. The solo-message handshake
    // cost is already part of `base`; only the queueing delay is added here.
    des::Time& free_at = rndv_free_[dst];
    const des::Time earliest = sim_->now() + profile.sw_latency;
    const des::Time start = std::max(earliest, free_at);
    const des::Time done = start + profile.rendezvous_overhead;
    free_at = done;
    deliver_at += done - (earliest + profile.rendezvous_overhead);
  }
  if (src.node() != target->node()) {
    // Shared-NIC occupancy at both endpoints: a solo message is not delayed
    // beyond `base` (whose bandwidth term already covers serialization), but
    // concurrent transfers queue behind each other (incast contention).
    const des::Duration ser = bytes_over(config_.nic_bandwidth_gbps, bytes);
    {
      Node& n = nodes_[src.node()];
      const des::Time start = std::max(sim_->now(), n.nic_free);
      n.nic_free = start + ser;
      deliver_at = std::max(deliver_at, n.nic_free + config_.wire_latency);
    }
    {
      Node& n = nodes_[target->node()];
      const des::Time start = std::max(deliver_at - ser, n.nic_free);
      n.nic_free = start + ser;
      deliver_at = std::max(deliver_at, n.nic_free);
    }
  }

  // Resolve the destination mailbox now: Process objects (and their
  // mailboxes) live as long as the Network, and kill() closes mailboxes, so
  // a push to a process that died in flight is dropped by the closed check.
  // Capturing the pointer keeps the delivery callback small enough for the
  // scheduler's inline callback storage -- no allocation per message.
  deliver_at += verdict.extra_delay;

  Mailbox* target_box = &target->mailbox(box);
  // Injected duplicates model a retransmitting fabric: each copy is a fresh
  // pooled buffer delivered after the original at `dup_spacing` intervals.
  for (int d = 1; d <= verdict.duplicates; ++d) {
    Message copy;
    copy.source = msg.source;
    copy.tag = msg.tag;
    copy.payload = common::BufferPool::global().copy_of(msg.payload.span());
    sim_->schedule_at(deliver_at + d * verdict.dup_spacing,
                      [target_box, msg = std::move(copy)]() mutable {
                        target_box->push(std::move(msg));
                      });
  }
  sim_->schedule_at(deliver_at,
                    [target_box, msg = std::move(msg)]() mutable {
                      target_box->push(std::move(msg));
                    });
}

des::Duration Network::rdma_delay(Process& self, ProcId owner,
                                  std::size_t bytes, const Profile& p) {
  Process* remote = find(owner);
  const NodeId rnode = remote != nullptr ? remote->node() : self.node() + 1;
  if (rnode == self.node() && p.shm_enabled) {
    return p.rdma_setup / 4 + p.shm_latency +
           bytes_over(p.shm_bandwidth_gbps, bytes);
  }
  const des::Duration base = p.rdma_setup + 2 * config_.wire_latency +
                             bytes_over(p.rdma_bandwidth_gbps, bytes);
  des::Time done_at = sim_->now() + base;
  // NIC occupancy on both sides: queueing-only (a solo transfer completes in
  // `base`; concurrent ones serialize on the shared NICs).
  const des::Duration ser = bytes_over(config_.nic_bandwidth_gbps, bytes);
  for (NodeId node : {rnode, self.node()}) {
    Node& n = nodes_[node];
    const des::Time start = std::max(done_at - ser, n.nic_free);
    n.nic_free = start + ser;
    done_at = std::max(done_at, n.nic_free);
  }
  return done_at - sim_->now();
}

Status Network::rdma_get(Process& self, const BulkRef& ref,
                         std::uint64_t offset, std::uint64_t length,
                         common::Bytes& out, const Profile& profile,
                         std::uint32_t* crc) {
  if (!self.alive()) return Status::Unreachable("rdma_get: self is dead");
  if (link_down(self.id(), ref.owner) || link_down(ref.owner, self.id()))
    return Status::Unreachable("rdma_get: link down");
  if (!range_within(offset, length, ref.size))
    return Status::InvalidArgument("rdma_get: range beyond exposed region");
  // Reserve the destination before the modeled wait, from the owner's live
  // region: a `ref` that overstates it fails here, before any allocation.
  // An owner that is gone or a region no longer exposed fails at completion,
  // after the same modeled wait as a valid pull. Only reserve: the size
  // grows after the completion checks below, so a failed pull leaves `out`
  // exactly as it was.
  if (Process* remote = find(ref.owner); remote != nullptr && remote->alive()) {
    if (auto region = remote->lookup(ref); region.has_value()) {
      if (!range_within(offset, length, region->size()))
        return Status::InvalidArgument("rdma_get: range beyond exposed region");
      out.reserve(out.size() + length);
    }
  }
  des::Duration delay = rdma_delay(self, ref.owner, length, profile);
  std::uint8_t corrupt_xor = 0;
  std::uint64_t corrupt_offset = 0;
  if (injector_ != nullptr) {
    const FaultVerdict v = injector_->on_rdma(self, ref.owner, length, delay);
    if (v.drop) {
      // The transfer is lost on the wire: the initiator still waits out the
      // modeled time before its completion queue reports the failure.
      sim_->sleep_for(delay + v.extra_delay);
      return Status::Unreachable("rdma_get: transfer lost (injected)");
    }
    delay += v.extra_delay;
    corrupt_xor = v.corrupt_xor;
    corrupt_offset = v.corrupt_offset;
  }
  sim_->sleep_for(delay);
  // Read remote memory at completion time (the exposer must keep it valid
  // while exposed; Colza guarantees this between stage and deactivate).
  Process* remote = find(ref.owner);
  if (remote == nullptr || !remote->alive())
    return Status::Unreachable("rdma_get: owner process is gone");
  auto region = remote->lookup(ref);
  if (!region.has_value())
    return Status::NotFound("rdma_get: region not exposed");
  if (!range_within(offset, length, region->size()))
    return Status::InvalidArgument("rdma_get: region shrank");
  // Every check has passed: grow `out` (no zero-fill) and land the bytes.
  const std::size_t before = out.size();
  out.resize(before + length);
  std::byte* landed = out.data() + before;
  std::uint32_t digest = crc32c_copy({region->data() + offset, length}, landed);
  if (corrupt_xor != 0 && length != 0) {
    // Injected wire corruption: the transfer "succeeds" with rotted bytes,
    // as a real silent fault would. Detection is the reader's job, so the
    // digest describes the bytes that landed.
    landed[corrupt_offset % length] ^= std::byte{corrupt_xor};
    digest = crc32c_copy({landed, length}, nullptr);
  }
  if (crc != nullptr) *crc = digest;
  return Status::Ok();
}

}  // namespace colza::net
