#include "colza/histogram_backend.hpp"

#include <algorithm>

#include "common/checksum.hpp"
#include "des/simulation.hpp"
#include "vis/data.hpp"

namespace colza {

HistogramBackend::HistogramBackend(Context ctx) : Backend(std::move(ctx)) {
  field_ = ctx_.config.string_or("field", "v");
  bins_ = static_cast<std::uint32_t>(ctx_.config.number_or("bins", 32));
  lo_ = static_cast<float>(ctx_.config.number_or("range_lo", 0.0));
  hi_ = static_cast<float>(ctx_.config.number_or("range_hi", 1.0));
  if (bins_ == 0) bins_ = 1;
}

Status HistogramBackend::activate(std::uint64_t iteration) {
  // Fresh slot even on re-activation: the client re-stages every block, so
  // blocks left by an earlier attempt must not leak into this one.
  active_[iteration].clear();
  return Status::Ok();
}

Status HistogramBackend::stage(StagedBlock block) {
  auto it = active_.find(block.iteration);
  if (it == active_.end())
    return Status::FailedPrecondition("histogram: iteration not active");
  // Validate the block up front -- it must parse and carry the configured
  // field -- so a misconfigured pipeline fails the stage RPC, not a later
  // execute. The bytes just passed the pull-time CRC, so this parse reads
  // known-good data; accumulation still waits for execute(), behind a fresh
  // CRC check, so bytes that rot in staging memory never skew the counts.
  try {
    Local probe;
    probe.counts.assign(bins_, 0);
    Status s = accumulate(vis::deserialize_dataset(block.data), probe);
    if (!s.ok()) return s;
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("histogram: bad dataset: ") +
                                   e.what());
  }
  StoredBlock stored;
  stored.data = std::move(block.data);
  stored.checksum = block.checksum;
  stored.sender = block.sender;
  stored.copyset = std::move(block.copyset);
  it->second.insert_or_assign(std::make_pair(block.block_id, block.field_name),
                              std::move(stored));
  return Status::Ok();
}

Status HistogramBackend::accumulate(const vis::DataSet& ds,
                                    Local& local) const {
  // Find the field in point data, falling back to cell data.
  const vis::DataArray* arr = nullptr;
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, vis::UniformGrid>) {
          arr = v.point_data.find(field_);
        } else if constexpr (std::is_same_v<T, vis::UnstructuredGrid>) {
          arr = v.point_data.find(field_);
          if (arr == nullptr) arr = v.cell_data.find(field_);
        }
      },
      ds);
  if (arr == nullptr)
    return Status::NotFound("histogram: field '" + field_ +
                            "' not in staged block");

  const float width = (hi_ - lo_) / static_cast<float>(bins_);
  for (float v : arr->as<float>()) {
    local.min_seen = std::min<double>(local.min_seen, v);
    local.max_seen = std::max<double>(local.max_seen, v);
    ++local.values;
    if (v < lo_ || width <= 0) {
      ++local.counts[0];
    } else {
      const auto bin = std::min<std::uint32_t>(
          bins_ - 1, static_cast<std::uint32_t>((v - lo_) / width));
      ++local.counts[bin];
    }
  }
  return Status::Ok();
}

Status HistogramBackend::execute(std::uint64_t iteration) {
  auto it = active_.find(iteration);
  if (it == active_.end())
    return Status::FailedPrecondition("histogram: iteration not active");
  if (comm_ == nullptr)
    return Status::FailedPrecondition("histogram: no communicator");

  // Rebuild the local accumulation from the stored blocks every call:
  // verify-then-parse per block (one virtual instant each, so a corruption
  // event cannot slip between check and use), abort before any collective on
  // a mismatch, and since nothing is accumulated incrementally at stage
  // time, a recovery-driven re-execute can never double-count a block.
  auto& sim = ctx_.proc->sim();
  Local local;
  local.counts.assign(bins_, 0);
  for (auto& [key, stored] : it->second) {
    bool corrupt = false;
    Status s;
    auto parse_and_accumulate = [&]() -> Status {
      if (common::crc32c(stored.data) != stored.checksum) {
        corrupt = true;
        return Status::Ok();  // replaced with Corrupt below
      }
      try {
        return accumulate(vis::deserialize_dataset(stored.data), local);
      } catch (const std::exception& e) {
        return Status::InvalidArgument(
            std::string("histogram: bad dataset: ") + e.what());
      }
    };
    s = sim.in_fiber() ? sim.charge_scoped(parse_and_accumulate)
                       : parse_and_accumulate();
    if (corrupt) {
      return Status::Corrupt("histogram: block " + std::to_string(key.first) +
                                 " field '" + key.second +
                                 "' failed checksum verification",
                             key.first + 1);
    }
    if (!s.ok()) return s;
  }

  Result result;
  result.iteration = iteration;
  result.counts.assign(bins_, 0);

  // Global histogram + count: element-wise sums.
  std::vector<std::uint64_t> send = local.counts;
  send.push_back(local.values);
  std::vector<std::uint64_t> recv(send.size());
  Status s = comm_->allreduce(
      {reinterpret_cast<const std::byte*>(send.data()),
       send.size() * sizeof(std::uint64_t)},
      {reinterpret_cast<std::byte*>(recv.data()),
       recv.size() * sizeof(std::uint64_t)},
      send.size(), mona::op_sum<std::uint64_t>());
  if (!s.ok()) return s;
  std::copy_n(recv.begin(), bins_, result.counts.begin());
  result.total_values = recv.back();

  // Global extrema: allreduce min and max (negated-min trick for max).
  double mm[2] = {local.min_seen, -local.max_seen};
  double gmm[2] = {0, 0};
  s = comm_->allreduce({reinterpret_cast<const std::byte*>(mm), sizeof(mm)},
                       {reinterpret_cast<std::byte*>(gmm), sizeof(gmm)}, 2,
                       mona::op_min<double>());
  if (!s.ok()) return s;
  result.min_seen = gmm[0];
  result.max_seen = -gmm[1];

  results_.push_back(std::move(result));
  return Status::Ok();
}

Status HistogramBackend::deactivate(std::uint64_t iteration) {
  active_.erase(iteration);
  return Status::Ok();
}

HistogramBackend::StoredBlock* HistogramBackend::find_stored(
    std::uint64_t iteration, std::uint64_t block_id,
    const std::string& field) {
  auto it = active_.find(iteration);
  if (it == active_.end()) return nullptr;
  auto b = it->second.find(std::make_pair(block_id, field));
  return b == it->second.end() ? nullptr : &b->second;
}

std::vector<Backend::BlockInfo> HistogramBackend::integrity_scan(
    std::uint64_t iteration) {
  std::vector<BlockInfo> out;
  auto it = active_.find(iteration);
  if (it == active_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [key, stored] : it->second) {
    BlockInfo info;
    info.block_id = key.first;
    info.field_name = key.second;
    info.checksum = stored.checksum;
    info.bytes = stored.data.size();
    info.valid = common::crc32c(stored.data) == stored.checksum;
    info.copyset = stored.copyset;
    out.push_back(std::move(info));
  }
  return out;  // map order == sorted (block_id, field) order
}

bool HistogramBackend::fetch_block(std::uint64_t iteration,
                                   std::uint64_t block_id,
                                   const std::string& field,
                                   StagedBlock& out) {
  StoredBlock* stored = find_stored(iteration, block_id, field);
  if (stored == nullptr) return false;
  out.iteration = iteration;
  out.block_id = block_id;
  out.field_name = field;
  out.sender = stored->sender;
  out.data = stored->data;  // served as-is; the requester verifies
  out.checksum = stored->checksum;
  out.copyset = stored->copyset;
  return true;
}

common::Bytes* HistogramBackend::stored_payload(
    std::uint64_t iteration, std::uint64_t block_id,
    const std::string& field) {
  StoredBlock* stored = find_stored(iteration, block_id, field);
  return stored == nullptr ? nullptr : &stored->data;
}

json::Value HistogramBackend::stats() const {
  json::Object out;
  out.emplace("pipeline", std::string("histogram"));
  out.emplace("field", field_);
  out.emplace("bins", static_cast<double>(bins_));
  json::Array iterations;
  for (const Result& r : results_) {
    json::Object it;
    it.emplace("iteration", static_cast<double>(r.iteration));
    it.emplace("values", static_cast<double>(r.total_values));
    it.emplace("min", r.min_seen);
    it.emplace("max", r.max_seen);
    json::Array counts;
    for (std::uint64_t c : r.counts)
      counts.push_back(static_cast<double>(c));
    it.emplace("counts", std::move(counts));
    iterations.push_back(std::move(it));
  }
  out.emplace("iterations", std::move(iterations));
  return out;
}

std::vector<std::byte> HistogramBackend::export_state() {
  return pack(results_);
}

Status HistogramBackend::import_state(std::span<const std::byte> state) {
  std::vector<Result> other;
  try {
    unpack(state, other);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("histogram: bad state: ") +
                                   e.what());
  }
  // Merge: results for the same iteration are identical on every member
  // (allreduce), so keep whichever arrives; new iterations are appended.
  for (auto& r : other) {
    const bool known =
        std::any_of(results_.begin(), results_.end(),
                    [&](const Result& mine) { return mine.iteration == r.iteration; });
    if (!known) results_.push_back(std::move(r));
  }
  std::sort(results_.begin(), results_.end(),
            [](const Result& a, const Result& b) {
              return a.iteration < b.iteration;
            });
  return Status::Ok();
}

}  // namespace colza
