// HistogramBackend: a non-visualization analysis pipeline -- computes a
// global histogram of one field across all staged blocks every iteration,
// using a MoNA allreduce across the staging area. Demonstrates that Colza
// pipelines are arbitrary C++ analysis code (paper S II-B: "they can include
// any type of processing"), not only ParaView rendering.
//
// Registered under the type name "histogram". JSON configuration:
//   { "field": "v", "bins": 32, "range_lo": 0.0, "range_hi": 1.0 }
//
// The backend is stateful: its per-iteration results migrate to a surviving
// peer when its server leaves (Backend::export_state/import_state).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "colza/backend.hpp"
#include "vis/data.hpp"

namespace colza {

class HistogramBackend final : public Backend {
 public:
  explicit HistogramBackend(Context ctx);

  Status activate(std::uint64_t iteration) override;
  Status stage(StagedBlock block) override;
  Status execute(std::uint64_t iteration) override;
  Status deactivate(std::uint64_t iteration) override;

  [[nodiscard]] json::Value stats() const override;
  [[nodiscard]] bool stateful() const override { return true; }
  [[nodiscard]] std::vector<std::byte> export_state() override;
  Status import_state(std::span<const std::byte> state) override;

  [[nodiscard]] std::vector<BlockInfo> integrity_scan(
      std::uint64_t iteration) override;
  [[nodiscard]] bool fetch_block(std::uint64_t iteration,
                                 std::uint64_t block_id,
                                 const std::string& field,
                                 StagedBlock& out) override;
  [[nodiscard]] common::Bytes* stored_payload(
      std::uint64_t iteration, std::uint64_t block_id,
      const std::string& field) override;

  struct Result {
    std::uint64_t iteration = 0;
    std::vector<std::uint64_t> counts;  // global histogram (valid on rank 0)
    std::uint64_t total_values = 0;     // global count
    double min_seen = 0, max_seen = 0;  // global extrema

    template <typename Ar>
    void serialize(Ar& ar) {
      ar & iteration & counts & total_values & min_seen & max_seen;
    }
  };
  [[nodiscard]] const std::vector<Result>& results() const noexcept {
    return results_;
  }

 private:
  std::string field_;
  std::uint32_t bins_ = 32;
  float lo_ = 0.0f, hi_ = 1.0f;
  // Per-active-iteration raw staged blocks, keyed by (block_id, field) so a
  // retransmitted or repair-driven restage replaces its earlier copy instead
  // of counting the block's values twice. Accumulation happens from scratch
  // at execute() -- behind a fresh CRC check per block -- which also makes
  // execute idempotent across recovery retries.
  struct StoredBlock {
    common::Bytes data;
    std::uint32_t checksum = 0;
    net::ProcId sender = net::kInvalidProc;
    std::vector<net::ProcId> copyset;
  };
  using BlockKey = std::pair<std::uint64_t, std::string>;
  using Slot = std::map<BlockKey, StoredBlock>;
  // Scratch accumulation state, rebuilt per execute().
  struct Local {
    std::vector<std::uint64_t> counts;
    std::uint64_t values = 0;
    double min_seen = 1e300, max_seen = -1e300;
  };
  [[nodiscard]] Status accumulate(const vis::DataSet& ds, Local& local) const;
  [[nodiscard]] StoredBlock* find_stored(std::uint64_t iteration,
                                         std::uint64_t block_id,
                                         const std::string& field);
  std::map<std::uint64_t, Slot> active_;
  std::vector<Result> results_;
};

}  // namespace colza
