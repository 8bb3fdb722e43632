// The Catalyst pipeline backend: the concrete colza::Backend used throughout
// the paper's evaluation. Stages serialized vis::DataSet blocks and, on
// execute(), runs a catalyst::PipelineScript over them with the MoNA
// communicator of the currently frozen staging-area view.
//
// Registered in the BackendRegistry under the type name "catalyst"; the
// admin-supplied JSON configuration string is parsed into the script (see
// catalyst::PipelineScript::from_json), with `"preset"` selecting one of the
// paper's three application pipelines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "catalyst/catalyst.hpp"
#include "colza/backend.hpp"
#include "des/time.hpp"
#include "render/render.hpp"
#include "vis/communicator.hpp"

namespace colza {

class CatalystBackend final : public Backend {
 public:
  explicit CatalystBackend(Context ctx);

  Status activate(std::uint64_t iteration) override;
  Status stage(StagedBlock block) override;
  Status execute(std::uint64_t iteration) override;
  Status deactivate(std::uint64_t iteration) override;
  [[nodiscard]] json::Value stats() const override;

  [[nodiscard]] std::vector<BlockInfo> integrity_scan(
      std::uint64_t iteration) override;
  [[nodiscard]] bool fetch_block(std::uint64_t iteration,
                                 std::uint64_t block_id,
                                 const std::string& field,
                                 StagedBlock& out) override;
  [[nodiscard]] common::Bytes* stored_payload(
      std::uint64_t iteration, std::uint64_t block_id,
      const std::string& field) override;

  // Per-execution record, for benches and tests (virtual-time durations).
  struct Record {
    std::uint64_t iteration = 0;
    int comm_size = 0;
    // Context of the communicator the execution ran on. Since every 2PC
    // commit establishes a fresh epoch context, this identifies the
    // activation attempt: records sharing a context belong to one attempt
    // over one frozen group.
    std::uint64_t comm_context = 0;
    des::Duration execute_time = 0;
    catalyst::ExecutionStats stats;
    std::uint64_t image_hash = 0;
  };
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const render::FrameBuffer& framebuffer() const noexcept {
    return fb_;
  }
  [[nodiscard]] const render::FrameBuffer* rendered_frame() const override {
    return &fb_;
  }
  [[nodiscard]] const catalyst::PipelineScript& script() const noexcept {
    return script_;
  }

 private:
  // One activation's staged blocks, stored as the raw serialized bytes the
  // server pulled, alongside their stage-time checksum and recorded copyset.
  // Parsing is deferred to execute(): every read of the bytes first
  // re-verifies the CRC, so silent rot between stage and render is caught
  // (and repaired from a buddy) instead of rendered.
  //
  // Keyed storage makes stage() idempotent: a retransmitted, duplicated, or
  // repair-driven stage for the same (block, field) replaces the earlier
  // copy instead of compositing the block twice.
  struct StoredBlock {
    common::Bytes data;
    std::uint32_t checksum = 0;
    net::ProcId sender = net::kInvalidProc;
    std::vector<net::ProcId> copyset;
  };
  // One iteration's blocks, keyed by (block id, field name).
  using StagingSlot =
      std::map<std::pair<std::uint64_t, std::string>, StoredBlock>;

  [[nodiscard]] StoredBlock* find_stored(std::uint64_t iteration,
                                         std::uint64_t block_id,
                                         const std::string& field);

  catalyst::PipelineScript script_;
  bool first_execute_ = true;  // models VTK/Python init on first use
  std::map<std::uint64_t, StagingSlot> staged_;
  render::FrameBuffer fb_;
  std::vector<Record> records_;
};

}  // namespace colza
