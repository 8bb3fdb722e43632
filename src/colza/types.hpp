// Shared wire types of the Colza protocol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"

namespace colza {

// Metadata sent with a stage() RPC. The data itself does NOT travel in the
// RPC: the server pulls it from the simulation's memory via RDMA using
// `data` (paper S II-B: "the stage function does not send data directly...
// it sends a memory handle along with some metadata").
struct StageMetadata {
  std::string pipeline;
  std::uint64_t iteration = 0;
  std::uint64_t block_id = 0;
  std::string field_name;  // descriptive; pipelines may use it for routing
  net::BulkRef data;
  // Replication (see src/colza/placement.hpp): every copy of a block carries
  // the full copyset ([0] = primary owner) plus its own rank in it, so after
  // a crash the survivors can agree locally on who promotes which replica.
  std::vector<net::ProcId> copyset;
  std::uint32_t replica_rank = 0;  // 0 = primary (feeds the backend)
  // Flow-control credit backing this stage (colza.flow.acquire). 0 = the
  // client is not flow-controlled; the server then admits directly against
  // its budget (and may shed with Busy). Always serialized, so the frame
  // size is the same with and without flow control.
  std::uint64_t grant_id = 0;
  // CRC32C of the staged payload, computed by the client at stage time
  // (common/checksum.hpp). The server verifies it after every RDMA pull and
  // stores it alongside the bytes; every later read (replica promotion,
  // execute-time parse, background scrub) re-verifies against it, so silent
  // corruption anywhere on the data plane is detected before it is rendered.
  std::uint32_t checksum = 0;

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & pipeline & iteration & block_id & field_name & data & copyset &
        replica_rank & grant_id & checksum;
  }
};

// One steering update flowing *back* from an observer into the simulation
// (docs/viewer.md): either a camera retarget the viewer tier applies to one
// of its camera presets, or a named simulation parameter the application
// drains at its next iteration boundary (colza.viewer.drain_steering).
// Updates are never applied mid-iteration: the tier queues them with a
// deterministic virtual arrival timestamp and hands them out only when an
// iteration boundary asks, so a steered run replays bit-identically from
// the steering log.
struct SteeringUpdate {
  enum class Kind : std::uint8_t { camera = 0, parameter = 1 };

  std::uint8_t kind = 0;            // Kind, as a wire byte
  std::uint32_t camera = 0;         // camera: which preset to retarget
  std::string name;                 // parameter: which simulation knob
  double value = 0.0;               // new azimuth (camera) / knob value
  std::uint64_t session = 0;        // originating viewer session (0 = admin)

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & kind & camera & name & value & session;
  }

  [[nodiscard]] bool operator==(const SteeringUpdate&) const = default;
};

// A block after the server pulled it: what Backend::stage receives. Carries
// the stage-time checksum and recorded copyset through to the backend's
// stored form, so integrity scans can re-verify the bytes and repairs know
// which buddies hold another copy.
struct StagedBlock {
  std::uint64_t iteration = 0;
  std::uint64_t block_id = 0;
  std::string field_name;
  net::ProcId sender = net::kInvalidProc;
  common::Bytes data;          // typically a serialized vis::DataSet
  std::uint32_t checksum = 0;   // CRC32C of `data` at stage time
  std::vector<net::ProcId> copyset;  // recorded placement ([0] = primary)
};

}  // namespace colza
