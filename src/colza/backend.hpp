// The user-facing pipeline abstraction (paper S II-B): a pipeline is a C++
// class inheriting from colza::Backend, instantiated on each server. The
// paper compiles pipelines into shared libraries loaded with dlopen; this
// reproduction uses a name-keyed factory registry with identical lifecycle
// semantics (create-by-name at run time, optional JSON configuration) --
// see DESIGN.md for the substitution rationale.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "colza/types.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"

namespace colza {

namespace render {
struct FrameBuffer;
}

class Backend {
 public:
  // Everything a pipeline instance gets from its hosting provider.
  struct Context {
    net::Process* proc = nullptr;
    mona::Instance* mona = nullptr;
    json::Value config;  // the admin-supplied JSON configuration
  };

  explicit Backend(Context ctx) : ctx_(std::move(ctx)) {}
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // Lifecycle RPCs, in protocol order (paper S II-B):
  //   activate -> stage* -> execute -> deactivate
  virtual Status activate(std::uint64_t iteration) = 0;
  virtual Status stage(StagedBlock block) = 0;
  virtual Status execute(std::uint64_t iteration) = 0;
  virtual Status deactivate(std::uint64_t iteration) = 0;

  // Called by the provider whenever the (frozen) staging-area view changed:
  // `comm` spans the servers of the newly committed view, in sorted address
  // order. Pipelines use it for their parallel operations.
  virtual void update_comm(std::shared_ptr<mona::Communicator> comm) {
    comm_ = std::move(comm);
  }

  // Introspection: a JSON document describing the pipeline's state and
  // per-iteration statistics (what external monitors / autoscalers read via
  // the colza.admin.stats RPC). Default: empty object.
  [[nodiscard]] virtual json::Value stats() const { return json::Object{}; }

  // The most recently rendered framebuffer, for pipelines that produce one.
  // The viewer delivery tier (src/viewer) snapshots it to serve observer
  // fan-out; nullptr (the default) means this pipeline renders nothing and
  // viewers of it receive no frames.
  [[nodiscard]] virtual const render::FrameBuffer* rendered_frame() const {
    return nullptr;
  }

  // ---- data integrity (docs/PROTOCOL.md, integrity section) ---------------
  // Backends that hold staged payloads between stage() and execute() expose
  // them to the server's integrity layer: scans re-verify every stored block
  // against its stage-time CRC32C, repairs re-stage a verified copy fetched
  // from a buddy (via the ordinary keyed stage(), which replaces in place),
  // and the chaos layer's corrupt rules rot bytes through stored_payload.
  // The defaults describe a backend that stores nothing (and therefore has
  // nothing to corrupt or repair).
  struct BlockInfo {
    std::uint64_t block_id = 0;
    std::string field_name;
    std::uint32_t checksum = 0;  // the stage-time CRC32C on record
    std::size_t bytes = 0;       // stored size (may differ after truncation)
    bool valid = false;          // stored bytes still hash to `checksum`
    std::vector<net::ProcId> copyset;  // recorded placement ([0] = primary)
  };
  // Every stored block of `iteration`, re-verified, in (block_id, field)
  // order so scans are deterministic.
  [[nodiscard]] virtual std::vector<BlockInfo> integrity_scan(
      std::uint64_t /*iteration*/) {
    return {};
  }
  // Copies the stored bytes and recorded checksum out (for serving a buddy's
  // repair fetch). Deliberately does NOT verify: a silently corrupt server
  // does not know its bytes rotted -- the requester verifies.
  [[nodiscard]] virtual bool fetch_block(std::uint64_t /*iteration*/,
                                         std::uint64_t /*block_id*/,
                                         const std::string& /*field*/,
                                         StagedBlock& /*out*/) {
    return false;
  }
  // Mutable access to the stored payload under (iteration, block_id, field),
  // or nullptr when unknown. Only the chaos corruption hook uses this; the
  // protocol itself never mutates stored bytes in place.
  [[nodiscard]] virtual common::Bytes* stored_payload(
      std::uint64_t /*iteration*/, std::uint64_t /*block_id*/,
      const std::string& /*field*/) {
    return nullptr;
  }

  // ---- stateful pipelines (paper S VI, future-work item 3) ----------------
  // A stateful pipeline accumulates data across iterations (running
  // statistics, cinema databases, ...). When its server leaves the staging
  // area gracefully, the provider exports its state and ships it to a
  // surviving peer, which merges it via import_state.
  [[nodiscard]] virtual bool stateful() const { return false; }
  [[nodiscard]] virtual std::vector<std::byte> export_state() { return {}; }
  virtual Status import_state(std::span<const std::byte> /*state*/) {
    return Status::Ok();
  }

  [[nodiscard]] const Context& context() const noexcept { return ctx_; }
  [[nodiscard]] const std::shared_ptr<mona::Communicator>& comm()
      const noexcept {
    return comm_;
  }

 protected:
  Context ctx_;
  std::shared_ptr<mona::Communicator> comm_;
};

// A factory rejects a bad config by throwing std::invalid_argument, which
// create() returns as InvalidArgument.
using BackendFactory =
    std::function<std::unique_ptr<Backend>(Backend::Context)>;

// The stand-in for the dlopen'd shared-library mechanism: pipelines register
// a factory under a type name; providers instantiate by name on demand.
class BackendRegistry {
 public:
  static void register_type(const std::string& type, BackendFactory factory);
  [[nodiscard]] static bool has(const std::string& type);
  [[nodiscard]] static Expected<std::unique_ptr<Backend>> create(
      const std::string& type, Backend::Context ctx);
  [[nodiscard]] static std::vector<std::string> types();
};

// Static registration helper:
//   COLZA_REGISTER_BACKEND("my-pipeline", MyPipeline);
#define COLZA_REGISTER_BACKEND(type_name, cls)                            \
  namespace {                                                             \
  const bool colza_registered_##cls = [] {                                \
    ::colza::BackendRegistry::register_type(                              \
        type_name, [](::colza::Backend::Context ctx) {                    \
          return std::make_unique<cls>(std::move(ctx));                   \
        });                                                               \
    return true;                                                          \
  }();                                                                    \
  }

}  // namespace colza
