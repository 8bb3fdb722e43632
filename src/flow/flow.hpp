// Server-side flow control: a per-server staging-memory budget with
// credit-based admission, weighted fair granting, and load shedding.
//
// The protocol (docs/flow.md): a flow-controlled client asks the target
// server for a byte credit (`colza.flow.acquire`) before shipping a stage
// handle. The server grants immediately when the budget has room and nobody
// is queued, queues the request under a deficit-round-robin fair queue keyed
// by pipeline when it must wait, and *sheds* (fast-fails with Status::Busy
// plus a retry-after hint) when waiting would be pointless: the grant queue
// is full, or the deadline-derived bound says the backlog cannot drain
// before the caller's deadline. A grant is a lease: staged bytes consume it
// (`ServerFlow::consume`, keyed so idempotent re-stages replace instead of
// double-charge), and an unconsumed grant expires after `lease_ttl` so a
// crashed client cannot leak budget forever.
//
// Everything runs inside the single-threaded DES: queue order, grant order,
// lease expiry and shed decisions are pure functions of the virtual-time
// event sequence, so flow control preserves bit-identical timelines.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "flow/drr.hpp"
#include "net/address.hpp"
#include "obs/metrics.hpp"

namespace colza::flow {

struct FlowConfig {
  // Staging budget in bytes. 0 disables flow control entirely: acquire()
  // returns instant zero-cost grants and consume() charges nothing, so a
  // server without a budget behaves byte-for-byte like the pre-flow server.
  std::uint64_t budget_bytes = 0;
  // DRR quantum: bytes of deficit a backlogged pipeline earns per round.
  std::uint64_t quantum_bytes = 256ull << 10;
  // Grant-queue length cap; arrivals beyond it are shed.
  std::uint32_t max_queue = 64;
  // Assumed drain bandwidth for the deadline-derived shed bound and the
  // Busy retry-after hint (how fast charged bytes are expected to free).
  double drain_gbps = 2.0;
  // A grant not consumed by a stage within this long is reclaimed.
  des::Duration lease_ttl = des::seconds(10);
  // Queue-wait cap for acquires that carry no deadline.
  des::Duration max_queue_wait = des::seconds(5);
};

struct AcquireResult {
  Status status;
  std::uint64_t grant_id = 0;  // nonzero iff status.ok() and flow enabled
};

class ServerFlow {
 public:
  ServerFlow(des::Simulation& sim, net::ProcId self, FlowConfig config);
  ~ServerFlow();
  ServerFlow(const ServerFlow&) = delete;
  ServerFlow& operator=(const ServerFlow&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return config_.budget_bytes > 0;
  }

  // Blocking credit request; runs in the RPC handler fiber. `deadline` is
  // the caller's absolute give-up point (0 = none). Returns ok + grant id,
  // Busy with a retry-after hint (shed), or failed_precondition when the
  // request can never fit the budget.
  AcquireResult acquire(const std::string& pipeline, std::uint64_t bytes,
                        des::Time deadline);

  // Client abandoned an unconsumed grant (stage failed or was canceled).
  void release(std::uint64_t grant_id);

  // A stage arrived: convert the grant into a charge keyed by
  // (pipeline, iteration, block, field, replica_rank). Replace semantics --
  // an idempotent re-stage of the same key swaps the old charge for the new
  // instead of double-charging. grant_id 0 (un-credited client) admits
  // directly if the budget has room and sheds with Busy otherwise.
  Status consume(std::uint64_t grant_id, const std::string& pipeline,
                 std::uint64_t iteration, std::uint64_t block_id,
                 const std::string& field, std::uint32_t replica_rank,
                 std::uint64_t bytes);

  // Rolls back one consume() (the RDMA pull behind a stage failed after
  // admission, so the bytes never actually landed).
  void uncharge_block(const std::string& pipeline, std::uint64_t iteration,
                      std::uint64_t block_id, const std::string& field,
                      std::uint32_t replica_rank);

  // Frees every charge under (pipeline, iteration): deactivate, or a fresh
  // activation wiping the staging slot. free_pipeline drops all iterations
  // (destroy_pipeline).
  void free_iteration(const std::string& pipeline, std::uint64_t iteration);
  void free_pipeline(const std::string& pipeline);

  // Admin-facing QoS knobs. quota_json() serves the live state; the counts
  // (grants, sheds, staged bytes and their peak) are this flow's metrics.
  void set_weight(const std::string& pipeline, std::uint32_t weight);
  [[nodiscard]] json::Value quota_json() const;

  // Chaos hooks: artificial budget pressure, as if a phantom tenant charged
  // `bytes` (overload injection; see chaos::RuleKind::shed).
  void inject_pressure(std::uint64_t bytes);
  void release_pressure();

  [[nodiscard]] std::uint64_t in_use_bytes() const noexcept { return in_use_; }
  // Read from this flow's metrics scope.
  [[nodiscard]] std::uint64_t staged_bytes() const {
    return staged_bytes_.read().value;
  }
  [[nodiscard]] std::uint64_t peak_staged_bytes() const {
    return staged_bytes_.read().peak;
  }
  [[nodiscard]] std::uint64_t grants_total() const {
    return grant_count_.read().value;
  }
  [[nodiscard]] std::uint64_t sheds_total() const {
    return shed_count_.read().value;
  }
  // The metrics scope this flow records its flow.* counts into.
  [[nodiscard]] obs::ScopeId metrics_scope() const noexcept { return scope_; }

 private:
  struct Waiter {
    Waiter(des::Simulation& sim, std::string p, std::uint64_t b)
        : outcome(sim), pipeline(std::move(p)), bytes(b) {}
    des::Eventual<AcquireResult> outcome;
    std::string pipeline;
    std::uint64_t bytes;
    bool canceled = false;
  };
  using BlockKey = std::tuple<std::uint64_t, std::string, std::uint32_t>;
  // One iteration's charged bytes per staged block.
  using ChargeMap = std::map<BlockKey, std::uint64_t>;

  [[nodiscard]] bool fits(std::uint64_t bytes) const noexcept {
    return in_use_ + bytes <= config_.budget_bytes;
  }
  [[nodiscard]] std::uint64_t drain_ns(std::uint64_t bytes) const noexcept;
  [[nodiscard]] std::uint64_t shed_hint_us(std::uint64_t bytes) const noexcept;
  std::uint64_t grant(const std::string& pipeline, std::uint64_t bytes);
  void on_lease_expired(std::uint64_t grant_id);
  // Hand out credits to queued waiters in DRR order while the budget fits.
  void pump();

  struct Grant {
    std::string pipeline;
    std::uint64_t bytes;
  };

  des::Simulation* sim_;
  net::ProcId self_;
  FlowConfig config_;
  std::uint64_t in_use_ = 0;   // grants + charges + injected pressure
  std::uint64_t pressure_ = 0;
  std::uint64_t next_grant_id_ = 1;
  obs::ScopeId scope_ = obs::MetricsRegistry::global().new_scope();
  obs::Handle<obs::Counter> grant_count_{"flow.grants", scope_};
  obs::Handle<obs::Counter> shed_count_{"flow.sheds", scope_};
  obs::Handle<obs::Counter> grants_queued_{"flow.grants_queued", scope_};
  obs::Handle<obs::Counter> lease_expired_{"flow.lease_expired", scope_};
  obs::Handle<obs::Counter> pressure_injected_{"flow.pressure_injected",
                                               scope_};
  // Charges only (real staged bytes), with their high-water mark.
  obs::Handle<obs::Watermark> staged_bytes_{"flow.staged_bytes", scope_};
  std::map<std::uint64_t, Grant> grants_;
  std::map<std::string, std::map<std::uint64_t, ChargeMap>> charged_;
  std::map<std::string, std::uint32_t> weights_;  // admin-set, for quota_json
  DrrQueue<std::shared_ptr<Waiter>> queue_;
};

// Process-global lookup from (simulation, server proc) to its ServerFlow,
// so the chaos layer can aim overload injection at a server without the
// net layer knowing flow control exists. ServerFlow registers itself.
class Registry {
 public:
  static ServerFlow* find(des::Simulation* sim, net::ProcId id);

 private:
  friend class ServerFlow;
  static void add(des::Simulation* sim, net::ProcId id, ServerFlow* flow);
  static void remove(des::Simulation* sim, net::ProcId id);
};

}  // namespace colza::flow
