// The Colza server daemon: one per staging-area process. Hosts a provider
// that manages pipelines, participates in SSG group membership, answers the
// client protocol (get_view / prepare / commit / abort / stage / execute /
// deactivate) and the admin protocol (create_pipeline / destroy_pipeline /
// leave / shutdown).
//
// Consistency (paper S II-E): SSG is only eventually consistent, so clients
// and servers run a two-phase commit at activate() time. prepare() carries
// the client's view hash; a server votes yes only if its own SSG view hash
// matches. commit() freezes the membership -- SSG keeps gossiping underneath,
// but the *service view* (and the MoNA communicator handed to pipelines) only
// changes between iterations. Graceful leaves requested while frozen are
// deferred until the last active iteration deactivates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "colza/backend.hpp"
#include "common/integrity.hpp"
#include "flow/flow.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "rpc/engine.hpp"
#include "ssg/ssg.hpp"
#include "viewer/viewer.hpp"

namespace colza {

struct ServerConfig {
  ssg::SwimConfig swim;
  net::Profile profile = net::Profile::mona();
  des::Duration rpc_timeout = des::seconds(5);
  // Modeled one-time daemon initialization cost (library loading, Mercury
  // init...) charged before the server becomes reachable.
  des::Duration init_cost = des::milliseconds(800);
  // Flow control / multi-tenant QoS (docs/flow.md). The default budget of 0
  // keeps admission wide open, byte-for-byte identical to a pre-flow server.
  flow::FlowConfig flow;
  // Background integrity scrubber cadence: how long the scrub daemon sleeps
  // between passes over everything staged on this server (backend slots and
  // buddy replicas). Each pass re-verifies stage-time CRCs and repairs
  // divergent copies from buddies. 0 disables the scrubber; detection then
  // rests entirely on the execute-time verify.
  des::Duration scrub_interval = des::seconds(2);
  // Viewer delivery tier (docs/viewer.md): every server hosts one; it is
  // inert (two parked daemon fibers) until an observer connects. Rendered
  // frames are published to it after each successful execute.
  viewer::ViewerConfig viewer;
};

class Server {
 public:
  // Founding construction: all initial servers are created with the same
  // member list. Must run inside a fiber of `proc` (use spawn_founding).
  Server(net::Process& proc, ServerConfig config,
         std::vector<net::ProcId> initial_group, ssg::Bootstrap* bootstrap);

  // Elastic join (paper S II-F a): reads contacts from the bootstrap
  // "connection file" and joins the running group. Must run inside a fiber.
  static Expected<std::unique_ptr<Server>> join(net::Process& proc,
                                                ServerConfig config,
                                                ssg::Bootstrap* bootstrap);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] net::ProcId address() const noexcept {
    return proc_->id();
  }
  [[nodiscard]] net::Process& process() noexcept { return *proc_; }
  [[nodiscard]] ssg::Group& group() noexcept { return *group_; }
  [[nodiscard]] rpc::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] bool alive() const noexcept {
    return !left_ && proc_->alive();
  }

  // Local pipeline management (also reachable via the admin RPCs).
  Status create_pipeline(const std::string& name, const std::string& type,
                         const std::string& json_config);
  Status destroy_pipeline(const std::string& name);
  [[nodiscard]] Backend* pipeline(const std::string& name);

  // The last committed (frozen) service view.
  [[nodiscard]] const std::vector<net::ProcId>& service_view() const noexcept {
    return service_view_;
  }

  // Number of iterations currently active (committed but not deactivated)
  // on this server. Exposed for the invariant harness: when every client
  // iteration has completed, this must be zero on every survivor.
  [[nodiscard]] int active_iterations() const noexcept {
    return static_cast<int>(active_set_.size());
  }

  // Buddy replicas currently held for (pipeline, iteration) in the
  // server-level replica store (test/diagnostic accessor; backends never
  // see replicas unless they are promoted).
  [[nodiscard]] std::size_t replica_count(const std::string& pipeline,
                                          std::uint64_t iteration) const;

  // Flow-control state (budget, grant queue, weights). Always present;
  // inert when the configured budget is 0.
  [[nodiscard]] flow::ServerFlow& flow() noexcept { return *flow_; }
  [[nodiscard]] const flow::ServerFlow& flow() const noexcept {
    return *flow_;
  }

  // The metrics scope this daemon records its integrity.* and colza.server.*
  // counts into. colza.admin.metrics serves it with the flow's and the viewer
  // tier's scopes.
  [[nodiscard]] obs::ScopeId metrics_scope() const noexcept { return scope_; }

  // The co-hosted viewer delivery tier (sessions, frame cache, steering).
  [[nodiscard]] viewer::ViewerTier& viewer() noexcept { return *viewer_; }

  // Leaves the group and stops serving (deferred while iterations are
  // active). The underlying simulated process is killed once out.
  void leave();

 private:
  Server(net::Process& proc, ServerConfig config, ssg::Bootstrap* bootstrap);

  void install_handlers();
  void commit_view();  // adopt the current SSG view as the service view
  // 2PC-commit variant: adopts the view *and* rebuilds the service
  // communicator under the client-chosen activation epoch, even when the
  // membership did not change. Each activation attempt thus collects its
  // collectives in a fresh tag space; stragglers from an earlier attempt
  // (a retried execute whose peers are still blocked mid-collective) can
  // never pair with the new attempt's operations.
  void commit_view(std::uint64_t epoch);
  void finish_leave();

  struct PipelineEntry {
    std::string type;
    // Shared, not unique: a handler holds its backend until it returns, so a
    // destroy_pipeline that lands while the handler blocks (an RDMA pull, a
    // repair RPC, a collective) takes effect for later requests only. The
    // viewer tier's producer holds a weak_ptr: a render already popped off
    // the tier's queue when destroy_pipeline runs serves an empty image.
    std::shared_ptr<Backend> backend;
  };
  [[nodiscard]] std::shared_ptr<Backend> backend(const std::string& name) const;

  // A buddy copy of a staged block (replica_rank > 0). Replicas live at the
  // server level -- backends stay replica-agnostic -- keyed by pipeline,
  // iteration, then (block_id, field). The recorded copyset lets every
  // member of a recovery view decide locally, and identically, who promotes
  // the block: the first copyset member still in the frozen service view.
  struct ReplicaBlock {
    std::vector<net::ProcId> copyset;
    net::ProcId sender = net::kInvalidProc;
    common::Bytes data;
    std::uint32_t checksum = 0;  // stage-time CRC32C of `data`
  };
  using ReplicaKey = std::pair<std::uint64_t, std::string>;
  using ReplicaMap = std::map<ReplicaKey, ReplicaBlock>;

  // Feeds every replica this server must promote (first live copyset member
  // == self) for `iteration` into the backend's staging slot. Idempotent:
  // backend staging is keyed, so re-promotion on an execute retry replaces
  // the same block.
  void promote_replicas(const std::string& name, Backend* backend,
                        std::uint64_t iteration);

  // ---- integrity (docs/PROTOCOL.md, integrity section) --------------------
  // Scans the backend's stored blocks for `iteration` and repairs every
  // block whose bytes no longer hash to their stage-time CRC by fetching a
  // buddy's copy (colza.fetch_block), verifying it locally, and re-staging
  // it. Returns Corrupt (detail = block_id + 1) when some block has no
  // intact copy anywhere in its copyset -- the caller then falls back to a
  // client-driven targeted re-stage.
  Status verify_and_repair(const std::string& name, Backend* backend,
                           std::uint64_t iteration);
  // One repair attempt for a single invalid block; true when an intact copy
  // was verified and staged back.
  bool repair_block(const std::string& name, Backend* backend,
                    std::uint64_t iteration, const Backend::BlockInfo& info);
  // Walks `copyset` (skipping self), fetching each member's copy of a block
  // over colza.fetch_block and verifying it here: a copy that fails its own
  // CRC strikes its server, one whose CRC is not `want` is another
  // generation. Each intact copy goes to `take`, which returns true to stop
  // the walk; the result is whether one did.
  bool fetch_from_buddies(
      const std::string& name, std::uint64_t iteration, std::uint64_t block_id,
      const std::string& field, const std::vector<net::ProcId>& copyset,
      std::uint32_t want,
      const std::function<bool(net::ProcId, common::Bytes&)>& take);
  void count_repair(std::uint64_t bytes);
  // One scrubber sweep over everything staged here: backend slots (via
  // verify_and_repair) and the buddy-replica store (repaired in place by
  // fetching from other copyset members).
  void scrub_pass();
  // The chaos hook (common::integrity::Registry): rots one stored payload
  // picked deterministically by `pick` among everything staged on this
  // server. When nothing is staged at fire time the corruption is deferred
  // to the next payload this server stores (rot on write) -- staged windows
  // last milliseconds, so an instant-only rule would almost always miss.
  // Checksums are left untouched -- that is the point.
  common::integrity::CorruptResult corrupt_storage(
      common::integrity::CorruptMode mode, std::uint64_t pick);
  // Applies (and consumes) the oldest deferred corruption, if any, to a
  // payload that was just stored and verified.
  void apply_pending_corrupt(common::Bytes& data);

  net::Process* proc_;
  ServerConfig config_;
  ssg::Bootstrap* bootstrap_;
  std::unique_ptr<rpc::Engine> engine_;
  std::unique_ptr<mona::Instance> mona_;
  std::unique_ptr<flow::ServerFlow> flow_;
  std::unique_ptr<viewer::ViewerTier> viewer_;
  std::unique_ptr<ssg::Group> group_;
  std::map<std::string, PipelineEntry> pipelines_;

  std::vector<net::ProcId> service_view_;
  std::uint64_t service_view_hash_ = 0;
  std::shared_ptr<mona::Communicator> service_comm_;

  // 2PC / freeze state. Active iterations are tracked as a set of ids so
  // commit and deactivate are idempotent: a client that re-commits an
  // iteration after losing the first commit's response must not leave the
  // membership frozen forever.
  bool prepared_ = false;
  std::uint64_t prepared_iteration_ = 0;
  std::set<std::uint64_t> active_set_;
  // Last committed activation epoch per iteration (see the commit handler's
  // epoch fence).
  std::map<std::uint64_t, std::uint64_t> committed_epoch_;
  // pipeline -> iteration -> replicas (see ReplicaBlock).
  std::map<std::string, std::map<std::uint64_t, ReplicaMap>> replicas_;
  // This daemon's counts (docs/observability.md): blocks checked at stage,
  // execute and scrub time, checks that failed, blocks restored from a buddy
  // copy and the bytes fetched for them, blocks with no intact copy left,
  // completed scrubber sweeps, and the bytes its stage pulls landed.
  obs::ScopeId scope_ = obs::MetricsRegistry::global().new_scope();
  obs::Handle<obs::Counter> verifies_{"integrity.verify", scope_};
  obs::Handle<obs::Counter> mismatches_{"integrity.mismatch", scope_};
  obs::Handle<obs::Counter> repairs_{"integrity.repair", scope_};
  obs::Handle<obs::Counter> repair_bytes_{"integrity.repair_bytes", scope_};
  obs::Handle<obs::Counter> restage_fallbacks_{"integrity.restage_fallback",
                                               scope_};
  obs::Handle<obs::Counter> scrubs_{"integrity.scrub", scope_};
  obs::Handle<obs::Counter> bytes_pulled_{"colza.server.bytes_pulled",
                                          scope_};
  obs::Handle<obs::Counter> replica_bytes_pulled_{
      "colza.server.replica_bytes_pulled", scope_};
  // Corruptions injected while nothing was staged, waiting for the next
  // stored payload (FIFO).
  std::vector<std::pair<common::integrity::CorruptMode, std::uint64_t>>
      pending_corrupts_;
  bool leave_pending_ = false;
  bool left_ = false;
};

}  // namespace colza
