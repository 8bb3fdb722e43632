// Supervisor: the control-plane actor that turns *unplanned* server crashes
// into the paper's *planned* resize path (S II-F), closing the loop the
// client-side retry machinery cannot: nothing in the client ever replaces a
// dead daemon, so repeated crashes bleed staging capacity until the run
// starves.
//
// The supervisor subscribes to SWIM death notifications on every daemon of a
// StagingArea (and on every replacement it launches). When a member is
// declared dead it drives StagingArea::launch_one to respawn a daemon on the
// dead member's node, under:
//   * a restart budget  -- a global cap on respawns, so a poisoned cluster
//     cannot loop forever;
//   * per-node jittered exponential backoff -- respawn storms after
//     correlated failures are spread out, and repeatedly dying nodes are
//     retried ever more slowly;
//   * flap detection -- a replacement that dies within flap_window of
//     joining earns the node a strike; flap_threshold consecutive strikes
//     quarantine the node (no further respawns there).
//
// It also feeds membership-change events (death and respawn-join) into an
// AutoScaler, so a crash-induced execute spike does not double-trigger
// scaling (the scaler holds during recovery).
//
// State machine per death, deduplicated across the observing groups:
//   died -> (budget? flap? quarantined?) -> backoff delay -> srun launch
//   (StagingArea::launch_one models the latency) -> SSG join -> on_respawn
//   callback installs pipelines -> replacement is watched like any founder.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "colza/autoscale.hpp"
#include "colza/deploy.hpp"
#include "common/backoff.hpp"

namespace colza {

struct SupervisorConfig {
  // Total respawns this supervisor may start over its lifetime.
  int restart_budget = 32;
  // Per-node delay schedule between a death and the respawn launch.
  BackoffPolicy backoff{.base = des::milliseconds(500),
                        .multiplier = 2.0,
                        .cap = des::seconds(20),
                        .jitter = 0.25};
  // A replacement dying within flap_window of its join earns its node a
  // strike; flap_threshold consecutive strikes quarantine the node.
  des::Duration flap_window = des::seconds(30);
  int flap_threshold = 3;
  // A server caught returning bytes that fail checksum verification (its
  // own scrubber finding local rot, or a peer verifying a repair fetch)
  // earns a strike; this many strikes quarantine its node, exactly like a
  // flapping node: memory that silently corrupts data is as unfit to host a
  // daemon as a node whose daemons keep dying.
  int integrity_strike_threshold = 3;
  std::uint64_t seed = 0x5eed;
};

struct SupervisorStats {
  int deaths_seen = 0;        // unique member deaths observed
  int respawns_started = 0;   // launches driven (after backoff)
  int respawns_joined = 0;    // replacements that completed their SSG join
  int flaps = 0;              // deaths within flap_window of a join
  int nodes_quarantined = 0;
  int budget_exhausted = 0;   // deaths not respawned for lack of budget
  int integrity_strikes = 0;      // bad-bytes reports attributed to a node
  int integrity_quarantines = 0;  // nodes quarantined for repeated bad bytes
};

class Supervisor {
 public:
  Supervisor(des::Simulation& sim, StagingArea& area,
             SupervisorConfig config = {});
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Callback invoked on each joined replacement, from the daemon's own
  // fiber, before it is watched: install pipelines here (the supervisor's
  // equivalent of the admin's create_pipeline step on elastic joins).
  void on_respawn(std::function<void(Server&)> cb) {
    on_respawn_ = std::move(cb);
  }

  // Optional: membership changes (deaths, respawn joins) put this scaler
  // into its post-resize cooldown.
  void set_autoscaler(AutoScaler* scaler) { scaler_ = scaler; }

  // Subscribes to every current daemon's group and sweeps deaths declared
  // before the supervisor existed (ssg::Group::dead_members).
  void start();
  // Detaches from all groups; in-flight respawn timers become no-ops.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] const SupervisorStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] bool quarantined(net::NodeId node) const {
    return quarantined_.count(node) != 0;
  }

  // Data-plane integrity feedback: a server (or a peer verifying a fetch
  // from it) caught `offender` holding bytes that fail their checksum.
  // Routed through a per-simulation static registry -- mirroring
  // flow::Registry -- because the reporter (the server daemon) sits below
  // the supervisor in the dependency order and holds no pointer to it.
  // No-op when no supervisor is running for `sim`; repeated strikes
  // quarantine the offender's node (no kill: detection and repair already
  // contained the damage, quarantine only stops re-homing daemons there).
  static void report_bad_bytes(des::Simulation& sim, net::ProcId offender);

 private:
  void watch(Server& server);
  void handle_death(net::ProcId dead);
  void handle_join(net::ProcId joined);
  void schedule_respawn(net::NodeId node);
  Backoff& node_backoff(net::NodeId node);

  des::Simulation* sim_;
  StagingArea* area_;
  SupervisorConfig config_;
  SupervisorStats stats_;
  std::function<void(Server&)> on_respawn_;
  AutoScaler* scaler_ = nullptr;
  bool running_ = false;

  // (group, observer-id) pairs for detach.
  std::vector<std::pair<ssg::Group*, std::uint64_t>> subscriptions_;
  // Every observing group reports the same death/join: dedupe by ProcId
  // (ids are never reused, so the sets only grow).
  std::set<net::ProcId> handled_deaths_;
  std::set<net::ProcId> handled_joins_;
  std::map<net::ProcId, net::NodeId> node_of_;

  std::map<net::NodeId, Backoff> backoffs_;
  std::map<net::NodeId, des::Time> last_join_at_;
  std::map<net::NodeId, int> strikes_;
  std::map<net::NodeId, int> integrity_strikes_;
  std::set<net::NodeId> quarantined_;
};

}  // namespace colza
