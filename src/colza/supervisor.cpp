#include "colza/supervisor.hpp"

#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza {

namespace {
// Derives a per-node backoff seed so the respawn jitter of different nodes
// is decorrelated but still a pure function of the supervisor seed.
std::uint64_t node_seed(std::uint64_t seed, net::NodeId node) {
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(node) *
                            0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return z ^ (z >> 31);
}

// report_bad_bytes routing (see the header): the supervisor of each
// simulation, registered while running. Same shape as flow::Registry.
std::map<des::Simulation*, Supervisor*>& integrity_registry() {
  static std::map<des::Simulation*, Supervisor*> instance;
  return instance;
}
}  // namespace

Supervisor::Supervisor(des::Simulation& sim, StagingArea& area,
                       SupervisorConfig config)
    : sim_(&sim), area_(&area), config_(config) {}

Supervisor::~Supervisor() { stop(); }

void Supervisor::start() {
  if (running_) return;
  running_ = true;
  integrity_registry()[sim_] = this;
  for (const auto& s : area_->servers()) {
    node_of_[s->address()] = s->process().node();
    if (s->alive()) watch(*s);
  }
  // Catch up on deaths declared before we attached: every survivor's group
  // records them (ssg::Group::dead_members), and handle_death dedupes.
  std::vector<net::ProcId> pending;
  for (const auto& s : area_->servers()) {
    if (!s->alive()) continue;
    for (net::ProcId p : s->group().dead_members()) pending.push_back(p);
  }
  for (net::ProcId p : pending) handle_death(p);
}

void Supervisor::stop() {
  if (!running_) return;
  running_ = false;
  if (auto it = integrity_registry().find(sim_);
      it != integrity_registry().end() && it->second == this) {
    integrity_registry().erase(it);
  }
  for (auto& [group, id] : subscriptions_) group->remove_observer(id);
  subscriptions_.clear();
}

void Supervisor::report_bad_bytes(des::Simulation& sim, net::ProcId offender) {
  // The report itself is always counted, supervisor or not: tests and
  // dashboards can see detection working even in unsupervised runs.
  obs::MetricsRegistry::global().counter("integrity.bad_bytes_reports").inc();
  auto it = integrity_registry().find(&sim);
  if (it == integrity_registry().end()) return;
  Supervisor* self = it->second;
  const auto nit = self->node_of_.find(offender);
  if (nit == self->node_of_.end()) return;  // not a daemon we manage
  const net::NodeId node = nit->second;
  ++self->stats_.integrity_strikes;
  obs::MetricsRegistry::global().counter("supervisor.integrity_strikes").inc();
  if (self->quarantined_.count(node) != 0) return;
  if (++self->integrity_strikes_[node] >=
      self->config_.integrity_strike_threshold) {
    self->quarantined_.insert(node);
    ++self->stats_.nodes_quarantined;
    ++self->stats_.integrity_quarantines;
    obs::MetricsRegistry::global()
        .counter("supervisor.nodes_quarantined")
        .inc();
    obs::Tracer::global().instant(
        "supervisor.integrity_quarantine", "supervisor",
        "\"node\":" + std::to_string(node) + ",\"strikes\":" +
            std::to_string(self->integrity_strikes_[node]));
    COLZA_LOG_WARN("colza-sup",
                   "node %llu quarantined after %d bad-bytes reports",
                   static_cast<unsigned long long>(node),
                   self->integrity_strikes_[node]);
  }
}

void Supervisor::watch(Server& server) {
  node_of_[server.address()] = server.process().node();
  const std::uint64_t id =
      server.group().on_change([this, srv = &server](net::ProcId p,
                                                     ssg::MemberEvent e) {
        // A dead daemon's group keeps probing into the void and declares
        // every peer dead from its isolated vantage point; only the
        // observations of live members may drive respawns.
        if (!srv->alive()) return;
        switch (e) {
          case ssg::MemberEvent::died:
            handle_death(p);
            break;
          case ssg::MemberEvent::joined:
            handle_join(p);
            break;
          case ssg::MemberEvent::left:
            break;  // planned resize: its driver handles the consequences
        }
      });
  subscriptions_.emplace_back(&server.group(), id);
}

void Supervisor::handle_join(net::ProcId joined) {
  if (!running_) return;
  if (!handled_joins_.insert(joined).second) return;
  if (scaler_ != nullptr) scaler_->notify_membership_change();
}

void Supervisor::handle_death(net::ProcId dead) {
  if (!running_) return;
  if (!handled_deaths_.insert(dead).second) return;  // already being handled
  ++stats_.deaths_seen;
  obs::MetricsRegistry::global().counter("supervisor.deaths_seen").inc();
  obs::Tracer::global().instant(
      "supervisor.death", "supervisor",
      "\"member\":" + std::to_string(dead));
  if (scaler_ != nullptr) scaler_->notify_membership_change();

  const auto nit = node_of_.find(dead);
  if (nit == node_of_.end()) {
    COLZA_LOG_WARN("colza-sup", "death of unknown member %llu: cannot respawn",
                   static_cast<unsigned long long>(dead));
    return;
  }
  const net::NodeId node = nit->second;

  if (quarantined_.count(node) != 0) return;

  // Flap detection: a death shortly after this node's last respawn join
  // means the replacement itself is dying -- do not feed the loop forever.
  const auto jit = last_join_at_.find(node);
  if (jit != last_join_at_.end() &&
      sim_->now() - jit->second <= config_.flap_window) {
    ++stats_.flaps;
    obs::MetricsRegistry::global().counter("supervisor.flaps").inc();
    if (++strikes_[node] >= config_.flap_threshold) {
      quarantined_.insert(node);
      ++stats_.nodes_quarantined;
      obs::MetricsRegistry::global()
          .counter("supervisor.nodes_quarantined")
          .inc();
      obs::Tracer::global().instant(
          "supervisor.quarantine", "supervisor",
          "\"node\":" + std::to_string(node) +
              ",\"strikes\":" + std::to_string(strikes_[node]));
      COLZA_LOG_WARN("colza-sup", "node %llu quarantined after %d flaps",
                     static_cast<unsigned long long>(node), strikes_[node]);
      return;
    }
  } else {
    strikes_[node] = 0;
  }

  if (stats_.respawns_started >= config_.restart_budget) {
    ++stats_.budget_exhausted;
    obs::MetricsRegistry::global()
        .counter("supervisor.budget_exhausted")
        .inc();
    obs::Tracer::global().instant("supervisor.budget_exhausted", "supervisor",
                                  "\"node\":" + std::to_string(node));
    return;
  }
  schedule_respawn(node);
}

Backoff& Supervisor::node_backoff(net::NodeId node) {
  auto it = backoffs_.find(node);
  if (it == backoffs_.end()) {
    BackoffPolicy policy = config_.backoff;
    policy.seed = node_seed(config_.seed, node);
    it = backoffs_.emplace(node, Backoff(policy)).first;
  }
  return it->second;
}

void Supervisor::schedule_respawn(net::NodeId node) {
  ++stats_.respawns_started;
  const des::Duration delay = node_backoff(node).next();
  obs::MetricsRegistry::global().counter("supervisor.respawns_started").inc();
  // Decision audit log entry: which node, and how long the backoff holds
  // the replacement back.
  obs::Tracer::global().instant(
      "supervisor.respawn_scheduled", "supervisor",
      "\"node\":" + std::to_string(node) +
          ",\"delay_us\":" + std::to_string(delay / 1000));
  sim_->schedule_after(delay, [this, node] {
    if (!running_) return;
    area_->launch_one(node, [this, node](Server& replacement) {
      if (!running_) return;
      last_join_at_[node] = sim_->now();
      node_backoff(node).reset();
      ++stats_.respawns_joined;
      obs::MetricsRegistry::global()
          .counter("supervisor.respawns_joined")
          .inc();
      obs::Tracer::global().instant(
          "supervisor.respawn_joined", "supervisor",
          "\"node\":" + std::to_string(node) +
              ",\"member\":" + std::to_string(replacement.address()));
      if (on_respawn_) on_respawn_(replacement);
      watch(replacement);
    });
  });
}

}  // namespace colza
