#include "ssg/ssg.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "des/sync.hpp"

namespace colza::ssg {

namespace {

std::uint64_t hash_view(const std::vector<net::ProcId>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (net::ProcId p : v) {
    for (int i = 0; i < 4; ++i) {
      h ^= (p >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

std::string to_string(MemberEvent e) {
  switch (e) {
    case MemberEvent::joined: return "joined";
    case MemberEvent::left: return "left";
    case MemberEvent::died: return "died";
  }
  return "?";
}

Group::Group(rpc::Engine& engine, SwimConfig config, Bootstrap* bootstrap)
    : engine_(&engine),
      config_(config),
      bootstrap_(bootstrap),
      rng_(engine.sim().rng().fork()) {}

Group::Group(rpc::Engine& engine, SwimConfig config,
             std::vector<net::ProcId> initial_members, Bootstrap* bootstrap)
    : Group(engine, config, bootstrap) {
  for (net::ProcId p : initial_members) {
    if (p != self()) members_.emplace(p, MemberInfo{});
  }
  install_handlers();
  start();
  publish_bootstrap();
}

// ----------------------------------------------------------------- view

std::vector<net::ProcId> Group::view() const {
  std::vector<net::ProcId> v;
  v.push_back(self());
  for (const auto& [p, info] : members_) {
    if (info.state != State::dead) v.push_back(p);
  }
  std::sort(v.begin(), v.end());
  return v;
}

std::uint64_t Group::view_hash() const { return hash_view(view()); }

std::size_t Group::size() const { return view().size(); }

bool Group::contains(net::ProcId p) const {
  if (p == self()) return !stopped_;
  auto it = members_.find(p);
  return it != members_.end() && it->second.state != State::dead;
}

std::uint64_t Group::on_change(MembershipCallback cb) {
  const std::uint64_t id = next_observer_++;
  observers_.emplace(id, std::move(cb));
  return id;
}

void Group::remove_observer(std::uint64_t id) { observers_.erase(id); }

void Group::notify(net::ProcId p, MemberEvent e) {
  // Copy: a callback may add/remove observers.
  auto observers = observers_;
  for (auto& [id, cb] : observers) cb(p, e);
}

void Group::publish_bootstrap() {
  // A crashed daemon's group keeps running in the simulation and, unable to
  // reach anyone, evicts every peer from its local view; publishing that
  // view would poison the contact list for future joiners.
  if (bootstrap_ != nullptr && !stopped_ && engine_->process().alive()) {
    bootstrap_->publish(view());
  }
}

// ------------------------------------------------------------ dissemination

int Group::retransmit_budget() const {
  const double n = std::max<double>(2.0, static_cast<double>(members_.size()) + 1);
  return config_.retransmit_factor *
         static_cast<int>(std::ceil(std::log2(n)));
}

void Group::queue_update(const Update& u) {
  // Key by subject: a newer update about a member supersedes the older one.
  for (auto it = pending_updates_.begin(); it != pending_updates_.end();) {
    if (it->second.first.subject == u.subject) {
      it = pending_updates_.erase(it);
    } else {
      ++it;
    }
  }
  pending_updates_.emplace(next_update_key_++,
                           std::make_pair(u, retransmit_budget()));
}

std::vector<Group::Update> Group::drain_piggyback() {
  std::vector<Update> out;
  for (auto it = pending_updates_.begin(); it != pending_updates_.end();) {
    out.push_back(it->second.first);
    if (--it->second.second <= 0) {
      it = pending_updates_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void Group::apply_updates(const std::vector<Update>& updates) {
  for (const Update& u : updates) apply_update(u);
}

void Group::apply_update(const Update& u) {
  if (stopped_) return;
  if (u.subject == self()) {
    if (u.kind == UpdateKind::dead) {
      // The group declared us dead. Everyone who heard the update has
      // tombstoned our id, so no incarnation bump can ever rejoin us:
      // refutation only works against *suspicion*. Accept the eviction and
      // go inert; the owner's on_self_evicted hook decides what dying means
      // (Colza kills the server process so post-partition views converge).
      evicted_ = true;
      stopped_ = true;
      if (evicted_cb_) evicted_cb_();
      return;
    }
    if (u.kind == UpdateKind::suspect) {
      // Refutation: bump our incarnation past the accusation and gossip it.
      if (u.incarnation >= self_incarnation_) {
        self_incarnation_ = u.incarnation + 1;
        queue_update(Update{self(), UpdateKind::alive, self_incarnation_});
      }
    }
    return;
  }

  if (tombstones_.count(u.subject) != 0) return;  // no resurrection

  auto it = members_.find(u.subject);
  switch (u.kind) {
    case UpdateKind::joined:
    case UpdateKind::alive: {
      if (it == members_.end()) {
        members_.emplace(u.subject,
                         MemberInfo{State::alive, u.incarnation, 0});
        queue_update(u);
        notify(u.subject, MemberEvent::joined);
        publish_bootstrap();
      } else if (u.incarnation > it->second.incarnation) {
        const bool was_suspect = it->second.state == State::suspect;
        it->second.incarnation = u.incarnation;
        it->second.state = State::alive;
        if (was_suspect) queue_update(u);
      }
      break;
    }
    case UpdateKind::suspect: {
      if (it == members_.end()) {
        // Learned about a member through a suspicion; track it as suspect.
        members_.emplace(u.subject,
                         MemberInfo{State::suspect, u.incarnation,
                                    engine_->sim().now()});
        queue_update(u);
        notify(u.subject, MemberEvent::joined);
        schedule_suspicion_check();
      } else if (it->second.state == State::alive &&
                 u.incarnation >= it->second.incarnation) {
        mark_suspect(u.subject, u.incarnation);
      } else if (it->second.state == State::suspect &&
                 u.incarnation > it->second.incarnation) {
        it->second.incarnation = u.incarnation;
      }
      break;
    }
    case UpdateKind::dead:
    case UpdateKind::left: {
      if (it != members_.end() && it->second.state != State::dead) {
        declare_dead(u.subject, u.kind == UpdateKind::left);
      }
      break;
    }
  }
}

void Group::mark_suspect(net::ProcId p, std::uint64_t incarnation) {
  auto it = members_.find(p);
  if (it == members_.end() || it->second.state != State::alive) return;
  it->second.state = State::suspect;
  it->second.incarnation = incarnation;
  it->second.suspected_at = engine_->sim().now();
  queue_update(Update{p, UpdateKind::suspect, incarnation});
  schedule_suspicion_check();
}

void Group::schedule_suspicion_check() {
  auto& sim = engine_->sim();
  sim.schedule_after(config_.suspicion_timeout + des::milliseconds(1),
                     [this] { check_suspicions(); }, /*daemon=*/true);
}

void Group::check_suspicions() {
  if (stopped_) return;
  const des::Time now = engine_->sim().now();
  std::vector<net::ProcId> expired;
  for (const auto& [p, info] : members_) {
    if (info.state == State::suspect &&
        now - info.suspected_at >= config_.suspicion_timeout)
      expired.push_back(p);
  }
  for (net::ProcId p : expired) declare_dead(p, /*left=*/false);
}

void Group::declare_dead(net::ProcId p, bool left) {
  auto it = members_.find(p);
  if (it == members_.end()) return;
  COLZA_LOG_DEBUG("ssg", "%llu declares %llu %s",
                  static_cast<unsigned long long>(self()),
                  static_cast<unsigned long long>(p), left ? "left" : "dead");
  const std::uint64_t inc = it->second.incarnation;
  members_.erase(it);
  tombstones_.insert(p);
  if (!left) dead_members_.push_back(p);
  queue_update(Update{p, left ? UpdateKind::left : UpdateKind::dead, inc});
  notify(p, left ? MemberEvent::left : MemberEvent::died);
  publish_bootstrap();
}

// ----------------------------------------------------------------- probing

net::ProcId Group::next_probe_target() {
  // Randomized round-robin (the SWIM fairness refinement): shuffle the
  // member list and walk it; reshuffle when exhausted or membership changed.
  std::vector<net::ProcId> current;
  for (const auto& [p, info] : members_) {
    if (info.state != State::dead) current.push_back(p);
  }
  if (current.empty()) return net::kInvalidProc;
  if (probe_cursor_ >= probe_order_.size() ||
      probe_order_.size() != current.size()) {
    probe_order_ = current;
    for (std::size_t i = probe_order_.size(); i > 1; --i) {
      std::swap(probe_order_[i - 1], probe_order_[rng_.below(i)]);
    }
    probe_cursor_ = 0;
  }
  return probe_order_[probe_cursor_++];
}

void Group::probe_loop() {
  while (true) {
    engine_->sim().sleep_for(config_.probe_period);
    if (stopped_) return;
    const net::ProcId target = next_probe_target();
    if (target == net::kInvalidProc) continue;
    probe_one(target);
  }
}

void Group::probe_one(net::ProcId target) {
  auto piggyback = drain_piggyback();
  auto r = engine_->call_timeout<std::vector<Update>>(
      target, "ssg.ping", config_.probe_timeout, piggyback);
  if (stopped_) return;
  if (r.has_value()) {
    apply_updates(*r);
    return;
  }

  // Direct probe failed: try k indirect probes through random proxies.
  std::vector<net::ProcId> proxies;
  for (const auto& [p, info] : members_) {
    if (p != target && info.state == State::alive) proxies.push_back(p);
  }
  for (std::size_t i = proxies.size(); i > 1; --i) {
    std::swap(proxies[i - 1], proxies[rng_.below(i)]);
  }
  if (proxies.size() > static_cast<std::size_t>(config_.indirect_probes))
    proxies.resize(static_cast<std::size_t>(config_.indirect_probes));

  bool reached = false;
  if (!proxies.empty()) {
    auto& sim = engine_->sim();
    auto done = std::make_shared<des::Eventual<bool>>(sim);
    auto remaining = std::make_shared<int>(static_cast<int>(proxies.size()));
    for (net::ProcId proxy : proxies) {
      engine_->process().spawn(
          "ssg-pingreq",
          [this, proxy, target, done, remaining] {
            auto rr = engine_->call_timeout<std::uint8_t>(
                proxy, "ssg.pingreq", config_.indirect_timeout, target,
                drain_piggyback());
            const bool ok = rr.has_value() && *rr != 0;
            if (ok && !done->ready()) done->set_value(true);
            if (--*remaining == 0 && !done->ready()) done->set_value(false);
          },
          des::SpawnOptions{.daemon = true});
    }
    auto* result = done->wait_for(config_.indirect_timeout +
                                  config_.probe_timeout);
    if (stopped_) return;
    reached = result != nullptr && *result;
  }

  if (!reached) {
    auto it = members_.find(target);
    if (it != members_.end() && it->second.state == State::alive)
      mark_suspect(target, it->second.incarnation);
  }
}

void Group::append_eviction_notice(net::ProcId caller,
                                   std::vector<Update>& reply) {
  // A tombstoned member is still talking to us: it was declared dead while
  // unreachable (e.g. on the wrong side of a partition) and the gossiped
  // `dead` update exhausted its retransmission budget before the member
  // could hear it. Without a direct answer the asymmetry is stable -- it
  // keeps us in its view forever while we exclude it -- so tell it
  // explicitly. The notice is constructed on demand rather than taken from
  // the budget-limited piggyback queue.
  if (tombstones_.count(caller) != 0) {
    reply.push_back(Update{caller, UpdateKind::dead, 0});
  }
}

// ---------------------------------------------------------------- handlers

void Group::install_handlers() {
  engine_->define("ssg.ping", [this](const rpc::RequestInfo& info,
                                     InArchive& in, OutArchive& out) {
    std::vector<Update> updates;
    in.load(updates);
    apply_updates(updates);
    // A ping proves its sender is alive and believes itself a member. If we
    // have never heard of it, its join gossip died en route (e.g. the join
    // contact was partitioned away before spreading it): adopt it now.
    // apply_update ignores the self, tombstoned and already-known cases.
    apply_update(Update{info.caller, UpdateKind::joined, 0});
    auto reply = drain_piggyback();
    append_eviction_notice(info.caller, reply);
    out.save(reply);
    return Status::Ok();
  });

  engine_->define("ssg.pingreq", [this](const rpc::RequestInfo&,
                                        InArchive& in, OutArchive& out) {
    net::ProcId target = net::kInvalidProc;
    std::vector<Update> updates;
    in.load(target);
    in.load(updates);
    apply_updates(updates);
    auto r = engine_->call_timeout<std::vector<Update>>(
        target, "ssg.ping", config_.probe_timeout, drain_piggyback());
    if (r.has_value()) apply_updates(*r);
    out.save(static_cast<std::uint8_t>(r.has_value() ? 1 : 0));
    return Status::Ok();
  });

  engine_->define("ssg.join", [this](const rpc::RequestInfo& info, InArchive&,
                                     OutArchive& out) {
    if (stopped_) return Status::ShuttingDown();
    apply_update(Update{info.caller, UpdateKind::joined, 0});
    // Reply with a full view snapshot: self + every non-dead member.
    std::vector<Update> snapshot;
    snapshot.push_back(Update{self(), UpdateKind::alive, self_incarnation_});
    for (const auto& [p, m] : members_) {
      if (m.state == State::dead) continue;
      snapshot.push_back(Update{
          p, m.state == State::suspect ? UpdateKind::suspect : UpdateKind::alive,
          m.incarnation});
    }
    out.save(snapshot);
    return Status::Ok();
  });
}

void Group::start() {
  engine_->process().spawn("ssg-probe", [this] { probe_loop(); },
                           des::SpawnOptions{.daemon = true});
}

Expected<std::unique_ptr<Group>> Group::join(rpc::Engine& engine,
                                             SwimConfig config,
                                             std::vector<net::ProcId> contacts,
                                             Bootstrap* bootstrap) {
  auto group = std::unique_ptr<Group>(new Group(engine, config, bootstrap));
  group->install_handlers();
  for (net::ProcId contact : contacts) {
    if (contact == engine.self()) continue;
    auto r = engine.call_timeout<std::vector<Update>>(
        contact, "ssg.join", config.probe_timeout * 4);
    if (!r.has_value()) continue;
    group->apply_updates(*r);
    group->start();
    group->publish_bootstrap();
    return group;
  }
  return Status::Unreachable("ssg::join: no contact answered");
}

void Group::leave() {
  if (stopped_) return;
  stopped_ = true;
  // Push a `left` update directly to a few members so it enters the gossip
  // stream even though we stop participating right away.
  const Update bye{self(), UpdateKind::left, self_incarnation_};
  std::vector<net::ProcId> alive;
  for (const auto& [p, m] : members_) {
    if (m.state == State::alive) alive.push_back(p);
  }
  for (std::size_t i = alive.size(); i > 1; --i) {
    std::swap(alive[i - 1], alive[rng_.below(i)]);
  }
  const std::size_t fanout = std::min<std::size_t>(3, alive.size());
  for (std::size_t i = 0; i < fanout; ++i) {
    engine_->notify(alive[i], "ssg.ping", std::vector<Update>{bye});
  }
}

}  // namespace colza::ssg
