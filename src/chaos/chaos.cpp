#include "chaos/chaos.hpp"

#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "des/simulation.hpp"
#include "flow/flow.hpp"
#include "viewer/viewer.hpp"

namespace colza::chaos {

namespace {

bool is_message_rule(RuleKind k) noexcept {
  switch (k) {
    case RuleKind::drop:
    case RuleKind::delay:
    case RuleKind::duplicate:
    case RuleKind::reorder:
    case RuleKind::slow_node:
      return true;
    case RuleKind::partition:
    case RuleKind::crash:
    case RuleKind::shed:
    case RuleKind::viewer_churn:
    case RuleKind::corrupt:  // the at==0 in-transit form is special-cased
      return false;          // in evaluate()
  }
  return false;
}

RuleKind kind_from_string(const std::string& s) {
  if (s == "drop") return RuleKind::drop;
  if (s == "delay") return RuleKind::delay;
  if (s == "duplicate") return RuleKind::duplicate;
  if (s == "reorder") return RuleKind::reorder;
  if (s == "slow_node") return RuleKind::slow_node;
  if (s == "partition") return RuleKind::partition;
  if (s == "crash") return RuleKind::crash;
  if (s == "shed") return RuleKind::shed;
  if (s == "corrupt") return RuleKind::corrupt;
  if (s == "viewer_churn") return RuleKind::viewer_churn;
  throw std::runtime_error("chaos: unknown rule kind '" + s + "'");
}

common::integrity::CorruptMode mode_from_string(const std::string& s,
                                                std::size_t rule_index) {
  using common::integrity::CorruptMode;
  if (s == "bit_flip") return CorruptMode::bit_flip;
  if (s == "truncate") return CorruptMode::truncate;
  if (s == "zero") return CorruptMode::zero;
  throw std::runtime_error("chaos: rule " + std::to_string(rule_index) +
                           " has invalid mode '" + s +
                           "' (want bit_flip, truncate or zero)");
}

// A rule's deterministic pick (a corrupt rule's victim, a churn rule's coin
// seed). It comes from the plan seed and the rule index, not the shared
// per-message RNG, so arming order cannot perturb message verdict draws.
std::uint64_t rule_pick(std::uint64_t seed, std::size_t rule) {
  return common::splitmix64(seed ^ common::splitmix64(rule + 1));
}

// Times in the JSON plan are microseconds; the simulation runs nanoseconds.
des::Duration us_field(const json::Value& v, const std::string& key,
                       double dflt_us) {
  return static_cast<des::Duration>(v.number_or(key, dflt_us) * 1000.0);
}

std::vector<net::ProcId> proc_list(const json::Value& v,
                                   const std::string& key) {
  std::vector<net::ProcId> out;
  const json::Value* arr = v.find(key);
  if (arr == nullptr || !arr->is_array()) return out;
  for (const json::Value& e : arr->as_array()) {
    out.push_back(static_cast<net::ProcId>(e.as_number()));
  }
  return out;
}

constexpr const char* kRuleKeys[] = {
    "kind",      "probability", "from",    "to",      "box",
    "after_us",  "before_us",   "delay_us", "jitter_us", "copies",
    "spacing_us", "node",       "factor",  "at_us",   "heal_us",
    "group_a",   "group_b",     "target",  "bytes",   "mode",
};

bool known_rule_key(const std::string& key) {
  for (const char* k : kRuleKeys) {
    if (key == k) return true;
  }
  return false;
}

}  // namespace

std::string_view to_string(RuleKind k) noexcept {
  switch (k) {
    case RuleKind::drop: return "drop";
    case RuleKind::delay: return "delay";
    case RuleKind::duplicate: return "duplicate";
    case RuleKind::reorder: return "reorder";
    case RuleKind::slow_node: return "slow_node";
    case RuleKind::partition: return "partition";
    case RuleKind::crash: return "crash";
    case RuleKind::shed: return "shed";
    case RuleKind::corrupt: return "corrupt";
    case RuleKind::viewer_churn: return "viewer_churn";
  }
  return "?";
}

ChaosPlan ChaosPlan::from_json(std::string_view text) {
  const json::Value root = json::parse(text);
  if (!root.is_object()) {
    throw std::runtime_error("chaos: plan must be a JSON object");
  }
  for (const auto& [key, value] : root.as_object()) {
    if (key != "seed" && key != "rules") {
      throw std::runtime_error("chaos: unknown plan key '" + key + "'");
    }
  }
  ChaosPlan plan;
  plan.seed = static_cast<std::uint64_t>(root.number_or("seed", 1.0));
  const json::Value* rules = root.find("rules");
  if (rules == nullptr) return plan;
  for (const json::Value& rv : rules->as_array()) {
    const std::size_t index = plan.rules.size();
    if (!rv.is_object()) {
      throw std::runtime_error("chaos: rule " + std::to_string(index) +
                               " is not an object");
    }
    for (const auto& [key, value] : rv.as_object()) {
      if (!known_rule_key(key)) {
        throw std::runtime_error("chaos: rule " + std::to_string(index) +
                                 " has unknown key '" + key + "'");
      }
    }
    Rule r;
    r.kind = kind_from_string(rv.string_or("kind", ""));
    r.probability = rv.number_or("probability", 1.0);
    r.from = static_cast<net::ProcId>(rv.number_or("from", 0.0));
    r.to = static_cast<net::ProcId>(rv.number_or("to", 0.0));
    r.box = rv.string_or("box", "");
    r.after = us_field(rv, "after_us", 0.0);
    if (rv.find("before_us") != nullptr) r.before = us_field(rv, "before_us", 0.0);
    r.delay = us_field(rv, "delay_us", 0.0);
    r.jitter = us_field(rv, "jitter_us", 0.0);
    r.copies = static_cast<int>(rv.number_or("copies", 1.0));
    r.spacing = us_field(rv, "spacing_us", 0.0);
    r.node = static_cast<net::NodeId>(rv.number_or("node", 0.0));
    r.factor = rv.number_or("factor", 1.0);
    r.at = us_field(rv, "at_us", 0.0);
    r.heal_at = us_field(rv, "heal_us", 0.0);
    r.group_a = proc_list(rv, "group_a");
    r.group_b = proc_list(rv, "group_b");
    r.target = static_cast<net::ProcId>(rv.number_or("target", 0.0));
    r.bytes = static_cast<std::uint64_t>(rv.number_or("bytes", 0.0));
    if (r.kind == RuleKind::corrupt) {
      r.corrupt_mode = mode_from_string(rv.string_or("mode", "bit_flip"), index);
      if (r.at != 0 && r.target == 0 && r.node == 0) {
        throw std::runtime_error("chaos: rule " + std::to_string(index) +
                                 " (scheduled corrupt) needs 'target' or "
                                 "'node'");
      }
      if (r.at == 0 && !r.box.empty() && r.box != "rdma") {
        throw std::runtime_error("chaos: rule " + std::to_string(index) +
                                 " (in-transit corrupt) only applies to box "
                                 "'rdma', got '" + r.box + "'");
      }
    } else if (rv.find("mode") != nullptr) {
      throw std::runtime_error("chaos: rule " + std::to_string(index) +
                               " has 'mode' but is not a corrupt rule");
    }
    if (r.kind == RuleKind::viewer_churn && r.target == 0) {
      throw std::runtime_error("chaos: rule " + std::to_string(index) +
                               " (viewer_churn) needs 'target'");
    }
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

ChaosPlan crash_storm_plan(net::NodeId base_node, std::size_t nodes,
                           des::Time start, des::Duration period,
                           std::size_t crashes, std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.rules.reserve(crashes);
  for (std::size_t i = 0; i < crashes; ++i) {
    Rule r;
    r.kind = RuleKind::crash;
    r.node = base_node + static_cast<net::NodeId>(i % nodes);
    r.at = start + static_cast<des::Duration>(i) * period;
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

ChaosPlan corruption_storm_plan(net::ProcId base_server, std::size_t servers,
                                des::Time start, des::Duration period,
                                std::size_t corruptions, std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.rules.reserve(corruptions);
  // Like overload_plan: victims and modes come from a dedicated RNG seeded
  // by the plan seed, so the plan itself is the replay artifact.
  Rng pick(seed);
  constexpr common::integrity::CorruptMode kModes[] = {
      common::integrity::CorruptMode::bit_flip,
      common::integrity::CorruptMode::truncate,
      common::integrity::CorruptMode::zero,
  };
  for (std::size_t i = 0; i < corruptions; ++i) {
    Rule r;
    r.kind = RuleKind::corrupt;
    r.target = base_server + static_cast<net::ProcId>(
                                 pick.below(static_cast<std::uint64_t>(
                                     servers == 0 ? 1 : servers)));
    r.corrupt_mode = kModes[pick.below(3)];
    r.at = start + static_cast<des::Duration>(i) * period;
    // The heal window closes when the next corruption is due: a rule whose
    // server has nothing staged yet retries within its own period only.
    r.heal_at = r.at + period;
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

ChaosPlan overload_plan(net::ProcId base_server, std::size_t servers,
                        des::Time start, des::Duration period,
                        des::Duration burst, std::size_t bursts,
                        std::uint64_t bytes, std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.rules.reserve(bursts);
  // The victim sequence comes from a dedicated RNG seeded by the plan seed,
  // so the same (seed, shape) always squeezes the same servers at the same
  // virtual times -- the plan itself is the replay artifact.
  Rng pick(seed);
  for (std::size_t i = 0; i < bursts; ++i) {
    Rule r;
    r.kind = RuleKind::shed;
    r.target = base_server + static_cast<net::ProcId>(
                                 pick.below(static_cast<std::uint64_t>(
                                     servers == 0 ? 1 : servers)));
    r.at = start + static_cast<des::Duration>(i) * period;
    r.heal_at = r.at + burst;
    r.bytes = bytes;
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

ChaosPlan viewer_churn_plan(net::ProcId base_server, std::size_t servers,
                            des::Time start, des::Duration period,
                            std::size_t churns, double fraction,
                            std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.rules.reserve(churns);
  // Like overload_plan: the victim tiers come from a dedicated RNG seeded by
  // the plan seed, so the plan itself is the replay artifact. The per-session
  // drop coins are derived from the same seed at fire time.
  Rng pick(seed);
  for (std::size_t i = 0; i < churns; ++i) {
    Rule r;
    r.kind = RuleKind::viewer_churn;
    r.target = base_server + static_cast<net::ProcId>(
                                 pick.below(static_cast<std::uint64_t>(
                                     servers == 0 ? 1 : servers)));
    r.probability = fraction;
    r.at = start + static_cast<des::Duration>(i) * period;
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

std::string InjectionRecord::to_string() const {
  std::ostringstream os;
  os << "t=" << time << " kind=" << chaos::to_string(kind) << " rule=" << rule
     << " src=" << src << " dst=" << dst << " tag=" << tag
     << " bytes=" << bytes << " delta=" << delta;
  return os.str();
}

ChaosEngine::ChaosEngine(ChaosPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

ChaosEngine::~ChaosEngine() { detach(); }

void ChaosEngine::attach(net::Network& net) {
  net_ = &net;
  sim_ = &net.sim();
  net.set_fault_injector(this);
  // Arm the scheduled rules as plain virtual-time events. Captures of `this`
  // are safe: the engine must outlive the network (or detach first), and a
  // detached engine simply stops mutating it.
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const Rule& r = plan_.rules[i];
    switch (r.kind) {
      case RuleKind::partition:
        sim_->schedule_at(r.at, [this, i] { apply_partition(i, true); });
        if (r.heal_at > r.at) {
          sim_->schedule_at(r.heal_at, [this, i] { apply_partition(i, false); });
        }
        break;
      case RuleKind::crash:
        sim_->schedule_at(r.at, [this, i] { apply_crash(i); });
        break;
      case RuleKind::shed:
        sim_->schedule_at(r.at, [this, i] { apply_shed(i, true); });
        if (r.heal_at > r.at) {
          sim_->schedule_at(r.heal_at, [this, i] { apply_shed(i, false); });
        }
        break;
      case RuleKind::corrupt:
        // Only the scheduled (at-rest) form arms an event; at == 0 is the
        // in-transit form, evaluated per RDMA operation.
        if (r.at != 0) {
          sim_->schedule_at(r.at, [this, i] { apply_corrupt(i); });
        }
        break;
      case RuleKind::viewer_churn:
        sim_->schedule_at(r.at, [this, i] { apply_viewer_churn(i); });
        break;
      default:
        break;
    }
  }
}

void ChaosEngine::detach() {
  if (net_ != nullptr && net_->fault_injector() == this) {
    net_->set_fault_injector(nullptr);
  }
  net_ = nullptr;
}

void ChaosEngine::apply_partition(std::size_t rule, bool down) {
  if (net_ == nullptr) return;
  const Rule& r = plan_.rules[rule];
  for (net::ProcId a : r.group_a) {
    for (net::ProcId b : r.group_b) {
      net_->set_link_down(a, b, down);
      net_->set_link_down(b, a, down);
    }
  }
  // Heal is logged as a second partition record with delta=1 so the replay
  // signature distinguishes cut from restore.
  record(RuleKind::partition, rule, 0, 0, 0, 0, down ? 0 : 1);
}

void ChaosEngine::apply_crash(std::size_t rule) {
  if (net_ == nullptr) return;
  const Rule& r = plan_.rules[rule];
  // target=0 with node set is a node-targeted crash: kill whatever process
  // is alive on the node right now, so respawned replacements are hit too.
  net::Process* p = nullptr;
  if (r.target != 0) {
    p = net_->find(r.target);
  } else if (r.node != 0) {
    p = net_->find_alive_on_node(r.node);
  }
  if (p == nullptr || !p->alive()) return;
  p->kill();
  record(RuleKind::crash, rule, p->id(), 0, 0, 0, 0);
}

void ChaosEngine::apply_shed(std::size_t rule, bool on) {
  if (net_ == nullptr) return;
  const Rule& r = plan_.rules[rule];
  // target=0 with node set squeezes whatever process is alive on the node
  // right now, mirroring the node-targeted crash semantics.
  net::ProcId target = r.target;
  if (target == 0 && r.node != 0) {
    net::Process* p = net_->find_alive_on_node(r.node);
    if (p == nullptr) return;
    target = p->id();
  }
  flow::ServerFlow* fl = flow::Registry::find(sim_, target);
  if (fl == nullptr || !fl->enabled()) return;
  if (on) {
    fl->inject_pressure(r.bytes);
  } else {
    fl->release_pressure();
  }
  // Release is logged with delta=1, like partition heals, so the replay
  // signature distinguishes squeeze from lift.
  record(RuleKind::shed, rule, target, 0, 0, r.bytes, on ? 0 : 1);
}

void ChaosEngine::apply_corrupt(std::size_t rule) {
  if (net_ == nullptr) return;
  const Rule& r = plan_.rules[rule];
  // target=0 with node set rots whatever process is alive on the node right
  // now, mirroring the node-targeted crash/shed semantics.
  net::ProcId target = r.target;
  if (target == 0 && r.node != 0) {
    net::Process* p = net_->find_alive_on_node(r.node);
    if (p == nullptr) return;
    target = p->id();
  }
  const common::integrity::CorruptResult res =
      common::integrity::Registry::corrupt(sim_, target, r.corrupt_mode,
                                           rule_pick(plan_.seed, rule));
  if (res.blocks == 0 && !res.deferred) {
    // No hook answered: the victim is down (or not a server). Re-arm every
    // 500ms so a respawned replacement is still hit, but give up once the
    // heal window closes -- logged with delta=1 so the replay signature
    // records the miss.
    const des::Time next = sim_->now() + des::milliseconds(500);
    if (r.heal_at > 0 && next < r.heal_at) {
      sim_->schedule_at(next, [this, rule] { apply_corrupt(rule); });
    } else {
      record(RuleKind::corrupt, rule, target, 0,
             static_cast<std::uint64_t>(r.corrupt_mode), 0, 1);
    }
    return;
  }
  // An idle server defers the rot to its next stored payload (bytes=0 here);
  // either way the corruption is committed, so it counts as landed.
  record(RuleKind::corrupt, rule, target, 0,
         static_cast<std::uint64_t>(r.corrupt_mode), res.bytes, 0);
}

void ChaosEngine::apply_viewer_churn(std::size_t rule) {
  if (net_ == nullptr) return;
  const Rule& r = plan_.rules[rule];
  viewer::ViewerTier* tier = viewer::Registry::find(sim_, r.target);
  if (tier == nullptr) {
    // No tier on the target (down, or not a server): logged with delta=1 so
    // the replay signature records the miss, like a corrupt that gave up.
    record(RuleKind::viewer_churn, rule, r.target, 0, 0, 0, 1);
    return;
  }
  // The pick seeds each session's coin.
  const std::size_t dropped =
      tier->churn(r.probability, rule_pick(plan_.seed, rule));
  record(RuleKind::viewer_churn, rule, r.target, 0, 0, dropped, 0);
}

void ChaosEngine::set_log_capacity(std::size_t cap) {
  log_capacity_ = cap;
  if (cap != 0 && log_.size() > cap) {
    log_.erase(log_.begin(),
               log_.begin() + static_cast<std::ptrdiff_t>(log_.size() - cap));
  }
}

void ChaosEngine::record(RuleKind kind, std::size_t rule, net::ProcId src,
                         net::ProcId dst, std::uint64_t tag, std::size_t bytes,
                         des::Duration delta) {
  const InjectionRecord rec{sim_ != nullptr ? sim_->now() : 0, kind, rule,
                            src, dst, tag, bytes, delta};
  // Fold every field through FNV-1a before (possible) eviction: the digest
  // is the constant-memory replay signature and must cover the whole
  // history, not just what the ring buffer retains.
  const auto mix = [this](std::uint64_t x) {
    log_digest_ ^= x;
    log_digest_ *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(rec.time));
  mix(static_cast<std::uint64_t>(rec.kind));
  mix(static_cast<std::uint64_t>(rec.rule));
  mix(static_cast<std::uint64_t>(rec.src));
  mix(static_cast<std::uint64_t>(rec.dst));
  mix(rec.tag);
  mix(static_cast<std::uint64_t>(rec.bytes));
  mix(static_cast<std::uint64_t>(rec.delta));
  ++log_total_;
  log_.push_back(rec);
  if (log_capacity_ != 0 && log_.size() > log_capacity_) {
    log_.erase(log_.begin(),
               log_.begin() +
                   static_cast<std::ptrdiff_t>(log_.size() - log_capacity_));
  }
}

std::string ChaosEngine::dump_log() const {
  std::string out;
  if (log_total_ > log_.size()) {
    out += "[" + std::to_string(log_total_ - log_.size()) +
           " older records evicted; digest=" + std::to_string(log_digest_) +
           "]\n";
  }
  for (const InjectionRecord& r : log_) {
    out += r.to_string();
    out += '\n';
  }
  return out;
}

net::FaultVerdict ChaosEngine::evaluate(net::ProcId src, net::ProcId dst,
                                        net::NodeId src_node,
                                        net::NodeId dst_node,
                                        const std::string& box,
                                        std::uint64_t tag, std::size_t bytes,
                                        des::Duration base) {
  net::FaultVerdict v;
  const des::Time now = sim_->now();
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const Rule& r = plan_.rules[i];
    if (r.kind == RuleKind::corrupt) {
      // Only the in-transit form (at == 0) acts per-operation, and only on
      // one-sided pulls: RDMA bypasses the message path, so this is the one
      // channel where wire rot can reach staged bytes undetected.
      if (r.at != 0 || box != "rdma") continue;
    } else if (!is_message_rule(r.kind)) {
      continue;
    }
    if (now < r.after || now >= r.before) continue;
    if (r.from != 0 && r.from != src) continue;
    if (r.to != 0 && r.to != dst) continue;
    if (!r.box.empty() && r.box != box) continue;
    if (r.kind == RuleKind::slow_node && src_node != r.node &&
        dst_node != r.node) {
      continue;
    }
    // One RNG draw per matching rule per message: transmit order is
    // deterministic, so the draw sequence (and thus every verdict) is too.
    if (r.probability < 1.0 && rng_.uniform() >= r.probability) continue;

    switch (r.kind) {
      case RuleKind::drop:
        v.drop = true;
        record(r.kind, i, src, dst, tag, bytes, 0);
        return v;  // a dropped message cannot also be delayed/duplicated
      case RuleKind::delay: {
        des::Duration extra = r.delay;
        if (r.jitter > 0) extra += rng_.below(r.jitter);
        v.extra_delay += extra;
        record(r.kind, i, src, dst, tag, bytes, extra);
        break;
      }
      case RuleKind::reorder: {
        const des::Duration extra = r.jitter > 0 ? rng_.below(r.jitter) : 0;
        v.extra_delay += extra;
        record(r.kind, i, src, dst, tag, bytes, extra);
        break;
      }
      case RuleKind::duplicate:
        v.duplicates += r.copies;
        v.dup_spacing = r.spacing;
        record(r.kind, i, src, dst, tag, bytes, 0);
        break;
      case RuleKind::slow_node: {
        const double scale = r.factor > 1.0 ? r.factor - 1.0 : 0.0;
        const auto extra = static_cast<des::Duration>(
            static_cast<double>(base) * scale);
        v.extra_delay += extra;
        record(r.kind, i, src, dst, tag, bytes, extra);
        break;
      }
      case RuleKind::corrupt: {
        // XOR a seeded nonzero byte into a seeded offset; the pull still
        // reports success, as real silent wire rot would. The offset goes
        // in the record's tag and the XOR byte in delta, so the replay
        // signature pins down exactly which bit rotted.
        v.corrupt_xor = static_cast<std::uint8_t>(1 + rng_.below(255));
        v.corrupt_offset =
            bytes != 0 ? rng_.below(static_cast<std::uint64_t>(bytes)) : 0;
        record(r.kind, i, src, dst, v.corrupt_offset, bytes,
               static_cast<des::Duration>(v.corrupt_xor));
        break;
      }
      default:
        break;
    }
  }
  return v;
}

net::FaultVerdict ChaosEngine::on_message(const net::Process& src,
                                          const net::Process& dst,
                                          const std::string& box,
                                          std::uint64_t tag, std::size_t bytes,
                                          des::Duration base) {
  return evaluate(src.id(), dst.id(), src.node(), dst.node(), box, tag, bytes,
                  base);
}

net::FaultVerdict ChaosEngine::on_rdma(const net::Process& self,
                                       net::ProcId owner, std::size_t bytes,
                                       des::Duration base) {
  static const std::string kRdmaBox = "rdma";
  net::Process* remote = net_ != nullptr ? net_->find(owner) : nullptr;
  const net::NodeId rnode =
      remote != nullptr ? remote->node() : self.node() + 1;
  net::FaultVerdict v =
      evaluate(self.id(), owner, self.node(), rnode, kRdmaBox, 0, bytes, base);
  v.duplicates = 0;  // one-sided transfers have no copy to re-deliver
  return v;
}

}  // namespace colza::chaos
