#include "flow/flow.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"

namespace colza::flow {

namespace {

// (simulation, proc) -> flow state. Tests run many simulations in one
// process sequentially; keying by Simulation* keeps them from colliding.
std::map<std::pair<des::Simulation*, net::ProcId>, ServerFlow*>&
registry_map() {
  static std::map<std::pair<des::Simulation*, net::ProcId>, ServerFlow*> m;
  return m;
}

}  // namespace

ServerFlow* Registry::find(des::Simulation* sim, net::ProcId id) {
  auto it = registry_map().find({sim, id});
  return it == registry_map().end() ? nullptr : it->second;
}

void Registry::add(des::Simulation* sim, net::ProcId id, ServerFlow* flow) {
  registry_map()[{sim, id}] = flow;
}

void Registry::remove(des::Simulation* sim, net::ProcId id) {
  registry_map().erase({sim, id});
}

ServerFlow::ServerFlow(des::Simulation& sim, net::ProcId self,
                       FlowConfig config)
    : sim_(&sim),
      self_(self),
      config_(config),
      queue_(config.quantum_bytes == 0 ? 1 : config.quantum_bytes) {
  Registry::add(sim_, self_, this);
}

ServerFlow::~ServerFlow() { Registry::remove(sim_, self_); }

std::uint64_t ServerFlow::drain_ns(std::uint64_t bytes) const noexcept {
  if (config_.drain_gbps <= 0.0) return 0;
  // Saturate: a shed hint for a forged wire size must not overflow the cast.
  const double ns = static_cast<double>(bytes) * 8.0 / config_.drain_gbps;
  return ns < 0x1p64 ? static_cast<std::uint64_t>(ns)
                     : std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t ServerFlow::shed_hint_us(std::uint64_t bytes) const noexcept {
  const std::uint64_t backlog = in_use_ + queue_.queued_bytes() + bytes;
  const std::uint64_t over =
      backlog > config_.budget_bytes ? backlog - config_.budget_bytes : bytes;
  // Never hint zero: a Busy reply always tells the client to back off some.
  return std::max<std::uint64_t>(drain_ns(over) / 1000, 100);
}

std::uint64_t ServerFlow::grant(const std::string& pipeline,
                                std::uint64_t bytes) {
  const std::uint64_t id = next_grant_id_++;
  in_use_ += bytes;
  grants_.emplace(id, Grant{pipeline, bytes});
  grant_count_->inc();
  // Lease: reclaim the credit if no stage consumes it in time; daemon so it
  // never holds the sim open.
  sim_->schedule_after(config_.lease_ttl, [this, id] { on_lease_expired(id); },
                       /*daemon=*/true);
  return id;
}

void ServerFlow::on_lease_expired(std::uint64_t grant_id) {
  auto it = grants_.find(grant_id);
  if (it == grants_.end()) return;  // consumed or released in time
  in_use_ -= it->second.bytes;
  grants_.erase(it);
  lease_expired_->inc();
  pump();
}

void ServerFlow::pump() {
  auto fits_fn = [this](std::uint64_t cost) { return fits(cost); };
  auto canceled_fn = [](const std::shared_ptr<Waiter>& w) {
    return w->canceled;
  };
  while (auto w = queue_.pop(fits_fn, canceled_fn)) {
    const std::uint64_t id = grant((*w)->pipeline, (*w)->bytes);
    (*w)->outcome.set_value(AcquireResult{Status::Ok(), id});
  }
}

AcquireResult ServerFlow::acquire(const std::string& pipeline,
                                  std::uint64_t bytes, des::Time deadline) {
  if (!enabled()) return {Status::Ok(), 0};
  if (bytes > config_.budget_bytes) {
    return {Status::FailedPrecondition(
                "stage of " + std::to_string(bytes) +
                " bytes can never fit server budget of " +
                std::to_string(config_.budget_bytes)),
            0};
  }
  const des::Time now = sim_->now();
  if (queue_.empty() && fits(bytes)) {
    return {Status::Ok(), grant(pipeline, bytes)};
  }
  auto shed = [&]() -> AcquireResult {
    shed_count_->inc();
    return {Status::Busy("server over budget", shed_hint_us(bytes)), 0};
  };
  if (queue_.queued_items() >= config_.max_queue) return shed();
  // Deadline-derived bound: don't queue a request whose backlog cannot
  // drain before the caller gives up (or before the queue-wait cap).
  des::Duration allowed = config_.max_queue_wait;
  if (deadline != 0) {
    allowed = deadline > now ? std::min(allowed, deadline - now)
                             : des::Duration{0};
  }
  const std::uint64_t backlog = in_use_ + queue_.queued_bytes() + bytes;
  const std::uint64_t over =
      backlog > config_.budget_bytes ? backlog - config_.budget_bytes : 0;
  if (drain_ns(over) > allowed) return shed();

  auto waiter = std::make_shared<Waiter>(*sim_, pipeline, bytes);
  queue_.push(queue_.tenant(pipeline), waiter, bytes);
  grants_queued_->inc();
  pump();  // the queue may hold only canceled entries ahead of us
  AcquireResult* granted = waiter->outcome.wait_for(allowed);
  if (granted == nullptr) {
    waiter->canceled = true;
    return shed();
  }
  return *granted;
}

void ServerFlow::release(std::uint64_t grant_id) {
  auto it = grants_.find(grant_id);
  if (it == grants_.end()) return;
  in_use_ -= it->second.bytes;
  grants_.erase(it);
  pump();
}

Status ServerFlow::consume(std::uint64_t grant_id, const std::string& pipeline,
                           std::uint64_t iteration, std::uint64_t block_id,
                           const std::string& field,
                           std::uint32_t replica_rank, std::uint64_t bytes) {
  if (!enabled()) return Status::Ok();
  std::uint64_t reserved = 0;
  if (auto it = grants_.find(grant_id); it != grants_.end()) {
    reserved = it->second.bytes;
    grants_.erase(it);  // the lease is spent either way
  }
  const BlockKey key{block_id, field, replica_rank};
  auto& slots = charged_[pipeline][iteration];
  const std::uint64_t old = slots.count(key) != 0 ? slots[key] : 0;
  // Admit iff the post-state fits: everything currently in use, minus the
  // credit this stage returns (its reservation plus the charge it replaces),
  // plus the new bytes, stays within budget. `bytes` is a wire value, so the
  // sum is compared in subtraction form: a forged size cannot wrap it back
  // under the budget.
  const std::uint64_t kept = in_use_ - reserved - old;
  if (kept > config_.budget_bytes || bytes > config_.budget_bytes - kept) {
    in_use_ -= reserved;
    shed_count_->inc();
    pump();
    return Status::Busy("stage of " + std::to_string(bytes) +
                            " bytes exceeds remaining budget",
                        shed_hint_us(bytes));
  }
  in_use_ = kept + bytes;
  staged_bytes_->sub(old);
  staged_bytes_->add(bytes);
  slots[key] = bytes;
  if (reserved + old > bytes) pump();  // net free
  return Status::Ok();
}

void ServerFlow::uncharge_block(const std::string& pipeline,
                                std::uint64_t iteration,
                                std::uint64_t block_id,
                                const std::string& field,
                                std::uint32_t replica_rank) {
  if (!enabled()) return;
  auto pit = charged_.find(pipeline);
  if (pit == charged_.end()) return;
  auto iit = pit->second.find(iteration);
  if (iit == pit->second.end()) return;
  auto kit = iit->second.find(BlockKey{block_id, field, replica_rank});
  if (kit == iit->second.end()) return;
  const std::uint64_t freed = kit->second;
  iit->second.erase(kit);
  in_use_ -= freed;
  staged_bytes_->sub(freed);
  if (freed > 0) pump();
}

void ServerFlow::free_iteration(const std::string& pipeline,
                                std::uint64_t iteration) {
  if (!enabled()) return;
  auto pit = charged_.find(pipeline);
  if (pit == charged_.end()) return;
  auto iit = pit->second.find(iteration);
  if (iit == pit->second.end()) return;
  std::uint64_t freed = 0;
  for (const auto& [key, b] : iit->second) freed += b;
  pit->second.erase(iit);
  if (pit->second.empty()) charged_.erase(pit);
  in_use_ -= freed;
  staged_bytes_->sub(freed);
  if (freed > 0) pump();
}

void ServerFlow::free_pipeline(const std::string& pipeline) {
  if (!enabled()) return;
  auto pit = charged_.find(pipeline);
  if (pit == charged_.end()) return;
  std::uint64_t freed = 0;
  for (const auto& [iter, slots] : pit->second) {
    for (const auto& [key, b] : slots) freed += b;
  }
  charged_.erase(pit);
  in_use_ -= freed;
  staged_bytes_->sub(freed);
  if (freed > 0) pump();
}

void ServerFlow::set_weight(const std::string& pipeline, std::uint32_t weight) {
  // The stage-grant queue never pauses a pipeline: weight 0 would park its
  // staged-byte grants forever (DrrQueue's pause semantics), and the admin
  // RPC already rejects it -- clamp defensively so a direct caller cannot
  // wedge the staging path either.
  const std::uint32_t w = weight == 0 ? 1 : weight;
  queue_.set_weight(queue_.tenant(pipeline), w);
  weights_[pipeline] = w;
}

json::Value ServerFlow::quota_json() const {
  json::Object root;
  root["enabled"] = json::Value(enabled());
  root["budget_bytes"] = json::Value(static_cast<double>(config_.budget_bytes));
  root["in_use_bytes"] = json::Value(static_cast<double>(in_use_));
  root["pressure_bytes"] = json::Value(static_cast<double>(pressure_));
  root["queue_items"] = json::Value(static_cast<double>(queue_.queued_items()));
  root["queue_bytes"] = json::Value(static_cast<double>(queue_.queued_bytes()));
  root["grants_outstanding"] = json::Value(static_cast<double>(grants_.size()));
  json::Object weights;
  for (const auto& [name, w] : weights_) {
    weights[name] = json::Value(static_cast<double>(w));
  }
  root["weights"] = json::Value(std::move(weights));
  return json::Value(std::move(root));
}

void ServerFlow::inject_pressure(std::uint64_t bytes) {
  if (!enabled()) return;
  pressure_ += bytes;
  in_use_ += bytes;
  pressure_injected_->inc();
}

void ServerFlow::release_pressure() {
  if (!enabled() || pressure_ == 0) return;
  in_use_ -= pressure_;
  pressure_ = 0;
  pump();
}

}  // namespace colza::flow
