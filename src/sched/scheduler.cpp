#include "sched/scheduler.hpp"

#include <algorithm>

namespace colza::sched {

Scheduler::Scheduler(des::Simulation& sim, SchedulerConfig config)
    : sim_(&sim), config_(config), rng_(config.seed) {
  for (std::uint32_t n = 0; n < config_.total_nodes; ++n) {
    free_.insert(static_cast<net::NodeId>(n));
  }
  if (config_.background_utilization > 0) {
    set_background_utilization(config_.background_utilization);
  }
}

void Scheduler::set_background_utilization(double utilization) {
  const bool was_off = config_.background_utilization <= 0;
  config_.background_utilization = utilization;
  if (utilization <= 0) return;
  if (was_off || !churner_started_) {
    churner_started_ = true;
    // Periodic churn in scheduler context (a self-rescheduling daemon event).
    struct Churner {
      Scheduler* self;
      void operator()() {
        self->churn();
        self->sim_->schedule_after(self->config_.churn_period, Churner{*this},
                                   /*daemon=*/true);
      }
    };
    sim_->schedule_after(config_.churn_period, Churner{this}, /*daemon=*/true);
  }
  churn();  // move toward the new target immediately
}

Expected<JobId> Scheduler::submit(std::uint32_t nodes) {
  if (nodes == 0) return Status::InvalidArgument("submit: zero nodes");
  if (free_.size() < nodes)
    return Status::Unavailable("cluster has " + std::to_string(free_.size()) +
                               " free nodes, job needs " +
                               std::to_string(nodes));
  const JobId id = next_job_++;
  auto& held = jobs_[id];
  for (std::uint32_t i = 0; i < nodes; ++i) {
    held.push_back(*free_.begin());
    free_.erase(free_.begin());
  }
  return id;
}

void Scheduler::set_job_weight(JobId job, std::uint32_t weight) {
  weights_[job] = std::max<std::uint32_t>(weight, 1);
}

std::uint32_t Scheduler::job_weight(JobId job) const noexcept {
  auto it = weights_.find(job);
  return it == weights_.end() ? 1 : it->second;
}

std::uint32_t Scheduler::fair_cap(JobId job) const noexcept {
  std::uint64_t weight_sum = 0;
  for (const auto& [id, held] : jobs_) weight_sum += job_weight(id);
  const std::uint64_t share =
      flow::fair_share(config_.total_nodes, job_weight(job), weight_sum);
  // Every job keeps at least one node regardless of how the weights divide.
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(share, 1));
}

Expected<std::vector<net::NodeId>> Scheduler::grow(JobId job,
                                                   std::uint32_t nodes) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return Status::NotFound("grow: unknown job");
  if (fair_shares_) {
    // QoS cap: the job may not grow past its weighted fair share. A capped
    // grow is refused whole (no silent partial grant) so callers see the
    // same all-or-nothing contract as a scarce cluster.
    const std::uint32_t cap = fair_cap(job);
    const auto held = static_cast<std::uint32_t>(it->second.size());
    if (held + nodes > cap) {
      return Status::Unavailable(
          "grow: job " + std::to_string(job) + " holds " +
          std::to_string(held) + " node(s), fair share is " +
          std::to_string(cap));
    }
  }
  if (free_.size() < nodes)
    return Status::Unavailable("grow: only " + std::to_string(free_.size()) +
                               " free node(s)");
  std::vector<net::NodeId> granted;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    granted.push_back(*free_.begin());
    free_.erase(free_.begin());
  }
  it->second.insert(it->second.end(), granted.begin(), granted.end());
  return granted;
}

Status Scheduler::shrink(JobId job, const std::vector<net::NodeId>& nodes) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return Status::NotFound("shrink: unknown job");
  for (net::NodeId n : nodes) {
    auto pos = std::find(it->second.begin(), it->second.end(), n);
    if (pos == it->second.end())
      return Status::InvalidArgument("shrink: node not held by job");
    it->second.erase(pos);
    free_.insert(n);
  }
  return Status::Ok();
}

Status Scheduler::complete(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return Status::NotFound("complete: unknown job");
  for (net::NodeId n : it->second) free_.insert(n);
  jobs_.erase(it);
  weights_.erase(job);
  return Status::Ok();
}

const std::vector<net::NodeId>* Scheduler::nodes_of(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : &it->second;
}

void Scheduler::churn() {
  // Drive background occupancy toward the target fraction by starting and
  // finishing small tenant jobs.
  const auto target = static_cast<std::uint32_t>(
      config_.background_utilization * config_.total_nodes);
  auto busy_by_tenants = [&] {
    std::uint32_t n = 0;
    for (JobId id : background_) {
      if (const auto* held = nodes_of(id)) {
        n += static_cast<std::uint32_t>(held->size());
      }
    }
    return n;
  };
  // Finish some old tenants (randomly, so node ids churn).
  while (!background_.empty() &&
         (busy_by_tenants() > target || rng_.uniform() < 0.3)) {
    (void)complete(background_.front());
    background_.pop_front();
    if (busy_by_tenants() <= target && rng_.uniform() < 0.7) break;
  }
  // Start new tenants up to the target.
  while (busy_by_tenants() < target && !free_.empty()) {
    const auto want = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(1 + rng_.below(4), free_.size()));
    auto job = submit(want);
    if (!job.has_value()) break;
    background_.push_back(*job);
  }
}

}  // namespace colza::sched
