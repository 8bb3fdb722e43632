// Job scheduler with resize support -- the paper's S IV-A discussion made
// concrete. The paper notes that job schedulers are only beginning to offer
// resizing (SLURM can shrink via `scontrol update NumNodes`, LSF can grow
// and shrink via `bresize`) and envisions schedulers that (a) let jobs grow
// and shrink at run time and (b) prioritize growing an existing elastic job
// over starting new queued jobs.
//
// This module implements that scheduler for the simulated cluster:
//   * a fixed pool of nodes; jobs allocate/free sets of them;
//   * grow(): requests more nodes for a running job -- granted from free
//     nodes (elastic-growth priority: the head of the pending-job queue does
//     NOT block a grow), otherwise `unavailable`;
//   * shrink(): returns nodes to the pool, admitting queued jobs;
//   * optional background tenants: a daemon that keeps a target fraction of
//     the cluster busy with other (seeded, churning) jobs, so elasticity
//     experiments can run under realistic scarcity.
//
// StagingArea can attach to a scheduler so its launch paths draw real node
// allocations instead of conjuring node ids.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "des/simulation.hpp"
#include "flow/drr.hpp"
#include "net/address.hpp"

namespace colza::sched {

using JobId = std::uint64_t;

struct SchedulerConfig {
  std::uint32_t total_nodes = 64;
  // Background-tenant churn: every period, tenants start/stop so that about
  // `background_utilization` of the cluster stays busy (0 disables).
  double background_utilization = 0.0;
  des::Duration churn_period = des::seconds(20);
  std::uint64_t seed = 51;
};

class Scheduler {
 public:
  Scheduler(des::Simulation& sim, SchedulerConfig config);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Allocates `nodes` nodes for a new job; `unavailable` if the cluster
  // cannot satisfy it right now (no queueing for foreground jobs -- the
  // caller decides whether to retry).
  Expected<JobId> submit(std::uint32_t nodes);

  // Grows a running job by `nodes`; returns the newly granted node ids.
  Expected<std::vector<net::NodeId>> grow(JobId job, std::uint32_t nodes);

  // Returns specific nodes of a job to the pool.
  Status shrink(JobId job, const std::vector<net::NodeId>& nodes);

  // Ends the job, freeing everything it holds.
  Status complete(JobId job);

  [[nodiscard]] std::uint32_t total_nodes() const noexcept {
    return config_.total_nodes;
  }
  [[nodiscard]] std::uint32_t free_nodes() const noexcept {
    return static_cast<std::uint32_t>(free_.size());
  }
  [[nodiscard]] const std::vector<net::NodeId>* nodes_of(JobId job) const;

  // Enables/retargets the background-tenant churn at run time (e.g. after
  // the foreground job was submitted).
  void set_background_utilization(double utilization);

  // Opt-in multi-tenant QoS: once enabled, grow() caps each job's total
  // allocation at its weighted fair share of the cluster (flow::fair_share
  // over the weights of all live jobs; unweighted jobs count as 1). Off by
  // default so existing elasticity experiments are untouched.
  void enable_fair_shares() noexcept { fair_shares_ = true; }
  [[nodiscard]] bool fair_shares_enabled() const noexcept {
    return fair_shares_;
  }
  // Sets a job's share weight (clamped to >= 1). May be called before or
  // after enable_fair_shares(); weights of completed jobs are forgotten.
  void set_job_weight(JobId job, std::uint32_t weight);
  [[nodiscard]] std::uint32_t job_weight(JobId job) const noexcept;

 private:
  void churn();
  [[nodiscard]] std::uint32_t fair_cap(JobId job) const noexcept;

  des::Simulation* sim_;
  SchedulerConfig config_;
  Rng rng_;
  std::set<net::NodeId> free_;
  std::map<JobId, std::vector<net::NodeId>> jobs_;
  std::deque<JobId> background_;  // tenant jobs, oldest first
  std::map<JobId, std::uint32_t> weights_;  // absent = weight 1
  JobId next_job_ = 1;
  bool fair_shares_ = false;
  bool churner_started_ = false;
};

}  // namespace colza::sched
