// Invariant-checking harness for the chaos sweeps (tests/chaos_test.cpp).
//
// run_elastic_mandelbulb() drives the full Colza stack -- SSG gossip, MoNA
// collectives, the 2PC activate, RDMA staging, catalyst rendering, elastic
// joins and run_resilient_iteration -- under a chaos::ChaosPlan, and returns
// everything the four paper-level safety properties need:
//
//   INV1 (bounded progress): the client driver finishes every iteration
//        before the virtual-time deadline -- no hang survives in the DES.
//   INV2 (2PC atomicity): every iteration the client saw commit was
//        executed by a complete frozen group (n servers recorded it with
//        comm size n), and once all iterations are done no server is left
//        with an active iteration.
//   INV3 (SWIM convergence): after faults stop and partitions heal, any two
//        live servers have either identical views or fully disjoint ones
//        (a node evicted while isolated ends up a singleton), and no live
//        view contains a dead process.
//   INV4 (render determinism): every image hash recorded for an iteration
//        equals the fault-free run's hash for that iteration -- recovery and
//        duplicate staging must not change a single pixel.
//
// Determinism: the scenario runs with SimConfig::fixed_scoped_charge set, so
// even the wall-clock-coupled charge sites (catalyst render, dataset
// serialization) charge fixed virtual costs; the whole timeline, and hence
// the chaos engine's injection log, is bit-identical run to run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "chaos/chaos.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/fault.hpp"
#include "colza/server.hpp"
#include "colza/supervisor.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vis/data.hpp"

namespace colza::testing {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  int servers = 3;
  std::uint64_t iterations = 4;
  std::uint32_t blocks = 6;  // Mandelbulb blocks staged per iteration
  bool elastic_join = false;          // add one server mid-run
  // When joining, go through the job scheduler (sched::Scheduler::grow) so
  // the sweep also exercises the resize path of paper S IV-A.
  bool use_scheduler = false;
  des::Time join_at = des::seconds(30);
  des::Duration compute_between = des::seconds(5);
  chaos::ChaosPlan plan;              // no rules = fault-free reference
  // Virtual-time deadline for INV1. Generous on purpose: a dropped execute
  // request costs a 600 s (virtual) RPC timeout per retry, and virtual
  // hours are cheap in a DES.
  des::Time deadline = des::seconds(7200);
  // Staging replication factor (1 = primaries only, the pre-replication
  // behaviour; 2 = every block also lives on a rendezvous-hashed buddy).
  std::size_t replication = 2;
  // Run a Supervisor over the staging area: crashed daemons are respawned
  // (with pipelines reinstalled) instead of bleeding capacity.
  bool supervisor = false;
  SupervisorConfig supervisor_cfg;
  // Per-iteration resilient-loop options (stats pointer is overwritten to
  // collect into ScenarioResult::resilient).
  ResilientOptions resilient;
  // Flow control (docs/flow.md): the servers' staging budget (0 keeps flow
  // disabled) and whether the client handle stages flow-controlled.
  flow::FlowConfig flow;
  bool client_flow = false;
  // Record a virtual-time trace (src/obs) for the whole scenario and store
  // its FNV hash in ScenarioResult::trace_hash. Also resets the global
  // metrics registry at scenario start so counters are per-scenario.
  bool trace = false;
  // Bound on the chaos engine's in-memory injection log (0 = unbounded).
  // ScenarioResult::chaos_summary still covers every record either way.
  std::size_t chaos_log_capacity = 0;
  // Server-side integrity scrubber cadence (0 disables); the default matches
  // ServerConfig::scrub_interval.
  des::Duration scrub_interval = des::seconds(2);
  // Local viewer sessions connected to every server's viewer tier (spread
  // over `viewer_cameras` camera presets, cycling the quality classes).
  // 0 keeps the tier inert -- the neutrality check compares a viewer-heavy
  // run's timeline against an inert one.
  std::size_t viewer_sessions = 0;
  std::uint32_t viewer_cameras = 4;
};

struct IterationOutcome {
  std::uint64_t iteration = 0;
  StatusCode code = StatusCode::ok;
  std::vector<net::ProcId> view;  // the frozen view (successful runs only)
  des::Time started = 0;          // virtual time entering the resilient loop
  des::Time finished = 0;         // virtual time leaving it
};

// A server's integrity counts, read from its metrics scope.
struct IntegrityCounts {
  std::uint64_t verifies = 0;           // blocks checked
  std::uint64_t mismatches = 0;         // checks that failed
  std::uint64_t repairs = 0;            // blocks restored from a buddy copy
  std::uint64_t repair_bytes = 0;       // bytes fetched for those repairs
  std::uint64_t restage_fallbacks = 0;  // blocks with no intact copy left
  std::uint64_t scrub_passes = 0;       // completed scrubber sweeps
};

inline IntegrityCounts integrity_counts(const Server& s) {
  auto n = [&](const char* name) {
    return obs::MetricsRegistry::global().counter_value(name,
                                                        s.metrics_scope());
  };
  return {n("integrity.verify"),
          n("integrity.mismatch"),
          n("integrity.repair"),
          n("integrity.repair_bytes"),
          n("integrity.restage_fallback"),
          n("integrity.scrub")};
}

struct ServerSummary {
  net::ProcId id = 0;
  bool alive = false;
  int active_iterations = 0;
  std::vector<net::ProcId> view;  // SSG view (alive servers only)
  std::vector<CatalystBackend::Record> records;
  // Flow-control evidence (zero when flow is disabled): the high-water mark
  // of staged bytes must never exceed the budget, and sheds_total counts the
  // Busy fast-fails the clients had to absorb.
  std::uint64_t peak_staged_bytes = 0;
  std::uint64_t flow_sheds = 0;
  // Integrity machinery counters (verifies/mismatches/repairs/...), all zero
  // when no corruption was injected and the scrubber found nothing to fix.
  IntegrityCounts integrity;
};

struct ScenarioResult {
  bool client_done = false;
  des::Time end_time = 0;
  std::vector<IterationOutcome> iterations;
  std::vector<ServerSummary> servers;
  std::vector<chaos::InjectionRecord> injections;
  std::string chaos_log;
  chaos::LogSummary chaos_summary;  // covers evicted records too
  ResilientStats resilient;      // summed over all iterations
  SupervisorStats supervisor;    // zero when cfg.supervisor is false
  std::uint64_t trace_hash = 0;  // timeline hash when cfg.trace is set
  std::uint64_t events_processed = 0;  // DES events over the whole scenario
  // Viewer-tier totals summed over the servers alive at the end (all zero
  // when cfg.viewer_sessions == 0 and nothing subscribed).
  std::uint64_t viewer_renders = 0;
  std::uint64_t viewer_frames = 0;
  std::uint64_t viewer_skips = 0;
};

inline ScenarioResult run_elastic_mandelbulb(const ScenarioConfig& cfg) {
  ScenarioResult res;
  des::Simulation sim(des::SimConfig{
      .seed = cfg.seed, .fixed_scoped_charge = des::milliseconds(2)});
  if (cfg.trace) {
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().enable(sim);
  }
  net::Network net(sim);
  chaos::ChaosEngine engine(cfg.plan);
  engine.set_log_capacity(cfg.chaos_log_capacity);
  engine.attach(net);

  ServerConfig scfg;
  scfg.init_cost = des::milliseconds(10);
  scfg.flow = cfg.flow;
  scfg.scrub_interval = cfg.scrub_interval;
  // Viewer quality classes: two healthy tiers plus a pathologically starved
  // one (1 B/s, 100-byte bucket), so every third session exercises the
  // skip-to-latest backpressure path while the simulation timeline -- the
  // neutrality invariant -- must not move.
  scfg.viewer.classes = {
      {"gold", 4, 400ull << 20, 4ull << 20},
      {"silver", 2, 100ull << 20, 1ull << 20},
      {"dialup", 1, 1, 100},
  };
  LaunchModel instant{des::milliseconds(10), 0.0, des::milliseconds(10)};
  StagingArea area(net, scfg, instant, cfg.seed);
  area.launch_initial(cfg.servers, /*base_node=*/100);
  sim.run_until(des::seconds(2));

  const std::string pipeline_json =
      R"({"preset":"mandelbulb","width":32,"height":32})";
  for (const auto& s : area.servers()) {
    s->create_pipeline("render", "catalyst", pipeline_json).check();
  }
  if (cfg.viewer_sessions > 0) {
    // Observer fan-out: local accounting-only sessions (remote=kInvalidProc),
    // so the fabric carries no viewer traffic and the neutrality comparison
    // isolates the tier's own fibers.
    for (const auto& s : area.servers()) {
      viewer::ViewerTier& tier = s->viewer();
      for (std::size_t i = 0; i < cfg.viewer_sessions; ++i) {
        const std::uint64_t id =
            tier.connect(static_cast<std::uint32_t>(i % 3));
        tier.subscribe(id, "render",
                       static_cast<std::uint32_t>(
                           i % std::max<std::uint32_t>(1, cfg.viewer_cameras)))
            .check();
      }
    }
  }
  std::unique_ptr<Supervisor> supervisor;
  if (cfg.supervisor) {
    supervisor = std::make_unique<Supervisor>(sim, area, cfg.supervisor_cfg);
    supervisor->on_respawn([&pipeline_json](Server& s) {
      s.create_pipeline("render", "catalyst", pipeline_json).check();
    });
    supervisor->start();
  }
  std::unique_ptr<sched::Scheduler> scheduler;
  if (cfg.elastic_join && cfg.use_scheduler) {
    scheduler = std::make_unique<sched::Scheduler>(
        sim, sched::SchedulerConfig{.total_nodes = 16});
    auto job = scheduler->submit(static_cast<std::uint32_t>(cfg.servers));
    if (job.has_value()) area.attach_scheduler(*scheduler, *job);
  }
  if (cfg.elastic_join) {
    sim.schedule_at(cfg.join_at, [&area, &pipeline_json, use_sched =
                                      cfg.use_scheduler] {
      auto install = [&pipeline_json](Server& s) {
        s.create_pipeline("render", "catalyst", pipeline_json).check();
      };
      if (use_sched) {
        (void)area.launch_one_scheduled(install);
      } else {
        area.launch_one(/*node=*/200, install);
      }
    });
  }

  // The simulation data: every iteration stages the same Mandelbulb blocks,
  // so the fault-free image hash is a per-iteration constant the chaos runs
  // can be compared against.
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = 10;
  mb.total_blocks = cfg.blocks;
  std::vector<IterationBlock> blocks;
  for (std::uint32_t b = 0; b < cfg.blocks; ++b) {
    blocks.emplace_back(
        b, vis::serialize_dataset(vis::DataSet{apps::mandelbulb_block(mb, b)}));
  }

  auto& client_proc = net.create_process(0);
  Client client(client_proc);
  client_proc.spawn("chaos-app", [&] {
    auto h = DistributedPipelineHandle::lookup(
        client, area.bootstrap().contacts(), "render");
    if (!h.has_value()) return;  // client_done stays false -> INV1 fails
    h->set_replication(cfg.replication);
    if (cfg.client_flow) h->set_flow_control(FlowClientOptions{.enabled = true, .aimd = {}});
    ResilientOptions opts = cfg.resilient;
    opts.stats = &res.resilient;
    for (std::uint64_t it = 1; it <= cfg.iterations; ++it) {
      IterationOutcome out;
      out.started = sim.now();
      Status s = run_resilient_iteration(*h, it, blocks, opts);
      out.finished = sim.now();
      out.iteration = it;
      out.code = s.code();
      if (s.ok()) out.view = h->view();
      res.iterations.push_back(std::move(out));
      sim.sleep_for(cfg.compute_between);
    }
    res.client_done = true;
  });

  // Drive in bounded steps so a finished run stops early; then give the
  // membership protocol a settle window past the last scheduled fault so
  // INV3 checks converged views, not views mid-suspicion.
  const des::Duration step = des::seconds(30);
  while (!res.client_done && sim.now() < cfg.deadline) {
    sim.run_until(std::min<des::Time>(sim.now() + step, cfg.deadline));
  }
  des::Time settle = sim.now() + des::seconds(30);
  for (const chaos::Rule& r : cfg.plan.rules) {
    if (r.kind == chaos::RuleKind::partition) {
      settle = std::max<des::Time>(
          settle, std::max(r.at, r.heal_at) + des::seconds(30));
    }
    if (r.kind == chaos::RuleKind::crash) {
      settle = std::max<des::Time>(settle, r.at + des::seconds(30));
    }
    if (r.kind == chaos::RuleKind::shed) {
      settle = std::max<des::Time>(
          settle, std::max(r.at, r.heal_at) + des::seconds(30));
    }
    if (r.kind == chaos::RuleKind::corrupt && r.at != 0) {
      // Past the rot *and* at least one scrub pass, so the scrubber's
      // repairs land before the summaries are collected.
      settle = std::max<des::Time>(
          settle, std::max(r.at, r.heal_at) + des::seconds(30));
    }
  }
  sim.run_until(settle);

  res.end_time = sim.now();
  res.events_processed = sim.events_processed();
  if (supervisor != nullptr) {
    res.supervisor = supervisor->stats();
    supervisor->stop();
  }
  res.injections = engine.log();
  res.chaos_log = engine.dump_log();
  res.chaos_summary = engine.log_summary();
  for (const auto& s : area.servers()) {
    ServerSummary sum;
    sum.id = s->address();
    sum.alive = s->alive();
    sum.active_iterations = s->active_iterations();
    if (s->alive()) sum.view = s->group().view();
    if (auto* b = dynamic_cast<CatalystBackend*>(s->pipeline("render"))) {
      sum.records = b->records();
    }
    sum.peak_staged_bytes = s->flow().peak_staged_bytes();
    sum.flow_sheds = s->flow().sheds_total();
    sum.integrity = integrity_counts(*s);
    if (s->alive()) {
      res.viewer_renders += s->viewer().renders_total();
      res.viewer_frames += s->viewer().frames_delivered();
      res.viewer_skips += s->viewer().skips_total();
    }
    res.servers.push_back(std::move(sum));
  }
  if (cfg.trace) {
    obs::Tracer::global().disable();
    res.trace_hash = obs::Tracer::global().timeline_hash();
  }
  engine.detach();
  return res;
}

// ---------------------------------------------------------------------------
// The four invariants. Each returns an empty string on success or a
// human-readable violation (so the sweep can report seed + violation).

// INV1: the client driver completed before the virtual deadline.
inline std::string check_bounded_progress(const ScenarioResult& r,
                                          const ScenarioConfig& cfg) {
  if (!r.client_done) {
    return "INV1: client not done by t=" + std::to_string(cfg.deadline) +
           " (now=" + std::to_string(r.end_time) + ")";
  }
  return {};
}

// INV2: 2PC atomicity, checked through the execution records themselves:
// for every iteration the client saw commit, some activation attempt
// executed on its *complete* frozen group -- the records sharing that
// attempt's communicator context come from exactly comm_size distinct
// servers. A partial group would mean an iteration "succeeded" without its
// full frozen membership executing. The client-side view after
// run_resilient_iteration is deliberately not used here: its cleanup path
// refreshes the view, so it need not equal the frozen one. When every
// iteration succeeded, additionally no server may be left frozen (a
// committed-but-never-deactivated iteration would block leaves forever).
inline std::string check_two_phase_atomicity(const ScenarioResult& r) {
  bool all_ok = !r.iterations.empty();
  for (const auto& it : r.iterations) {
    if (it.code != StatusCode::ok) {
      all_ok = false;
      continue;
    }
    // Communicator context -> (comm size, distinct servers that executed
    // the iteration on it). Each 2PC commit runs on a fresh epoch context,
    // so a context identifies one activation attempt over one frozen group.
    std::map<std::uint64_t, std::pair<int, std::set<net::ProcId>>> groups;
    for (const auto& s : r.servers) {
      for (const auto& rec : s.records) {
        if (rec.iteration != it.iteration) continue;
        auto& g = groups[rec.comm_context];
        g.first = rec.comm_size;
        g.second.insert(s.id);
      }
    }
    const bool complete =
        std::any_of(groups.begin(), groups.end(), [](const auto& g) {
          return static_cast<int>(g.second.second.size()) == g.second.first;
        });
    if (!complete) {
      return "INV2: iteration " + std::to_string(it.iteration) +
             " committed but no complete server group executed it";
    }
  }
  if (all_ok) {
    for (const auto& s : r.servers) {
      if (s.alive && s.active_iterations != 0) {
        return "INV2: server " + std::to_string(s.id) + " left with " +
               std::to_string(s.active_iterations) + " active iterations";
      }
    }
  }
  return {};
}

// INV3: SWIM convergence after faults settle. Live servers agree: any two
// views are identical or fully disjoint (an isolated-then-evicted node ends
// up a singleton the group has excised), and no live view contains a process
// that is dead.
inline std::string check_swim_convergence(const ScenarioResult& r) {
  std::map<net::ProcId, bool> alive;
  for (const auto& s : r.servers) alive.emplace(s.id, s.alive);

  std::vector<const ServerSummary*> live;
  for (const auto& s : r.servers) {
    if (s.alive) live.push_back(&s);
  }
  for (const auto* s : live) {
    for (net::ProcId member : s->view) {
      auto it = alive.find(member);
      if (it != alive.end() && !it->second) {
        return "INV3: server " + std::to_string(s->id) +
               " still lists dead server " + std::to_string(member) +
               " in its view";
      }
    }
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      const auto& a = live[i]->view;
      const auto& b = live[j]->view;
      if (a == b) continue;  // views are sorted
      std::vector<net::ProcId> inter;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(inter));
      if (!inter.empty()) {
        return "INV3: servers " + std::to_string(live[i]->id) + " and " +
               std::to_string(live[j]->id) +
               " have overlapping but different views";
      }
    }
  }
  return {};
}

// INV4: render determinism. Every image hash any server recorded for an
// iteration matches the fault-free reference hash for that iteration
// (rank != 0 records carry hash 0 and are skipped).
inline std::string check_render_hashes(
    const ScenarioResult& r,
    const std::map<std::uint64_t, std::uint64_t>& reference) {
  for (const auto& s : r.servers) {
    for (const auto& rec : s.records) {
      if (rec.image_hash == 0) continue;  // not the compositing root
      auto it = reference.find(rec.iteration);
      if (it == reference.end()) {
        return "INV4: iteration " + std::to_string(rec.iteration) +
               " rendered but has no fault-free reference";
      }
      if (rec.image_hash != it->second) {
        return "INV4: iteration " + std::to_string(rec.iteration) +
               " hash mismatch on server " + std::to_string(s.id);
      }
    }
  }
  return {};
}

// Fault-free reference hashes, keyed by iteration.
inline std::map<std::uint64_t, std::uint64_t> reference_hashes(
    const ScenarioResult& r) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& s : r.servers) {
    for (const auto& rec : s.records) {
      if (rec.image_hash != 0) out.emplace(rec.iteration, rec.image_hash);
    }
  }
  return out;
}

}  // namespace colza::testing
