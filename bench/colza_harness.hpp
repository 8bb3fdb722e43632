// Reusable in-simulation deployment for the pipeline benches (Figs 5-10):
// a Colza staging area of S servers plus C client processes that follow the
// paper's usage pattern -- client rank 0 drives activate / execute /
// deactivate, every client stages its blocks, and the clients coordinate
// through their own (application-side) MoNA communicator, mirroring how a
// real MPI simulation would use its own world communicator.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "colza/admin.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/server.hpp"
#include "common/buffer_pool.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vis/data.hpp"

namespace colza::bench {

struct HarnessConfig {
  int clients = 4;
  int clients_per_node = 16;
  int servers = 4;
  int servers_per_node = 4;
  std::string pipeline_json;  // catalyst backend configuration
  // Server-side communication layer: MoNA (elastic) or Cray-MPICH (the
  // paper's "MPI" pipeline variant).
  net::Profile server_profile = net::Profile::mona();
  // Virtual compute time the simulation spends between in situ iterations
  // (0 = stage as fast as possible).
  des::Duration compute_between_iterations = 0;
  std::uint64_t seed = 33;
  // Observability (src/obs). Non-empty trace_path enables the virtual-time
  // tracer and writes a Chrome trace_event JSON there after run(); non-empty
  // metrics_path dumps the metrics registry (with one snapshot per
  // iteration) there. For byte-identical traces across runs, also set
  // fixed_scoped_charge so charge_scoped() costs are host-independent.
  std::string trace_path;
  std::string metrics_path;
  des::Duration fixed_scoped_charge = 0;
};

struct IterationTimes {
  std::uint64_t iteration = 0;
  des::Duration activate = 0;
  des::Duration stage = 0;  // max over clients (barrier to barrier)
  des::Duration execute = 0;
  des::Duration deactivate = 0;
  std::size_t servers = 0;
  [[nodiscard]] des::Duration total() const {
    return activate + stage + execute + deactivate;
  }
};

// Produces the blocks a client stages in one iteration.
using DataGen = std::function<std::vector<std::pair<std::uint64_t, vis::DataSet>>(
    int client_rank, std::uint64_t iteration)>;

// Called by client rank 0 before each iteration's activate (e.g. to trigger
// elastic scale-ups keyed on the iteration number, Fig 10).
using BeforeIteration = std::function<void(std::uint64_t iteration)>;
// Called by client rank 0 right after each iteration completes (e.g. to
// feed an AutoScaler with the measured times).
using AfterIteration = std::function<void(const IterationTimes&)>;

class ColzaPipelineHarness {
 public:
  ColzaPipelineHarness(const HarnessConfig& config)
      : config_(config),
        sim_(des::SimConfig{.seed = config.seed,
                            .fixed_scoped_charge = config.fixed_scoped_charge}),
        net_(sim_) {
    if (!config_.trace_path.empty() || !config_.metrics_path.empty()) {
      obs::MetricsRegistry::global().reset();
    }
    if (!config_.trace_path.empty()) {
      obs::Tracer::global().enable(sim_);
    }
    ServerConfig scfg;
    scfg.profile = config_.server_profile;
    // Fast, deterministic launches for pipeline benches: launch latency is
    // not what Figs 5-8 measure (Fig 4 has its own bench).
    LaunchModel instant{des::milliseconds(20), 0.0, des::milliseconds(20)};
    area_ = std::make_unique<StagingArea>(net_, scfg, instant, config_.seed);
    area_->launch_initial(config_.servers, /*base_node=*/1000);
    sim_.run_until(des::seconds(2));

    // Client processes + their application-side communicator.
    std::vector<net::ProcId> client_addrs;
    for (int c = 0; c < config_.clients; ++c) {
      auto& p = net_.create_process(
          static_cast<net::NodeId>(c / config_.clients_per_node));
      client_procs_.push_back(&p);
      client_insts_.push_back(std::make_unique<mona::Instance>(p));
      clients_.push_back(std::make_unique<Client>(p));
      client_addrs.push_back(p.id());
    }
    for (int c = 0; c < config_.clients; ++c) {
      client_comms_.push_back(
          client_insts_[static_cast<std::size_t>(c)]->comm_create(
              client_addrs));
    }

    // Deploy the pipeline on the founding servers.
    for (const auto& s : area_->servers()) {
      s->create_pipeline("render", "catalyst", config_.pipeline_json).check();
    }
  }

  [[nodiscard]] StagingArea& area() noexcept { return *area_; }
  [[nodiscard]] des::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& net() noexcept { return net_; }
  // The application-side communicator of a client rank (usable from inside
  // the data generator, e.g. for Gray-Scott halo exchange).
  [[nodiscard]] mona::Communicator& client_comm(int rank) noexcept {
    return *client_comms_[static_cast<std::size_t>(rank)];
  }

  // Adds one server on `node` after the modeled launch latency; the new
  // daemon joins via SSG and instantiates the pipeline locally.
  void add_server(net::NodeId node) {
    area_->launch_one(node, [this](Server& s) {
      s.create_pipeline("render", "catalyst", config_.pipeline_json).check();
    });
  }

  // Runs `iterations` in situ iterations; returns rank-0 timings.
  std::vector<IterationTimes> run(int iterations, const DataGen& gen,
                                  const BeforeIteration& before = {},
                                  const AfterIteration& after = {}) {
    std::vector<IterationTimes> results;
    const int nclients = config_.clients;
    auto barrier = [&](int rank) {
      client_comms_[static_cast<std::size_t>(rank)]->barrier().check();
    };

    for (int c = 0; c < nclients; ++c) {
      client_procs_[static_cast<std::size_t>(c)]->spawn(
          "client" + std::to_string(c), [&, c] {
            auto h = DistributedPipelineHandle::lookup(
                *clients_[static_cast<std::size_t>(c)],
                area_->bootstrap().contacts(), "render");
            h.status().check();
            auto& comm = *client_comms_[static_cast<std::size_t>(c)];

            for (int iter = 1; iter <= iterations; ++iter) {
              const auto it = static_cast<std::uint64_t>(iter);
              // The simulation computes...
              if (config_.compute_between_iterations > 0)
                sim_.charge(config_.compute_between_iterations);
              // ...then generates its blocks. Generators charge their own
              // compute (they may communicate, e.g. halo exchanges, which
              // must not run under a single charge_scoped measurement).
              auto blocks = gen(c, it);

              IterationTimes times;
              times.iteration = it;
              barrier(c);

              if (c == 0) {
                if (before) before(it);
                const des::Time t0 = sim_.now();
                {
                  obs::SpanScope phase("phase.activate", "phase");
                  h->activate(it).check();
                }
                times.activate = sim_.now() - t0;
                // Share the agreed view with the other clients.
                std::vector<net::ProcId> view = h->view();
                std::uint64_t n = view.size(), hash = h->view_hash();
                std::span<std::byte> nspan{reinterpret_cast<std::byte*>(&n),
                                           8};
                comm.bcast(nspan, 0).check();
                view.resize(n);
                comm.bcast(std::span<std::byte>(
                               reinterpret_cast<std::byte*>(view.data()),
                               n * sizeof(net::ProcId)),
                           0)
                    .check();
                std::span<std::byte> hspan{
                    reinterpret_cast<std::byte*>(&hash), 8};
                comm.bcast(hspan, 0).check();
              } else {
                std::uint64_t n = 0, hash = 0;
                std::span<std::byte> nspan{reinterpret_cast<std::byte*>(&n),
                                           8};
                comm.bcast(nspan, 0).check();
                std::vector<net::ProcId> view(n);
                comm.bcast(std::span<std::byte>(
                               reinterpret_cast<std::byte*>(view.data()),
                               n * sizeof(net::ProcId)),
                           0)
                    .check();
                std::span<std::byte> hspan{
                    reinterpret_cast<std::byte*>(&hash), 8};
                comm.bcast(hspan, 0).check();
                h->set_view(std::move(view), hash);
              }

              // Stage phase, bracketed by barriers so rank 0 measures the
              // slowest client. Rank 0's phase span covers the same
              // barrier-to-barrier interval the reported time does.
              barrier(c);
              std::optional<obs::SpanScope> stage_phase;
              if (c == 0) stage_phase.emplace("phase.stage", "phase");
              const des::Time s0 = sim_.now();
              for (auto& [block_id, ds] : blocks) {
                h->stage(it, block_id, ds).check();
              }
              barrier(c);
              times.stage = sim_.now() - s0;
              stage_phase.reset();

              if (c == 0) {
                des::Time t0 = sim_.now();
                {
                  obs::SpanScope phase("phase.execute", "phase");
                  h->execute(it).check();
                }
                times.execute = sim_.now() - t0;
                t0 = sim_.now();
                {
                  obs::SpanScope phase("phase.deactivate", "phase");
                  h->deactivate(it).check();
                }
                times.deactivate = sim_.now() - t0;
                times.servers = h->server_count();
                results.push_back(times);
                if (after) after(times);
                if (!config_.metrics_path.empty()) {
                  record_runtime_gauges();
                  obs::MetricsRegistry::global().snapshot(
                      "iteration-" + std::to_string(it));
                }
              }
              barrier(c);
            }
          });
    }
    sim_.run();
    finish_observability();
    return results;
  }

  // Samples the DES event-queue counters into gauges so each per-iteration
  // snapshot carries them.
  void record_runtime_gauges() {
    auto& reg = obs::MetricsRegistry::global();
    const auto& q = sim_.event_queue();
    reg.gauge("runtime.queue.depth").set(static_cast<double>(q.size()));
    reg.gauge("runtime.queue.peak_depth")
        .set(static_cast<double>(q.stats().peak_depth));
    reg.gauge("runtime.queue.rung_spawns")
        .set(static_cast<double>(q.stats().rung_spawns));
    reg.gauge("runtime.queue.top_transfers")
        .set(static_cast<double>(q.stats().top_transfers));
  }

  // Writes the trace / metrics files configured in HarnessConfig. Called
  // automatically at the end of run(); idempotent (later calls rewrite the
  // same files with the same content).
  void finish_observability() {
    if (!config_.trace_path.empty()) {
      obs::Tracer::global().disable();
      obs::Tracer::global().write_chrome_trace(config_.trace_path);
    }
    if (!config_.metrics_path.empty()) {
      auto& reg = obs::MetricsRegistry::global();
      // BufferPool keeps its own counters (common/ cannot depend on obs/);
      // sample them into gauges at export time.
      auto& pool = common::BufferPool::global();
      const double hits = static_cast<double>(pool.hits());
      const double misses = static_cast<double>(pool.misses());
      reg.gauge("buffer_pool.hits").set(hits);
      reg.gauge("buffer_pool.misses").set(misses);
      reg.gauge("buffer_pool.hit_rate")
          .set(hits + misses > 0 ? hits / (hits + misses) : 0.0);
      std::FILE* f = std::fopen(config_.metrics_path.c_str(), "wb");
      if (f != nullptr) {
        const std::string out = reg.dump_json();
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
      }
    }
  }

 private:
  HarnessConfig config_;
  des::Simulation sim_;
  net::Network net_;
  std::unique_ptr<StagingArea> area_;
  std::vector<net::Process*> client_procs_;
  std::vector<std::unique_ptr<mona::Instance>> client_insts_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::shared_ptr<mona::Communicator>> client_comms_;
};

}  // namespace colza::bench
