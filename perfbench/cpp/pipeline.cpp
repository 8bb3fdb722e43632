// The two in situ pipeline workloads: a Colza staging area of S servers plus
// C client processes following the paper's usage pattern -- client rank 0
// drives activate / execute / deactivate, every client stages its Mandelbulb
// blocks, and the clients coordinate through their own MoNA communicator.
//
//   elastic-mandelbulb  Fig 9's shape: 16 clients x 4 blocks of 16^3 into the
//                       Catalyst isosurface pipeline while the staging area
//                       grows from 2 to 8 servers by SSG join.
//   staging-flood       Fig 5's top scale: 512 clients, 128 servers, tiny
//                       blocks and images, no compute between iterations.
//
// Both charge compute at a fixed virtual cost per charge_scoped call
// (SimConfig::fixed_scoped_charge), so the DES event sequence depends only on
// the seed, never on how fast the host ran the real work.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "colza/catalyst_backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "colza/server.hpp"
#include "des/simulation.hpp"
#include "ledger.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vis/data.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace colza;

struct PipelineShape {
  int clients;
  int clients_per_node;
  int blocks_per_client;
  std::uint32_t block_edge;
  int image;  // square image edge, pixels
  int servers_initial;
  int servers_final;  // > servers_initial: one SSG join per extra server
  int iterations;
  des::Duration compute_between;  // virtual compute per iteration
  int join_period;                // iterations between SSG joins
};

// Every charge_scoped call (block generation, dataset serialization, the
// pipeline's local compute) costs this much virtual time.
constexpr des::Duration kFixedCharge = des::milliseconds(2);

// Observes SSG views to time each elastic join: from launch_one() to the
// moment every member (the newcomer included) reports the grown size. Pure
// callbacks -- no DES events -- so it never changes the timeline.
class JoinClock {
 public:
  explicit JoinClock(des::Simulation& sim, StagingArea& area)
      : sim_(&sim), area_(&area) {}

  void launched(std::size_t expected_size) {
    pending_.push_back({sim_->now(), expected_size});
  }
  void watch(Server& s) {
    s.group().on_change([this](net::ProcId, ssg::MemberEvent) { check(); });
    check();
  }
  [[nodiscard]] const std::vector<double>& join_seconds() const {
    return done_;
  }

 private:
  void check() {
    while (!pending_.empty()) {
      const auto [t0, want] = pending_.front();
      const auto& servers = area_->servers();
      if (servers.size() < want) return;
      for (const auto& s : servers) {
        if (s->alive() && s->group().size() < want) return;
      }
      done_.push_back(des::to_seconds(sim_->now() - t0));
      pending_.erase(pending_.begin());
    }
  }

  struct Pending {
    des::Time t0;
    std::size_t size;
  };
  des::Simulation* sim_;
  StagingArea* area_;
  std::vector<Pending> pending_;
  std::vector<double> done_;
};

std::string pipeline_json(const PipelineShape& shape) {
  return std::string(R"({"preset":"mandelbulb","width":)") +
         std::to_string(shape.image) + R"(,"height":)" +
         std::to_string(shape.image) + "}";
}

// The set-up: simulation, staging area launched through SSG convergence,
// client processes with their communicator, pipeline created everywhere.
struct Deployment {
  Deployment(const PipelineShape& shape, const RepOptions& opt)
      : sim(des::SimConfig{.seed = opt.seed,
                           .fixed_scoped_charge = kFixedCharge}),
        net(sim),
        area(net, ServerConfig{},
             LaunchModel{des::milliseconds(20), 0.0, des::milliseconds(20)},
             opt.seed) {
    if (opt.traced) obs::Tracer::global().enable(sim);
    const std::uint64_t launch0 = host_ns();
    area.launch_initial(shape.servers_initial, /*base_node=*/1000);
    sim.run_until(des::seconds(2));
    launch_ms = seconds_between(launch0, host_ns()) * 1e3;
    const auto want = static_cast<std::size_t>(shape.servers_initial);
    bool converged = area.alive_count() == want;
    for (const auto& s : area.servers())
      converged = converged && s->group().size() == want;
    if (!converged) errors.push_back("staging area did not converge");

    std::vector<net::ProcId> addrs;
    for (int c = 0; c < shape.clients; ++c) {
      auto& p = net.create_process(
          static_cast<net::NodeId>(c / shape.clients_per_node));
      procs.push_back(&p);
      insts.push_back(std::make_unique<mona::Instance>(p));
      clients.push_back(std::make_unique<Client>(p));
      addrs.push_back(p.id());
    }
    for (auto& inst : insts) comms.push_back(inst->comm_create(addrs));
    for (const auto& s : area.servers()) {
      ++attempted;
      if (!s->create_pipeline("render", "catalyst", pipeline_json(shape)).ok())
        ++failed;
    }
  }

  des::Simulation sim;
  net::Network net;
  StagingArea area;
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::shared_ptr<mona::Communicator>> comms;
  double launch_ms = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

RepResult run_pipeline(const PipelineShape& shape, const RepOptions& opt) {
  RepResult res;
  std::unique_ptr<Deployment> d;
  res.setup_s = timed_setup(d, [&] {
    return std::make_unique<Deployment>(shape, opt);
  });
  res.attempted += d->attempted;
  res.failed += d->failed;
  res.errors = d->errors;
  des::Simulation& sim = d->sim;
  StagingArea& area = d->area;
  auto& procs = d->procs;
  auto& clients = d->clients;
  auto& comms = d->comms;
  const double launch_ms = d->launch_ms;
  const std::string json = pipeline_json(shape);

  // ---- measured phase.
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = shape.block_edge;
  mb.total_blocks =
      static_cast<std::uint32_t>(shape.clients * shape.blocks_per_client);
  // The seeded input: which client owns which block (a Fisher-Yates
  // shuffle), and so which servers each client stages to.
  std::vector<std::uint64_t> owner(mb.total_blocks);
  for (std::size_t i = 0; i < owner.size(); ++i) owner[i] = i;
  for (std::size_t i = owner.size(); i > 1; --i) {
    std::swap(owner[i - 1], owner[splitmix64(opt.seed * 977 + i) % i]);
  }

  JoinClock joins(sim, area);
  if (opt.traced) {
    for (const auto& s : area.servers()) joins.watch(*s);
  }
  // One SSG join after every join_period-th iteration, launched a seeded
  // 0-3 s into the next compute phase: the join converges while the
  // simulation computes, as in Fig 9, so no activate() races it.
  const int extra = shape.servers_final - shape.servers_initial;
  int launched = 0;
  auto maybe_join = [&](int iter) {
    if (shape.join_period == 0 || iter % shape.join_period != 0 ||
        launched == extra)
      return;
    const int k = ++launched;
    const des::Duration jitter = des::milliseconds(
        splitmix64(opt.seed * 31 + static_cast<std::uint64_t>(k)) % 3000);
    sim.schedule_after(jitter, [&, k] {
      joins.launched(static_cast<std::size_t>(shape.servers_initial + k));
      area.launch_one(static_cast<net::NodeId>(10 + k), [&](Server& s) {
        ++res.attempted;
        if (!s.create_pipeline("render", "catalyst", json).ok()) ++res.failed;
        if (opt.traced) joins.watch(s);
      });
    });
  };

  std::uint64_t blocks = 0;
  auto tally = [&res](const char* op, const Status& s) {
    ++res.attempted;
    if (s.ok()) return;
    if (res.failed++ == 0)
      res.errors.push_back(std::string("first failed operation: ") + op + ": " +
                           s.to_string());
  };
  // The clients' own collectives are the application's, not Colza
  // operations: a failure there is a broken run, not a failed verb.
  std::uint64_t app_comm_failures = 0;
  auto app = [&](const Status& s) {
    if (!s.ok()) ++app_comm_failures;
  };
  auto bytes_of = [](auto& v) {
    return std::span<std::byte>(reinterpret_cast<std::byte*>(&v), sizeof v);
  };
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t wall0 = host_ns();
  if (opt.traced) Ledger::global().start(sim);
  std::uint64_t unit_start = wall0;

  for (int c = 0; c < shape.clients; ++c) {
    procs[static_cast<std::size_t>(c)]->spawn(
        "client" + std::to_string(c), [&, c] {
          auto& comm = *comms[static_cast<std::size_t>(c)];
          auto barrier = [&] { app(comm.barrier()); };
          auto h = DistributedPipelineHandle::lookup(
              *clients[static_cast<std::size_t>(c)],
              area.bootstrap().contacts(), "render");
          tally("lookup", h.status());
          if (!h.has_value()) return;

          for (int iter = 1; iter <= shape.iterations; ++iter) {
            const auto it = static_cast<std::uint64_t>(iter);
            if (shape.compute_between > 0) sim.charge(shape.compute_between);
            std::vector<std::pair<std::uint64_t, vis::DataSet>> mine;
            for (int b = 0; b < shape.blocks_per_client; ++b) {
              const std::uint64_t id = owner[static_cast<std::size_t>(
                  c * shape.blocks_per_client + b)];
              mine.emplace_back(id, sim.charge_scoped([&] {
                HostSpan span(Layer::gen);
                return vis::DataSet{
                    apps::mandelbulb_block(mb, static_cast<std::uint32_t>(id))};
              }));
              ++blocks;
            }
            barrier();

            // Rank 0 activates and shares the agreed view with its peers.
            std::uint64_t n = 0, hash = 0;
            std::vector<net::ProcId> view;
            if (c == 0) {
              {
                HostSpan span(Layer::activate);
                tally("activate", h->activate(it));
              }
              view = h->view();
              n = view.size();
              hash = h->view_hash();
            }
            app(comm.bcast(bytes_of(n), 0));
            view.resize(n);
            app(comm.bcast(std::as_writable_bytes(std::span(view)), 0));
            app(comm.bcast(bytes_of(hash), 0));
            if (c != 0) h->set_view(std::move(view), hash);

            // Stage phase, bracketed by barriers; rank 0's span covers the
            // barrier-to-barrier interval.
            barrier();
            std::optional<HostSpan> stage_span;
            if (c == 0) stage_span.emplace(Layer::stage);
            for (auto& [block_id, ds] : mine)
              tally("stage", h->stage(it, block_id, ds));
            barrier();
            stage_span.reset();

            if (c == 0) {
              {
                HostSpan span(Layer::execute);
                tally("execute", h->execute(it));
              }
              {
                HostSpan span(Layer::deactivate);
                tally("deactivate", h->deactivate(it));
              }
            }
            barrier();
            if (c == 0) {
              const std::uint64_t t = host_ns();
              res.unit_ms.push_back(static_cast<double>(t - unit_start) / 1e6);
              unit_start = t;
              maybe_join(iter);
            }
          }
        });
  }
  sim.run();
  if (opt.traced) Ledger::global().stop();
  res.wall_s = seconds_between(wall0, host_ns());
  res.des_events = sim.events_processed() - events0;
  res.virtual_end = sim.now();
  if (app_comm_failures != 0)
    res.errors.push_back(std::to_string(app_comm_failures) +
                         " client collectives failed");

  // ---- outputs: composited images, pipeline statistics.
  std::map<std::uint64_t, std::vector<std::pair<int, std::uint64_t>>> images;
  double composite_bytes = 0, cells = 0, triangles = 0;
  for (const auto& s : area.servers()) {
    auto* backend = dynamic_cast<CatalystBackend*>(s->pipeline("render"));
    if (backend == nullptr) continue;
    for (const auto& r : backend->records()) {
      composite_bytes += static_cast<double>(r.stats.composite_bytes);
      cells += static_cast<double>(r.stats.cells_processed);
      triangles += static_cast<double>(r.stats.triangles_rendered);
      if (r.image_hash != 0)
        images[r.iteration].emplace_back(r.comm_size, r.image_hash);
    }
  }
  // The blocks are the same every iteration and depth compositing does not
  // depend on how they are spread over the servers, so every iteration, at
  // every staging-area size, must composite the one reference image.
  const colza::json::Value* want =
      opt.reference == nullptr ? nullptr : opt.reference->find("image_hash");
  const std::string want_hash =
      want != nullptr && want->is_string() ? want->as_string() : "";
  std::string observed = "image_hash";
  for (int iter = 1; iter <= shape.iterations; ++iter) {
    auto found = images.find(static_cast<std::uint64_t>(iter));
    if (found == images.end() || found->second.size() != 1) {
      res.errors.push_back("iteration " + std::to_string(iter) +
                           " has no single composited image");
      continue;
    }
    const auto [size, hash] = found->second.front();
    observed += " " + std::to_string(iter) + "@" + std::to_string(size) + ":" +
                hex64(hash);
    if (hex64(hash) != want_hash) {
      res.errors.push_back("iteration " + std::to_string(iter) + " on " +
                           std::to_string(size) + " servers: image " +
                           hex64(hash) + " differs from the reference");
    }
  }
  res.notes.push_back(observed);

  const auto final_servers = area.alive_count();
  if (final_servers != static_cast<std::size_t>(shape.servers_final)) {
    res.errors.push_back("staging area ended with " +
                         std::to_string(final_servers) + " servers, want " +
                         std::to_string(shape.servers_final));
  }

  if (opt.traced) {
    const auto& js = joins.join_seconds();
    double join_sum = 0;
    for (double s : js) join_sum += s;
    res.layer["apps.blocks"] = static_cast<double>(blocks);
    res.layer["colza.launch_ms"] = launch_ms;
    res.layer["icet.bytes"] = composite_bytes;
    res.layer["vis.cells"] = cells;
    res.layer["render.triangles"] = triangles;
    res.layer["ssg.join_vs"] =
        js.empty() ? 0.0 : join_sum / static_cast<double>(js.size());
    res.layer["ssg.members_final"] = static_cast<double>(final_servers);
    if (js.size() != static_cast<std::size_t>(extra))
      res.errors.push_back("not every SSG join converged");
    obs::Tracer::global().disable();
  }
  return res;
}

}  // namespace

RepResult run_elastic_mandelbulb(const RepOptions& opt) {
  PipelineShape shape{.clients = 16,
                      .clients_per_node = 16,
                      .blocks_per_client = 4,
                      .block_edge = 16,
                      .image = 128,
                      .servers_initial = 2,
                      .servers_final = 8,
                      .iterations = 16,
                      .compute_between = des::seconds(10),
                      .join_period = 2};
  if (opt.smoke) {
    shape.clients = 4;
    shape.blocks_per_client = 2;
    shape.block_edge = 8;
    shape.image = 32;
    shape.servers_final = 4;
    shape.iterations = 6;
  }
  return run_pipeline(shape, opt);
}

RepResult run_staging_flood(const RepOptions& opt) {
  PipelineShape shape{.clients = 512,
                      .clients_per_node = 32,
                      .blocks_per_client = 4,
                      .block_edge = 4,
                      .image = 32,
                      .servers_initial = 128,
                      .servers_final = 128,
                      .iterations = 8,
                      .compute_between = 0,
                      .join_period = 0};
  if (opt.smoke) {
    shape.clients = 32;
    shape.servers_initial = shape.servers_final = 8;
    shape.iterations = 2;
  }
  return run_pipeline(shape, opt);
}

}  // namespace perfbench
