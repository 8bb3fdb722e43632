// Fig 8: pipeline execution time for the Mandelbulb workload across four
// configurations -- Colza+MoNA, Colza+MPI, Damaris (dedicated-nodes mode),
// and DataSpaces.
//
// Paper result: Colza (both layers) outperforms Damaris; DataSpaces sits
// between Colza+MPI and Colza+MoNA ("DataSpaces ... outperforms Colza when
// Colza uses MoNA, but does not when it uses MPI"). Damaris pays for its
// per-client plugin trigger: a server whose clients signal early enters the
// plugin early and stalls in the first collective.
//
// Paper setup: 64 clients on 16 nodes, 64 servers on 16 nodes, 32 blocks of
// 1 MB per client. Scaled down here; client-side load imbalance is modeled
// as a uniform 0-200 ms jitter before staging/signaling. `--smoke` runs all
// four frameworks at 4 clients x 4 servers for three iterations (the tier-1
// bench-smoke test).
#include <cstdio>
#include <memory>

#include "apps/mandelbulb.hpp"
#include "baselines/damaris.hpp"
#include "baselines/dataspaces.hpp"
#include "bench/bench_util.hpp"
#include "bench/colza_harness.hpp"
#include "common/rng.hpp"

namespace {

using namespace colza;
using namespace colza::bench;

struct Size {
  int clients;
  int servers;
  int blocks_per_client;
  std::uint32_t edge;
  int iterations;  // the first is discarded
  int image;
};
const Size kFull{16, 16, 4, 16, 6, 256};
const Size kSmoke{4, 4, 2, 8, 3, 64};

apps::MandelbulbParams mb_params(const Size& size) {
  apps::MandelbulbParams p;
  p.nx = p.ny = p.nz = size.edge;
  p.total_blocks =
      static_cast<std::uint32_t>(size.clients * size.blocks_per_client);
  return p;
}

// Average pipeline execution time, first iteration discarded.
double avg_skip_first(const std::vector<double>& v) {
  double sum = 0;
  for (std::size_t i = 1; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 1);
}

double run_colza(const net::Profile& profile, const Size& size) {
  HarnessConfig cfg;
  cfg.servers = size.servers;
  cfg.servers_per_node = 4;
  cfg.clients = size.clients;
  cfg.clients_per_node = 4;
  cfg.server_profile = profile;
  cfg.pipeline_json = mandelbulb_pipeline_json(size.image);
  ColzaPipelineHarness harness(cfg);
  auto& sim = harness.sim();
  const apps::MandelbulbParams mb = mb_params(size);
  Rng jitter(77);
  auto gen = [&](int client, std::uint64_t) {
    // Load-imbalance jitter (same model as the other frameworks).
    sim.sleep_for(des::from_seconds(jitter.uniform() * 0.01));
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    for (int b = 0; b < size.blocks_per_client; ++b) {
      const auto id =
          static_cast<std::uint64_t>(client * size.blocks_per_client + b);
      blocks.emplace_back(id, sim.charge_scoped([&] {
        return vis::DataSet{
            apps::mandelbulb_block(mb, static_cast<std::uint32_t>(id))};
      }));
    }
    return blocks;
  };
  auto times = harness.run(size.iterations, gen);
  std::vector<double> exec;
  for (const auto& t : times) exec.push_back(des::to_seconds(t.execute));
  return avg_skip_first(exec);
}

double run_damaris(const Size& size) {
  des::Simulation sim(des::SimConfig{.seed = 55});
  net::Network net(sim);
  baselines::Damaris::Config cfg;
  cfg.clients = size.clients;
  cfg.servers = size.servers;
  cfg.procs_per_node = 4;
  cfg.script = catalyst::PipelineScript::mandelbulb();
  cfg.script.image_width = cfg.script.image_height = size.image;
  baselines::Damaris damaris(net, cfg);
  const apps::MandelbulbParams mb = mb_params(size);
  auto jitter = std::make_shared<Rng>(77);
  damaris.run(size.iterations, [&, jitter](int client, std::uint64_t iter) {
    sim.sleep_for(des::from_seconds(jitter->uniform() * 0.01));
    for (int b = 0; b < size.blocks_per_client; ++b) {
      const auto id =
          static_cast<std::uint32_t>(client * size.blocks_per_client + b);
      vis::UniformGrid block = sim.charge_scoped(
          [&] { return apps::mandelbulb_block(mb, id); });
      damaris.write(client, iter, vis::DataSet{std::move(block)}).check();
    }
    damaris.signal(client, iter, size.blocks_per_client).check();
  });
  sim.run();
  // Per iteration, the framework's pipeline time is the max over servers
  // (they all leave the last collective together; early entrants wait).
  std::vector<double> per_iter(size.iterations, 0.0);
  for (const auto& server_records : damaris.records()) {
    for (std::size_t i = 0; i < server_records.size(); ++i) {
      per_iter[i] = std::max(per_iter[i],
                             des::to_seconds(server_records[i].plugin_time));
    }
  }
  return avg_skip_first(per_iter);
}

double run_dataspaces(const Size& size) {
  des::Simulation sim(des::SimConfig{.seed = 55});
  net::Network net(sim);
  baselines::DataSpaces::Config cfg;
  cfg.servers = size.servers;
  cfg.procs_per_node = 4;
  cfg.script = catalyst::PipelineScript::mandelbulb();
  cfg.script.image_width = cfg.script.image_height = size.image;
  baselines::DataSpaces ds(net, cfg, /*base_node=*/100);
  const apps::MandelbulbParams mb = mb_params(size);

  // Client processes with their own application-side communicator (for the
  // barrier that separates puts from the trigger -- same pattern as the
  // Colza harness).
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<rpc::Engine>> engines;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int c = 0; c < size.clients; ++c) {
    auto& p = net.create_process(static_cast<net::NodeId>(c / 4));
    procs.push_back(&p);
    engines.push_back(std::make_unique<rpc::Engine>(p, net::Profile::mona()));
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  std::vector<std::shared_ptr<mona::Communicator>> comms;
  for (int c = 0; c < size.clients; ++c)
    comms.push_back(insts[static_cast<std::size_t>(c)]->comm_create(addrs));

  std::vector<double> exec_s;
  auto jitter = std::make_shared<Rng>(77);
  for (int c = 0; c < size.clients; ++c) {
    procs[static_cast<std::size_t>(c)]->spawn("ds-client", [&, c] {
      auto& comm = *comms[static_cast<std::size_t>(c)];
      for (int iter = 1; iter <= size.iterations; ++iter) {
        sim.sleep_for(des::from_seconds(jitter->uniform() * 0.01));
        for (int b = 0; b < size.blocks_per_client; ++b) {
          const auto id =
              static_cast<std::uint64_t>(c * size.blocks_per_client + b);
          auto bytes = sim.charge_scoped([&] {
            return vis::serialize_dataset(vis::DataSet{apps::mandelbulb_block(
                mb, static_cast<std::uint32_t>(id))});
          });
          ds.put(*engines[static_cast<std::size_t>(c)], "mb",
                 static_cast<std::uint64_t>(iter), id, bytes)
              .check();
        }
        comm.barrier().check();  // all puts done
        if (c == 0) {
          const des::Time t0 = sim.now();
          ds.exec(*engines[0], "mb", static_cast<std::uint64_t>(iter)).check();
          exec_s.push_back(des::to_seconds(sim.now() - t0));
          ds.drop(*engines[0], "mb", static_cast<std::uint64_t>(iter)).check();
        }
        comm.barrier().check();  // iteration done
      }
    });
  }
  sim.run();
  return avg_skip_first(exec_s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colza::bench;
  const Size& size = smoke_option(argc, argv) ? kSmoke : kFull;
  headline("Fig 8 -- Colza vs Damaris vs DataSpaces (Mandelbulb)",
           "avg pipeline execution time, first iteration discarded (paper "
           "Fig 8)");
  note("paper: Colza+MoNA ~= Colza+MPI < DataSpaces-ish < Damaris; "
       "DataSpaces between the two Colza variants");

  const double colza_mona = run_colza(net::Profile::mona(), size);
  const double colza_mpi = run_colza(net::Profile::cray_mpich(), size);
  const double damaris = run_damaris(size);
  const double dataspaces = run_dataspaces(size);

  Table table({"framework", "pipeline_s", "vs_colza_mona"});
  table.row({"colza+mona", fmt("%.4f", colza_mona), "1.000"});
  table.row({"colza+mpi", fmt("%.4f", colza_mpi),
             fmt("%.3f", colza_mpi / colza_mona)});
  table.row({"damaris", fmt("%.4f", damaris),
             fmt("%.3f", damaris / colza_mona)});
  table.row({"dataspaces", fmt("%.4f", dataspaces),
             fmt("%.3f", dataspaces / colza_mona)});
  table.print("fig08");
  return 0;
}
