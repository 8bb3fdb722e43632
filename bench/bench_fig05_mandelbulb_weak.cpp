// Fig 5: execution time of the Mandelbulb pipeline using the MPI and MoNA
// communication layers at various scales (weak scaling: the number of blocks
// is proportional to the staging-area size, so the curve should be roughly
// flat and the MPI/MoNA curves should coincide).
//
// Paper setup: up to 512 client processes, 4 blocks of 128^3 per client,
// 4 clients per Colza server, staging area of 4..128 servers; 6 iterations,
// the first discarded (VTK/Python init), the next 5 averaged. This
// reproduction keeps the topology and measurement protocol and scales the
// block size down (see EXPERIMENTS.md). `--smoke` runs one small scale for
// three iterations (the tier-1 bench-smoke test).
#include <cstdio>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "bench/bench_util.hpp"
#include "bench/colza_harness.hpp"

namespace {

using namespace colza;
using namespace colza::bench;

constexpr int kBlocksPerClient = 4;
constexpr int kClientsPerServer = 4;

struct Size {
  std::vector<int> scales;  // staging-area sizes
  std::uint32_t block_edge;
  int iterations;  // discard #1, average the rest
  int image;
};
const Size kFull{{4, 8, 16, 32, 64, 128}, 12, 6, 128};
const Size kSmoke{{4}, 8, 3, 32};

double run_scale(int servers, const net::Profile& profile, const Size& size) {
  HarnessConfig cfg;
  cfg.servers = servers;
  cfg.servers_per_node = 4;
  cfg.clients = servers * kClientsPerServer;
  cfg.clients_per_node = 32;
  cfg.server_profile = profile;
  cfg.pipeline_json = mandelbulb_pipeline_json(size.image);

  const auto total_blocks =
      static_cast<std::uint32_t>(cfg.clients * kBlocksPerClient);
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = size.block_edge;
  mb.total_blocks = total_blocks;

  ColzaPipelineHarness harness(cfg);
  auto& sim = harness.sim();
  auto gen = [&](int client, std::uint64_t) {
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    for (int b = 0; b < kBlocksPerClient; ++b) {
      const auto id = static_cast<std::uint64_t>(client * kBlocksPerClient + b);
      blocks.emplace_back(id, sim.charge_scoped([&] {
        return vis::DataSet{
            apps::mandelbulb_block(mb, static_cast<std::uint32_t>(id))};
      }));
    }
    return blocks;
  };
  auto times = harness.run(size.iterations, gen);
  double sum = 0;
  int counted = 0;
  for (const auto& t : times) {
    if (t.iteration == 1) continue;  // discard the init iteration
    sum += des::to_seconds(t.execute);
    ++counted;
  }
  return sum / counted;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colza::bench;
  const Size& size = smoke_option(argc, argv) ? kSmoke : kFull;
  headline("Fig 5 -- Mandelbulb pipeline, weak scaling, MPI vs MoNA",
           "avg pipeline execution time over 5 iterations, first discarded "
           "(paper Fig 5)");
  note("paper: roughly flat ~2.5-4 s at all scales, MPI ~= MoNA; absolute "
       "values here are smaller (scaled-down blocks), the shape is the claim");

  Table table({"servers", "clients", "mpi_s", "mona_s", "mona_over_mpi"});
  for (int servers : size.scales) {
    const double mpi = run_scale(servers, net::Profile::cray_mpich(), size);
    const double mona = run_scale(servers, net::Profile::mona(), size);
    table.row({std::to_string(servers),
               std::to_string(servers * kClientsPerServer),
               fmt("%.4f", mpi), fmt("%.4f", mona),
               fmt("%.3f", mona / mpi)});
  }
  table.print("fig05");
  return 0;
}
