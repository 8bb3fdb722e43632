// Fig 6: execution time of the Gray-Scott pipeline (multi-level isosurfaces
// + clip) using MPI or MoNA at various scales, with a FIXED total data size
// (strong scaling: time decreases with servers, MPI ~= MoNA).
//
// Paper setup: 512 client processes on 16 nodes, 2 GB per iteration, staging
// area of 4..128 servers. This reproduction runs the real reaction-diffusion
// solver (with halo exchange across client ranks) on a scaled-down grid.
// `--smoke` runs one scale for three iterations (the tier-1 bench-smoke test,
// the one tier-1 run of the clipped multi-level isosurface pipeline).
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/gray_scott.hpp"
#include "bench/bench_util.hpp"
#include "bench/colza_harness.hpp"

namespace {

using namespace colza;
using namespace colza::bench;

constexpr int kClients = 16;
constexpr std::uint32_t kGrid = 48;  // global cube edge

struct Size {
  std::vector<int> scales;  // staging-area sizes
  int iterations;           // discard #1, average the rest
};
const Size kFull{{4, 8, 16, 32, 64}, 6};
const Size kSmoke{{4}, 3};

double run_scale(int servers, const net::Profile& profile, int iterations) {
  HarnessConfig cfg;
  cfg.servers = servers;
  cfg.servers_per_node = 4;
  cfg.clients = kClients;
  cfg.clients_per_node = 16;
  cfg.server_profile = profile;
  cfg.pipeline_json =
      R"({"preset":"gray-scott","width":128,"height":128,"range_hi":0.5})";

  ColzaPipelineHarness harness(cfg);
  std::vector<std::unique_ptr<apps::GrayScott>> solvers(kClients);
  apps::GrayScott::Params params;
  params.n = kGrid;
  params.steps_per_iteration = 3;

  auto gen = [&](int client, std::uint64_t)
      -> std::vector<std::pair<std::uint64_t, vis::DataSet>> {
    auto& solver = solvers[static_cast<std::size_t>(client)];
    if (solver == nullptr)
      solver = std::make_unique<apps::GrayScott>(params, client, kClients);
    solver->step(&harness.client_comm(client)).check();
    std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
    blocks.emplace_back(static_cast<std::uint64_t>(client),
                        harness.sim().charge_scoped([&] {
                          return vis::DataSet{solver->block()};
                        }));
    return blocks;
  };
  auto times = harness.run(iterations, gen);
  double sum = 0;
  int counted = 0;
  for (const auto& t : times) {
    if (t.iteration == 1) continue;
    sum += des::to_seconds(t.execute);
    ++counted;
  }
  return sum / counted;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colza::bench;
  const Size& size = smoke_option(argc, argv) ? kSmoke : kFull;
  headline("Fig 6 -- Gray-Scott pipeline, strong scaling, MPI vs MoNA",
           "avg pipeline execution time, fixed total data (paper Fig 6)");
  note("paper: time decreases with servers (~8 s at 4 servers to <1 s at "
       "128), MPI ~= MoNA");

  Table table({"servers", "mpi_s", "mona_s", "mona_over_mpi"});
  double first_mpi = 0;
  for (int servers : size.scales) {
    const double mpi =
        run_scale(servers, net::Profile::cray_mpich(), size.iterations);
    const double mona = run_scale(servers, net::Profile::mona(), size.iterations);
    if (servers == 4) first_mpi = mpi;
    table.row({std::to_string(servers), fmt("%.4f", mpi), fmt("%.4f", mona),
               fmt("%.3f", mona / mpi)});
  }
  table.print("fig06");
  std::printf("\nstrong-scaling check: 4-server time should exceed 64-server "
              "time (got %.4f s at 4 servers)\n", first_mpi);
  return 0;
}
