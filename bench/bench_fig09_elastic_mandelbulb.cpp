// Fig 9: exercising elasticity with the Mandelbulb application -- Colza is
// resized from 2 to 8 nodes (one new node every 60 virtual seconds) while
// the application keeps iterating. The bench reports, per iteration, the
// durations of the activate / stage / execute / deactivate calls and the
// number of Colza servers in use.
//
// Expected shape (paper Fig 9): execute time steps DOWN at each resize, with
// a one-iteration spike when a new node joins (its pipeline must initialize
// VTK); activate / stage / deactivate stay negligible (paper: ~4 ms, ~100 ms
// and ~0.6 ms on average).
//
// Observability: `--trace out.json` writes a Chrome trace_event file whose
// per-phase span sums reproduce the table's totals (verified below), and
// `--metrics out.json` dumps the metrics registry with one snapshot per
// iteration. Tracing pins charge_scoped costs (fixed_scoped_charge) so two
// runs at the same seed produce byte-identical trace files. `--smoke` runs 4
// clients for three iterations with one node joining after the first (the
// tier-1 bench-smoke test). At the smoke size with `--trace`, both files are
// pinned: the bench exits 1 unless each one's FNV-1a equals the value below.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "apps/mandelbulb.hpp"
#include "bench/bench_util.hpp"
#include "bench/colza_harness.hpp"
#include "common/hash.hpp"
#include "obs/trace.hpp"

namespace {

struct Size {
  int clients;
  int blocks_per_client;
  std::uint32_t edge;
  int iterations;
  int image;
  int node_adds;  // one new Colza node every add_interval
  colza::des::Duration add_interval;
};
const Size kFull{16, 4, 16, 40, 128, 6, colza::des::seconds(60)};
const Size kSmoke{4, 2, 8, 3, 32, 1, colza::des::seconds(15)};

// FNV-1a of the smoke size's --trace and --metrics files (165,517 and 4,872
// bytes). The metrics file carries counts that each server records, so the
// pin also checks how the registry merges them.
constexpr std::uint64_t kSmokeTraceFnv = 0x78f20b3213c5e2b0ULL;
constexpr std::uint64_t kSmokeMetricsFnv = 0x73dea3135f55ab63ULL;

// False (and a line on stderr) unless the file at `path` hashes to `want`.
bool file_matches(const std::string& path, std::uint64_t want) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  const std::uint64_t got = colza::common::fnv1a_str(bytes);
  if (got == want) return true;
  std::fprintf(stderr, "%s: FNV-1a %016llx, pinned %016llx\n", path.c_str(),
               static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace colza;
  using namespace colza::bench;

  std::string trace_path, metrics_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--metrics out.json] "
                   "[--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  const Size& size = smoke ? kSmoke : kFull;

  headline("Fig 9 -- elasticity with Mandelbulb, 2 -> 8 Colza nodes",
           "per-call durations while adding a node every 60 s (paper Fig 9)");

  HarnessConfig cfg;
  cfg.servers = 2;
  cfg.servers_per_node = 1;  // paper: 1 Colza process per node here
  cfg.clients = size.clients;
  cfg.clients_per_node = 16;
  cfg.pipeline_json = mandelbulb_pipeline_json(size.image);
  cfg.compute_between_iterations = des::seconds(10);
  cfg.trace_path = trace_path;
  cfg.metrics_path = metrics_path;
  if (!trace_path.empty()) {
    // Host-independent charge_scoped costs: the virtual timeline (and hence
    // the trace bytes) depend only on the seed.
    cfg.fixed_scoped_charge = des::milliseconds(2);
  }

  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = size.edge;
  mb.total_blocks =
      static_cast<std::uint32_t>(size.clients * size.blocks_per_client);

  ColzaPipelineHarness harness(cfg);
  auto& sim = harness.sim();

  // One new Colza node every 60 s, up to 8 (paper S III-E1).
  for (int add = 0; add < size.node_adds; ++add) {
    sim.schedule_at(size.add_interval * static_cast<std::uint64_t>(add + 1),
                    [&harness, add] {
                      harness.add_server(static_cast<net::NodeId>(10 + add));
                    });
  }

  auto gen = [&](int client, std::uint64_t) {
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

  Table table({"iteration", "servers", "activate_ms", "stage_ms",
               "execute_ms", "deactivate_ms"});
  double act_sum = 0, stage_sum = 0, deact_sum = 0;
  for (const auto& t : times) {
    table.row({std::to_string(t.iteration), std::to_string(t.servers),
               fmt_ms(des::to_millis(t.activate)),
               fmt_ms(des::to_millis(t.stage)),
               fmt_ms(des::to_millis(t.execute)),
               fmt_ms(des::to_millis(t.deactivate))});
    act_sum += des::to_millis(t.activate);
    stage_sum += des::to_millis(t.stage);
    deact_sum += des::to_millis(t.deactivate);
  }
  table.print("fig09");
  std::printf("\naverages: activate %.2f ms, stage %.2f ms, deactivate "
              "%.3f ms (paper: ~4 ms, ~100 ms, ~0.6 ms)\n",
              act_sum / static_cast<double>(times.size()),
              stage_sum / static_cast<double>(times.size()),
              deact_sum / static_cast<double>(times.size()));

  if (!trace_path.empty()) {
    // Cross-check the trace against the table: the summed duration of the
    // rank-0 phase spans must equal the totals reported above (the spans
    // bracket exactly the measured intervals).
    double exec_sum = 0;
    for (const auto& t : times) exec_sum += des::to_millis(t.execute);
    // End events carry neither name nor category (Chrome trace format), so
    // match them to their begin by span id.
    std::map<std::uint64_t, std::pair<des::Time, std::string>> open;
    std::map<std::string, double> span_ms;
    for (const auto& e : obs::Tracer::global().events()) {
      if (e.phase == obs::TraceEvent::Phase::begin &&
          std::strcmp(e.cat, "phase") == 0) {
        open[e.span_id] = {e.ts, e.name};
      } else if (e.phase == obs::TraceEvent::Phase::end) {
        auto it = open.find(e.span_id);
        if (it != open.end()) {
          span_ms[it->second.second] += des::to_millis(e.ts - it->second.first);
          open.erase(it);
        }
      }
    }
    std::printf("\ntrace written to %s\n", trace_path.c_str());
    bool ok = true;
    const std::pair<const char*, double> expected[] = {
        {"phase.activate", act_sum},
        {"phase.stage", stage_sum},
        {"phase.execute", exec_sum},
        {"phase.deactivate", deact_sum}};
    for (const auto& [name, want] : expected) {
      const double got = span_ms[name];
      const bool match = std::abs(got - want) < 1e-6;
      ok = ok && match;
      std::printf("  %-16s span sum %10.3f ms  table sum %10.3f ms  %s\n",
                  name, got, want, match ? "match" : "MISMATCH");
    }
    if (!ok) {
      std::fprintf(stderr, "trace/table phase sums disagree\n");
      return 1;
    }
  }
  if (!metrics_path.empty()) {
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  // Without --trace, charge_scoped charges host time and nothing is pinned.
  if (smoke && !trace_path.empty()) {
    bool ok = file_matches(trace_path, kSmokeTraceFnv);
    if (!metrics_path.empty()) {
      ok = file_matches(metrics_path, kSmokeMetricsFnv) && ok;
    }
    if (!ok) return 1;
  }
  return 0;
}
