// Fig 4: time to resize a staging area from N to N+1 processes, comparing
//   static  -- kill the staging area and fully restart it with N+1 daemons
//              (measured: kill -> new area ready to accept requests);
//   elastic -- srun one new daemon that joins the running group via SSG
//              (measured: srun -> membership fully propagated).
//
// Paper result: elastic is stable around ~5 s; static ranges 5-40 s with an
// average around 16 s.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "colza/deploy.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"

namespace {

using namespace colza;

bool all_converged(const StagingArea& area, std::size_t expect) {
  std::size_t alive = 0;
  for (const auto& s : area.servers()) {
    if (!s->alive()) continue;
    ++alive;
    if (s->group().size() != expect) return false;
  }
  return alive == expect;
}

struct ResizeResult {
  double elastic_s = 0;
  double static_s = 0;
};

ResizeResult measure(int n, std::uint64_t seed) {
  ResizeResult out;

  // ---- elastic: running area of N, add one node --------------------------
  {
    des::Simulation sim(des::SimConfig{.seed = seed});
    net::Network net(sim);
    StagingArea area(net, ServerConfig{}, LaunchModel{}, seed);
    area.launch_initial(n, 0);
    sim.run_until(des::seconds(90));  // area fully up and settled
    const des::Time start = sim.now();  // "srun" issued now
    area.launch_one(static_cast<net::NodeId>(n));
    des::Time converged = 0;
    for (des::Time t = start; t < start + des::seconds(120);
         t += des::milliseconds(100)) {
      sim.run_until(t);
      if (all_converged(area, static_cast<std::size_t>(n) + 1)) {
        converged = sim.now();
        break;
      }
    }
    out.elastic_s = des::to_seconds(converged - start);
  }

  // ---- static: kill everything, restart with N+1 -------------------------
  {
    des::Simulation sim(des::SimConfig{.seed = seed});
    net::Network net(sim);
    StagingArea area(net, ServerConfig{}, LaunchModel{}, seed);
    area.launch_initial(n, 0);
    sim.run_until(des::seconds(90));
    const des::Time start = sim.now();  // kill signal
    area.kill_all();
    bool ready = false;
    des::Time ready_at = 0;
    area.launch_initial(n + 1, 100, [&] {
      ready = true;
      ready_at = sim.now();
    });
    sim.run_until(start + des::seconds(120));
    out.static_s = ready ? des::to_seconds(ready_at - start) : -1;
  }
  return out;
}

}  // namespace

int main() {
  using namespace colza::bench;
  headline("Fig 4 -- resizing a staging area from N to N+1 processes",
           "static full-restart vs elastic SSG join (paper Fig 4)");
  note("paper: elastic stable ~5 s; static 5-40 s, average ~16 s");

  Table table({"N", "elastic_s", "static_s"});
  double esum = 0, ssum = 0, emin = 1e9, emax = 0, smin = 1e9, smax = 0;
  int count = 0;
  for (int n = 1; n <= 16; ++n) {
    const ResizeResult r = measure(n, 1000 + static_cast<std::uint64_t>(n));
    table.row({std::to_string(n), fmt("%.2f", r.elastic_s),
               fmt("%.2f", r.static_s)});
    esum += r.elastic_s;
    ssum += r.static_s;
    emin = std::min(emin, r.elastic_s);
    emax = std::max(emax, r.elastic_s);
    smin = std::min(smin, r.static_s);
    smax = std::max(smax, r.static_s);
    ++count;
  }
  table.print("fig04");
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "summary: elastic avg %.2f s (range %.2f-%.2f), "
                "static avg %.2f s (range %.2f-%.2f)",
                esum / count, emin, emax, ssum / count, smin, smax);
  std::printf("\n%s\n", summary);
  // The timeline depends on the seeds alone (no host time is charged), so
  // the summary is pinned: any drift is a change to what Fig 4 shows.
  const char* const pinned =
      "summary: elastic avg 5.31 s (range 3.00-8.90), "
      "static avg 20.33 s (range 3.86-35.80)";
  if (std::strcmp(summary, pinned) != 0) {
    std::fprintf(stderr, "fig04: %s\nfig04: pinned  %s\n", summary, pinned);
    return 1;
  }
  return 0;
}
