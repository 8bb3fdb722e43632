// Scenario runner: drives a full Colza deployment from a JSON description,
// the way an operator's job script would. Covers deployment, application
// selection, pipeline configuration, an elastic schedule, and optional
// Chrome tracing -- without writing C++ for each experiment.
//
// Usage:  scenario_runner [scenario.json]
// With no argument a built-in demonstration scenario is used (printed first
// so it can serve as a template).
//
// Schema (all fields optional unless noted):
// {
//   "servers": 4, "servers_per_node": 4,
//   "clients": 8, "clients_per_node": 8,
//   "iterations": 10,
//   "app": "mandelbulb" | "gray-scott" | "dwi",        // required
//   "app_options": { ... },          // n / blocks / base_edge / growth ...
//   "pipeline": { ... catalyst config, see PipelineScript::from_json ... },
//   "server_comm": "mona" | "cray-mpich",
//   "elastic": [ {"iteration": 5, "add_servers": 2}, ... ],
//   "compute_seconds_between_iterations": 2.0,
//   "trace": "/tmp/trace.json",
//   "seed": 42
// }
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/dwi_proxy.hpp"
#include "apps/gray_scott.hpp"
#include "apps/mandelbulb.hpp"
#include "bench/colza_harness.hpp"
#include "common/json.hpp"

using namespace colza;
using namespace colza::bench;

namespace {

constexpr const char* kDefaultScenario = R"({
  "servers": 2, "clients": 4, "iterations": 6,
  "app": "gray-scott",
  "app_options": { "n": 32, "steps_per_iteration": 20 },
  "pipeline": { "preset": "gray-scott", "width": 128, "height": 128 },
  "elastic": [ { "iteration": 4, "add_servers": 2 } ],
  "compute_seconds_between_iterations": 2.0
})";

struct Scenario {
  HarnessConfig harness;
  int iterations = 6;
  std::string app;
  json::Value app_options;
  std::vector<std::pair<std::uint64_t, int>> elastic;  // iteration -> +N
};

Scenario parse_scenario(const json::Value& v) {
  Scenario s;
  s.harness.servers = static_cast<int>(v.number_or("servers", 2));
  s.harness.servers_per_node =
      static_cast<int>(v.number_or("servers_per_node", 4));
  s.harness.clients = static_cast<int>(v.number_or("clients", 4));
  s.harness.clients_per_node =
      static_cast<int>(v.number_or("clients_per_node", 8));
  s.harness.seed = static_cast<std::uint64_t>(v.number_or("seed", 42));
  s.harness.compute_between_iterations = des::from_seconds(
      v.number_or("compute_seconds_between_iterations", 0.0));
  if (v.string_or("server_comm", "mona") == "cray-mpich")
    s.harness.server_profile = net::Profile::cray_mpich();
  if (const auto* p = v.find("pipeline"); p != nullptr)
    s.harness.pipeline_json = p->dump();
  s.iterations = static_cast<int>(v.number_or("iterations", 6));
  s.app = v.string_or("app", "");
  if (const auto* o = v.find("app_options"); o != nullptr) s.app_options = *o;
  if (const auto* e = v.find("elastic"); e != nullptr && e->is_array()) {
    for (const auto& step : e->as_array()) {
      s.elastic.emplace_back(
          static_cast<std::uint64_t>(step.number_or("iteration", 0)),
          static_cast<int>(step.number_or("add_servers", 1)));
    }
  }
  s.harness.trace_path = v.string_or("trace", "");
  return s;
}

// A whole number >= `min` from app_options. Casting a negative, fractional
// or out-of-range double to an unsigned count is undefined, so such a value
// is rejected with a message naming the key.
std::uint32_t app_count(const json::Value& options, const char* key,
                        double fallback, std::uint32_t min) {
  const double v = options.number_or(key, fallback);
  if (!(v >= min && v <= std::numeric_limits<std::uint32_t>::max() &&
        v == std::floor(v))) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", v);
    throw std::invalid_argument(std::string("scenario: app_options.") + key +
                                " must be an integer >= " +
                                std::to_string(min) + ", got " + got);
  }
  return static_cast<std::uint32_t>(v);
}

// Builds the per-client data generator for the selected application.
DataGen make_generator(const Scenario& s, ColzaPipelineHarness& harness,
                       std::vector<std::unique_ptr<apps::GrayScott3D>>& solvers) {
  auto& sim = harness.sim();
  const int clients = s.harness.clients;

  if (s.app == "mandelbulb") {
    auto mb = std::make_shared<apps::MandelbulbParams>();
    // A block needs at least two points per edge (its spacing divides by
    // edge - 1).
    const std::uint32_t edge = app_count(s.app_options, "edge", 16, 2);
    mb->nx = mb->ny = mb->nz = edge;
    const std::uint32_t per_client =
        app_count(s.app_options, "blocks_per_client", 2, 1);
    const std::uint64_t total =
        static_cast<std::uint64_t>(std::max(clients, 0)) * per_client;
    if (total > std::numeric_limits<std::uint32_t>::max())
      throw std::invalid_argument(
          "scenario: clients x blocks_per_client exceeds 2^32 - 1 blocks");
    mb->total_blocks = static_cast<std::uint32_t>(total);
    return [&sim, mb, per_client](int client, std::uint64_t) {
      std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
      for (std::uint32_t b = 0; b < per_client; ++b) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(client) * per_client + b;
        blocks.emplace_back(id, sim.charge_scoped([&] {
          return vis::DataSet{apps::mandelbulb_block(
              *mb, static_cast<std::uint32_t>(id))};
        }));
      }
      return blocks;
    };
  }

  if (s.app == "gray-scott") {
    apps::GrayScott3D::Params p;
    p.n = static_cast<std::uint32_t>(s.app_options.number_or("n", 32));
    p.steps_per_iteration =
        static_cast<int>(s.app_options.number_or("steps_per_iteration", 10));
    solvers.resize(static_cast<std::size_t>(clients));
    return [&harness, &solvers, p, clients](int client, std::uint64_t)
               -> std::vector<std::pair<std::uint64_t, vis::DataSet>> {
      auto& solver = solvers[static_cast<std::size_t>(client)];
      if (solver == nullptr)
        solver = std::make_unique<apps::GrayScott3D>(p, client, clients);
      solver->step(&harness.client_comm(client)).check();
      std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
      blocks.emplace_back(static_cast<std::uint64_t>(client),
                          harness.sim().charge_scoped([&] {
                            return vis::DataSet{solver->block()};
                          }));
      return blocks;
    };
  }

  if (s.app == "dwi") {
    auto p = std::make_shared<apps::DwiParams>();
    p->blocks =
        static_cast<std::uint32_t>(s.app_options.number_or("blocks", 16));
    p->base_edge =
        static_cast<std::uint32_t>(s.app_options.number_or("base_edge", 20));
    p->growth_per_iteration = static_cast<std::uint32_t>(
        s.app_options.number_or("growth_per_iteration", 3));
    p->total_iterations = 1000000;  // the scenario decides when to stop
    const std::uint32_t per_client =
        p->blocks / static_cast<std::uint32_t>(clients);
    return [&sim, p, per_client](int client, std::uint64_t iteration) {
      std::vector<std::pair<std::uint64_t, vis::DataSet>> blocks;
      for (std::uint32_t b = 0; b < per_client; ++b) {
        const std::uint32_t id =
            static_cast<std::uint32_t>(client) * per_client + b;
        blocks.emplace_back(id, sim.charge_scoped([&] {
          return vis::DataSet{
              apps::dwi_block(*p, static_cast<int>(iteration), id)};
        }));
      }
      return blocks;
    };
  }

  throw std::runtime_error("scenario: unknown app '" + s.app +
                           "' (mandelbulb | gray-scott | dwi)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDefaultScenario;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open scenario file %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  } else {
    std::printf("no scenario file given; using the built-in demo:\n%s\n\n",
                kDefaultScenario);
  }

  Scenario scenario = parse_scenario(json::parse(text));
  ColzaPipelineHarness harness(scenario.harness);

  std::vector<std::unique_ptr<apps::GrayScott3D>> solvers;
  DataGen gen;
  try {
    gen = make_generator(scenario, harness, solvers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  int next_node = 500;
  BeforeIteration before = [&](std::uint64_t iteration) {
    for (const auto& [at, count] : scenario.elastic) {
      if (at != iteration) continue;
      std::printf("-- iteration %llu: adding %d server(s)\n",
                  static_cast<unsigned long long>(iteration), count);
      for (int i = 0; i < count; ++i)
        harness.add_server(static_cast<net::NodeId>(next_node++));
      harness.sim().sleep_for(des::seconds(8));
    }
  };

  auto results = harness.run(scenario.iterations, gen, before);
  std::printf("\n%-10s %-8s %-12s %-12s %-12s %-12s\n", "iteration",
              "servers", "activate_ms", "stage_ms", "execute_ms",
              "deactivate_ms");
  for (const auto& t : results) {
    std::printf("%-10llu %-8zu %-12.3f %-12.3f %-12.3f %-12.3f\n",
                static_cast<unsigned long long>(t.iteration), t.servers,
                des::to_millis(t.activate), des::to_millis(t.stage),
                des::to_millis(t.execute), des::to_millis(t.deactivate));
  }
  if (!scenario.harness.trace_path.empty()) {
    std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                scenario.harness.trace_path.c_str());
  }
  return 0;
}
