// perfbench: one repetition of one workload of the host-time benchmark
// (README.md). perfbench/run.py runs this binary once per repetition, each
// in a fresh process, and reduces the repetitions to the reported metrics.
//
//   perfbench --workload <name> --seed <n> --trace <0|1>
//             --reference <reference.json> [--size full|smoke]
//
// A repetition builds the deployment (5 times, keeping the last), runs the
// measured phase once and checks the outputs. The last line of stdout is one
// JSON object describing it; correctness-check failures are listed in its
// "errors" array. --trace 1 turns on the host ledger and obs::Tracer and
// fills the per-layer numbers.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/json.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using colza::json::Value;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string size = "full";
  std::string reference;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (k == "--size") a.size = v;
    else if (k == "--reference") a.reference = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() &&
         (a.size == "full" || a.size == "smoke");
}

// Per-layer numbers every workload shares: the host ledger, the metrics
// registry, the buffer pool and the obs trace of the repetition just run.
void generic_layers(RepResult& r, double pool_hits, double pool_misses) {
  const Ledger& led = Ledger::global();
  auto& m = r.layer;
  m["apps.gen_ms"] = led.ms(Layer::gen);
  m["colza.activate_ms"] = led.ms(Layer::activate);
  m["colza.stage_ms"] = led.ms(Layer::stage);
  m["colza.execute_ms"] = led.ms(Layer::execute);
  m["colza.deactivate_ms"] = led.ms(Layer::deactivate);
  m["colza.other_ms"] = led.other_ms();
  m["viewer.produce_ms"] = led.ms(Layer::produce);
  m["viewer.serve_ms"] = led.ms(Layer::serve);
  m["des.fibers_peak"] = static_cast<double>(led.fibers_peak());
  m["des.events"] = static_cast<double>(r.des_events);

  const auto& reg = colza::obs::MetricsRegistry::global();
  const double units =
      static_cast<double>(std::max<std::size_t>(1, r.unit_ms.size()));
  m["colza.prepare_per_iter"] =
      histogram_count("rpc.latency.colza.prepare") / units;
  m["colza.aborts"] = histogram_count("rpc.latency.colza.abort");
  m["colza.bytes_staged"] = counter("colza.bytes_staged");
  m["rpc.calls"] = rpc_calls(reg.to_json());
  m["rpc.breaker_open"] = counter("rpc.breaker.open");
  m["common.integrity_verify"] = counter("integrity.verify");
  m["common.integrity_mismatch"] = counter("integrity.mismatch");
  m["flow.busy_retries"] = counter("flow.client.busy");
  const double pool_total = pool_hits + pool_misses;
  m["common.pool_hit_rate"] = pool_total == 0 ? 0.0 : pool_hits / pool_total;

  // Virtual-time spans of the existing obs instrumentation.
  std::map<std::uint64_t, std::pair<colza::des::Time, bool>> open;
  double mona_n = 0, mona_vms = 0, icet_n = 0, icet_vms = 0;
  using Phase = colza::obs::TraceEvent::Phase;
  for (const auto& e : colza::obs::Tracer::global().events()) {
    if (e.phase == Phase::begin) {
      if (std::strcmp(e.cat, "mona") == 0) {
        open[e.span_id] = {e.ts, true};
        ++mona_n;
      } else if (e.name == "icet.composite") {
        open[e.span_id] = {e.ts, false};
        ++icet_n;
      }
    } else if (e.phase == Phase::end) {
      auto it = open.find(e.span_id);
      if (it == open.end()) continue;
      const double vms = colza::des::to_millis(e.ts - it->second.first);
      (it->second.second ? mona_vms : icet_vms) += vms;
      open.erase(it);
    }
  }
  m["mona.collectives"] = mona_n;
  m["mona.wait_vms"] = mona_vms;
  m["icet.composites"] = icet_n;
  m["icet.composite_vms"] = icet_vms;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string json_array(const std::vector<T>& v, F item) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i == 0 ? "" : ", ") + item(v[i]);
  return out + "]";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --trace <0|1> "
                 "--reference <file> [--size full|smoke]\n",
                 argv[0]);
    return 2;
  }
  const std::map<std::string, std::function<RepResult(const RepOptions&)>>
      workloads = {{"elastic-mandelbulb", run_elastic_mandelbulb},
                   {"staging-flood", run_staging_flood},
                   {"bulk-qos", run_bulk_qos},
                   {"viewer-fanout", run_viewer_fanout}};
  const auto wl = workloads.find(args.workload);
  if (wl == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<std::string> errors;
  Value reference;
  const Value* ref_entry = nullptr;
  {
    std::ifstream in(args.reference);
    std::stringstream text;
    text << in.rdbuf();
    try {
      reference = colza::json::parse(text.str());
      const Value* w =
          reference.is_object() ? reference.find(args.workload) : nullptr;
      ref_entry = w == nullptr ? nullptr : w->find(args.size);
    } catch (const std::exception& ex) {
      errors.push_back(std::string("cannot parse reference: ") + ex.what());
    }
    if (ref_entry == nullptr)
      errors.push_back("no reference entry for " + args.workload + "/" +
                       args.size);
  }

  auto& pool = colza::common::BufferPool::global();
  const double hits0 = static_cast<double>(pool.hits());
  const double misses0 = static_cast<double>(pool.misses());
  RepResult r = wl->second(RepOptions{.seed = args.seed,
                                      .smoke = args.size == "smoke",
                                      .traced = args.trace,
                                      .reference = ref_entry});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  if (args.trace) {
    generic_layers(r, static_cast<double>(pool.hits()) - hits0,
                   static_cast<double>(pool.misses()) - misses0);
    // Self-check: the ledger's layers plus "other" cover the measured
    // phase's wall time, and every span was closed.
    const double wall_ms = r.wall_s * 1e3;
    const double attributed = Ledger::global().attributed_ms();
    if (!Ledger::global().balanced())
      r.errors.push_back("host spans left open or closed twice");
    if (std::abs(attributed - wall_ms) > std::max(1.0, 0.005 * wall_ms)) {
      r.errors.push_back("host spans + other = " + std::to_string(attributed) +
                         " ms, traced wall = " + std::to_string(wall_ms) +
                         " ms");
    }
  }
  errors.insert(errors.end(), r.errors.begin(), r.errors.end());

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  auto num = [](double v) { return json_number(v); };
  std::string layer = "{";
  for (const auto& [name, v] : r.layer)
    layer += (layer.size() == 1 ? "" : ", ") + json_string(name) + ": " +
             json_number(v);
  layer += "}";
  std::printf(
      "{\"setup_s\": %s, \"wall_s\": %s, \"unit_ms\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"des_events\": %llu, \"virtual_end_ns\": %llu, "
      "\"peak_rss_mb\": %s, \"errors\": %s, \"notes\": %s, "
      "\"layer\": %s, \"build\": {\"build_type\": %s, \"cxx_flags\": %s, "
      "\"compiler\": %s, \"optimized\": %s}}\n",
      num(r.setup_s).c_str(), num(r.wall_s).c_str(),
      json_array(r.unit_ms, num).c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.des_events),
      static_cast<unsigned long long>(r.virtual_end), num(peak_rss_mb).c_str(),
      json_array(errors, json_string).c_str(),
      json_array(r.notes, json_string).c_str(), layer.c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), optimized ? "true" : "false");
  return 0;
}
