// Shared types of the perfbench workloads (see README.md).
//
// A workload function builds one deployment from the seed, runs its
// measured phase once (a "repetition"), checks its outputs, and returns the
// repetition's numbers. main.cpp prints them; run.py starts one process per
// repetition and reduces the repetitions to the reported metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "des/time.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  bool smoke = false;   // tiny size for the benchmark's own tests
  bool traced = false;  // host ledger + obs::Tracer on
  // The workload's entry in reference.json (expected outputs).
  const colza::json::Value* reference = nullptr;
};

struct RepResult {
  double setup_s = 0;  // host: deployment construction
  double wall_s = 0;   // host: measured phase
  std::vector<double> unit_ms;  // host ms per closed-loop unit
  std::uint64_t attempted = 0;  // client-visible operations
  std::uint64_t failed = 0;
  // Virtual-time digest of the measured phase: identical across
  // repetitions, traced or not, for one seed.
  std::uint64_t des_events = 0;
  colza::des::Time virtual_end = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<std::string> notes;   // observed values, printed as-is
  // Per-layer metrics (filled in traced repetitions; zero elsewhere).
  std::map<std::string, double> layer;
};

RepResult run_elastic_mandelbulb(const RepOptions& opt);
RepResult run_staging_flood(const RepOptions& opt);
RepResult run_bulk_qos(const RepOptions& opt);
RepResult run_viewer_fanout(const RepOptions& opt);

// ---- helpers shared by the workloads ---------------------------------------

inline double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Builds a deployment kSetupBuilds times and keeps the last build for the
// measured phase; returns the median build time. One build is too short to
// time alone (well under a millisecond for small deployments). The count is
// fixed, not time-based, so the allocation history -- and with it the peak
// RSS -- does not depend on host speed.
inline constexpr int kSetupBuilds = 5;

template <typename D, typename Make>
double timed_setup(std::unique_ptr<D>& out, Make make) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupBuilds; ++i) {
    out.reset();
    const std::uint64_t t0 = host_ns();
    out = make();
    samples.push_back(seconds_between(t0, host_ns()));
  }
  return median(samples);
}

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Sum of the counts of every rpc.latency.* histogram: one sample per
// completed RPC call, so this is the number of calls the run made.
inline double rpc_calls(const colza::json::Value& metrics) {
  double calls = 0;
  const colza::json::Value* hists = metrics.find("histograms");
  if (hists == nullptr) return 0;
  for (const auto& [name, h] : hists->as_object()) {
    if (name.rfind("rpc.latency.", 0) == 0) calls += h.number_or("count", 0);
  }
  return calls;
}

inline double histogram_count(const std::string& name) {
  const colza::obs::Histogram* h =
      colza::obs::MetricsRegistry::global().find_histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count);
}

inline double counter(const std::string& name) {
  return static_cast<double>(
      colza::obs::MetricsRegistry::global().counter_value(name));
}

}  // namespace perfbench
