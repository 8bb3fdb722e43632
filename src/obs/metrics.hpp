// Process-local metrics registry: counters, gauges and log2-bucketed
// histograms with O(1) hot-path recording.
//
// A reference the registry hands out stays valid until reset(), which drops
// every metric. Hot paths in objects that can outlive a reset hold an
// obs::Handle instead: it resolves its metric once and again only after a
// reset, so recording is a bare increment behind one integer compare.
// Everything is single-threaded by design, like the DES it observes, and
// recording never touches the virtual clock -- enabling metrics cannot
// change a timeline.
//
// Snapshots: snapshot("label") deep-copies the current values into an epoch
// list, so the bench harness can dump per-virtual-epoch (per-iteration)
// metric states next to the final totals. to_json()/dump_json() produce the
// machine-readable form the benches and tier2 sweeps write to disk.
//
// Naming convention (see docs/observability.md): dot-separated lowercase
// paths, subsystem first -- e.g. "rpc.breaker.open", "colza.bytes_staged",
// "supervisor.respawns_joined", "rpc.latency.colza.stage".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace colza::obs {

struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t n = 1) noexcept { value += n; }
};

struct Gauge {
  double value = 0.0;
  void set(double v) noexcept { value = v; }
  void add(double v) noexcept { value += v; }
};

// Level gauge that remembers its high-water mark. Used for resource
// occupancy (e.g. staged bytes against a flow-control budget) where the
// acceptance question is "did the level *ever* exceed X", which a plain
// Gauge sampled at snapshot time cannot answer.
struct Watermark {
  std::uint64_t value = 0;
  std::uint64_t peak = 0;
  void add(std::uint64_t n) noexcept {
    value += n;
    if (value > peak) peak = value;
  }
  void sub(std::uint64_t n) noexcept { value = n > value ? 0 : value - n; }
  void set(std::uint64_t v) noexcept {
    value = v;
    if (value > peak) peak = value;
  }
};

// Power-of-two bucketed histogram: bucket i counts samples v with
// 2^(i-1) < v <= 2^i (bucket 0 counts v == 0). Recording is a few integer
// ops -- no allocation, no search.
struct Histogram {
  static constexpr int kBuckets = 65;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  std::uint64_t buckets[kBuckets] = {};

  void record(std::uint64_t v) noexcept {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    int b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    ++buckets[b];
  }

  // Approximate quantile from the log2 buckets: walks to the bucket holding
  // the q-th sample and interpolates linearly inside its [2^(b-1), 2^b)
  // range, clamped to the recorded min/max. Accurate to one bucket (a factor
  // of two) -- enough for the p50/p99 summary lines the stats documents
  // carry without storing samples.
  [[nodiscard]] double approx_quantile(double q) const noexcept {
    if (count == 0) return 0.0;
    const double lo_clamp = static_cast<double>(min);
    const double hi_clamp = static_cast<double>(max);
    if (q <= 0.0) return lo_clamp;
    if (q >= 1.0) return hi_clamp;
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (buckets[b] == 0) continue;
      const std::uint64_t next = seen + buckets[b];
      if (static_cast<double>(next) >= target) {
        if (b == 0) return 0.0;
        const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
        const double hi = b >= 64 ? 18446744073709551616.0
                                  : static_cast<double>(std::uint64_t{1} << b);
        const double frac = (target - static_cast<double>(seen)) /
                            static_cast<double>(buckets[b]);
        const double v = lo + (hi - lo) * frac;
        return v < lo_clamp ? lo_clamp : (v > hi_clamp ? hi_clamp : v);
      }
      seen = next;
    }
    return hi_clamp;
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry. Outlives every Simulation; tests and benches
  // call reset() at scenario start so runs are comparable.
  static MetricsRegistry& global();

  // References stay valid until reset(); see Handle for longer-lived use.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  Watermark& watermark(const std::string& name) { return watermarks_[name]; }

  // Read-only access for tests; returns 0 / nullptr when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;
  [[nodiscard]] const Watermark* find_watermark(const std::string& name) const;

  // Deep-copies the current values into the epoch list under `label`
  // (e.g. "iteration-7"): the per-virtual-epoch snapshot facility.
  void snapshot(const std::string& label);

  // Current values as JSON; dump_json() adds the recorded epoch snapshots.
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] std::string dump_json() const;

  // Drops every metric and every snapshot, and bumps generation().
  void reset();

  // A metric reference taken in an older generation dangles.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Watermark> watermarks_;
  std::vector<std::pair<std::string, json::Value>> epochs_;
  std::uint64_t generation_ = 1;
};

// A metric resolved by name on first use and kept, then re-resolved on the
// first use after a reset(). Like a by-name lookup, it creates its metric
// when first used, not when constructed.
template <typename Metric>
class Handle {
 public:
  explicit Handle(std::string name,
                  MetricsRegistry& registry = MetricsRegistry::global())
      : registry_(&registry), name_(std::move(name)) {}

  Metric& operator*() {
    if (generation_ != registry_->generation()) {
      metric_ = &resolve();
      generation_ = registry_->generation();
    }
    return *metric_;
  }
  Metric* operator->() { return &**this; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  Metric& resolve() {
    if constexpr (std::is_same_v<Metric, Counter>) {
      return registry_->counter(name_);
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      return registry_->gauge(name_);
    } else {
      static_assert(std::is_same_v<Metric, Histogram>);
      return registry_->histogram(name_);
    }
  }

  MetricsRegistry* registry_;
  std::string name_;
  Metric* metric_ = nullptr;
  std::uint64_t generation_ = 0;  // registry generations start at 1
};

}  // namespace colza::obs
