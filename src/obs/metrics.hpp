// Process-local metrics registry: counters, gauges, watermarks and
// log2-bucketed histograms with O(1) hot-path recording. It is the one store
// of counts: an object whose numbers are asked for one at a time (a server,
// its flow control, its viewer tier) records them into a scope of its own.
//
// Scopes: a metric is keyed by (name, scope); scope 0 is process-wide, and
// new_scope() never repeats an id. counter_value(name) and to_json() /
// dump_json() read the process-wide view: counters and gauges add across
// scopes, histograms merge as if one had recorded every sample, and a
// watermark's value adds while its peak is the highest any one scope
// reached. to_json(scopes, prefix) reads a chosen set of scopes.
//
// A reference the registry hands out stays valid until reset(), which drops
// every metric of every scope. Hot paths in objects that can outlive a reset
// hold an obs::Handle instead: it resolves its metric once and again only
// after a reset, so recording is a bare increment behind one integer compare.
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

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace colza::obs {

// Which object a metric belongs to; 0 is the process-wide scope.
using ScopeId = std::uint64_t;

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

  // Folds `o` in: the result is what one histogram recording both sample
  // sets would hold.
  void merge(const Histogram& o) noexcept {
    count += o.count;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    for (int b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
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

  // An id this registry never handed out before, not even across reset().
  [[nodiscard]] ScopeId new_scope() noexcept { return next_scope_++; }

  // References stay valid until reset(); see Handle for longer-lived use.
  template <typename Metric>
  Metric& get(const std::string& name, ScopeId scope = 0) {
    return std::get<Scoped<Metric>>(metrics_)[name][scope];
  }
  Counter& counter(const std::string& name, ScopeId scope = 0) {
    return get<Counter>(name, scope);
  }
  Gauge& gauge(const std::string& name, ScopeId scope = 0) {
    return get<Gauge>(name, scope);
  }
  Histogram& histogram(const std::string& name, ScopeId scope = 0) {
    return get<Histogram>(name, scope);
  }
  Watermark& watermark(const std::string& name, ScopeId scope = 0) {
    return get<Watermark>(name, scope);
  }

  // Read-only, one scope: nullptr / 0 when absent.
  template <typename Metric>
  [[nodiscard]] const Metric* find(const std::string& name,
                                   ScopeId scope = 0) const {
    const auto& metrics = std::get<Scoped<Metric>>(metrics_);
    auto it = metrics.find(name);
    if (it == metrics.end()) return nullptr;
    auto sit = it->second.find(scope);
    return sit == it->second.end() ? nullptr : &sit->second;
  }
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                ScopeId scope = 0) const {
    return find<Histogram>(name, scope);
  }
  [[nodiscard]] const Watermark* find_watermark(const std::string& name,
                                                ScopeId scope = 0) const {
    return find<Watermark>(name, scope);
  }
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            ScopeId scope) const {
    const Counter* c = find<Counter>(name, scope);
    return c == nullptr ? 0 : c->value;
  }
  // The process-wide total: the sum over every scope.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  // Deep-copies the current values into the epoch list under `label`
  // (e.g. "iteration-7"): the per-virtual-epoch snapshot facility.
  void snapshot(const std::string& label);

  // Current values as JSON, every scope merged by name; dump_json() adds
  // the recorded epoch snapshots.
  [[nodiscard]] json::Value to_json() const { return merged(nullptr, ""); }
  [[nodiscard]] std::string dump_json() const;
  // The same document over `scopes` only, and only the names that start
  // with `prefix`.
  [[nodiscard]] json::Value to_json(const std::vector<ScopeId>& scopes,
                                    std::string_view prefix) const {
    return merged(&scopes, prefix);
  }

  // Drops every metric and every snapshot, and bumps generation().
  void reset();

  // A metric reference taken in an older generation dangles.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  // name -> scope -> metric. Names compare transparently, so a prefix scan
  // can start at a string_view.
  template <typename Metric>
  using Scoped = std::map<std::string, std::map<ScopeId, Metric>, std::less<>>;

  // The document over `scopes` (every scope when null).
  [[nodiscard]] json::Value merged(const std::vector<ScopeId>* scopes,
                                   std::string_view prefix) const;

  std::tuple<Scoped<Counter>, Scoped<Gauge>, Scoped<Histogram>,
             Scoped<Watermark>>
      metrics_;
  std::vector<std::pair<std::string, json::Value>> epochs_;
  std::uint64_t generation_ = 1;
  ScopeId next_scope_ = 1;
};

// A metric resolved by (name, scope) on first use and kept, then re-resolved
// on the first use after a reset(). Like a by-name lookup, it creates its
// metric when first used, not when constructed.
template <typename Metric>
class Handle {
 public:
  explicit Handle(std::string name, ScopeId scope = 0,
                  MetricsRegistry& registry = MetricsRegistry::global())
      : registry_(&registry), name_(std::move(name)), scope_(scope) {}
  Handle(std::string name, MetricsRegistry& registry)
      : Handle(std::move(name), 0, registry) {}

  Metric& operator*() {
    if (generation_ != registry_->generation()) {
      metric_ = &registry_->template get<Metric>(name_, scope_);
      generation_ = registry_->generation();
    }
    return *metric_;
  }
  Metric* operator->() { return &**this; }

  // The metric as recorded so far, without creating it: a zero metric while
  // nothing has recorded it since the last reset().
  [[nodiscard]] Metric read() const {
    const Metric* m = registry_->template find<Metric>(name_, scope_);
    return m == nullptr ? Metric{} : *m;
  }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  ScopeId scope_;
  Metric* metric_ = nullptr;
  std::uint64_t generation_ = 0;  // registry generations start at 1
};

}  // namespace colza::obs
