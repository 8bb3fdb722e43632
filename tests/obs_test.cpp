// The metrics registry (src/obs/metrics.hpp): obs::Handle resolves a metric
// once and survives reset(), which drops every metric the registry holds;
// scopes keep per-object metrics apart, and the process-wide readers merge
// them. The tracer (src/obs/trace.hpp): every DES charge becomes a compute
// span.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "des/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace colza::obs {
namespace {

// Each charge() lands in the Chrome trace as one "<fiber> [compute]" X span
// in virtual time, with pid = the fiber's tag and tid = its fiber id.
TEST(Tracer, RecordsChargedComputeSpans) {
  Tracer& tracer = Tracer::global();
  des::Simulation sim;
  tracer.enable(sim);
  std::uint64_t worker_a = 0;
  sim.spawn(
      "worker-a",
      [&] {
        worker_a = sim.current_fiber_id();
        sim.charge(des::milliseconds(3));
      },
      des::SpawnOptions{.tag = 7});
  sim.spawn("worker-b", [&] {
    sim.charge(des::milliseconds(1));
    sim.charge(des::milliseconds(2));
  });
  sim.run();
  tracer.disable();

  std::size_t spans = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.phase != TraceEvent::Phase::complete) continue;
    ++spans;
    EXPECT_STREQ(e.cat, "compute");
    if (e.name == "worker-a [compute]") {
      EXPECT_EQ(e.ts, 0u);
      EXPECT_EQ(e.dur, des::milliseconds(3));
      EXPECT_EQ(e.pid, 7u);
      EXPECT_EQ(e.tid, worker_a);
    }
  }
  EXPECT_EQ(spans, 3u);
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"name\":\"worker-a [compute]\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-b [compute]\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3000.000"), std::string::npos);  // 3 ms in us
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);          // the tag
}

TEST(MetricsHandle, RecordsThroughResetIntoTheFreshMetric) {
  MetricsRegistry reg;
  Handle<Counter> hits("test.hits", reg);
  Handle<Histogram> sizes("test.sizes", reg);
  hits->inc(3);
  sizes->record(100);
  EXPECT_EQ(reg.counter_value("test.hits"), 3u);

  reg.reset();
  EXPECT_EQ(reg.counter_value("test.hits"), 0u);
  EXPECT_EQ(reg.find_histogram("test.sizes"), nullptr);
  // The handles re-resolve: recording lands in the registry's new metrics
  // instead of the ones reset() freed.
  hits->inc(2);
  sizes->record(7);
  EXPECT_EQ(reg.counter_value("test.hits"), 2u);
  const Histogram* h = reg.find_histogram("test.sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 7u);
}

TEST(MetricsHandle, CreatesItsMetricOnFirstUseOnly) {
  MetricsRegistry reg;
  Handle<Counter> unused("test.unused", reg);
  Handle<Gauge> level("test.level", reg);
  EXPECT_EQ(reg.to_json().dump(), MetricsRegistry().to_json().dump());
  level->set(1.5);
  EXPECT_EQ(reg.gauge("test.level").value, 1.5);
  EXPECT_EQ(reg.to_json().find("counters")->as_object().count("test.unused"),
            0u);
}

// counter_value(name) and to_json() add a name's scopes up; the one-scope
// readers and to_json(scopes, prefix) see only what they ask for.
TEST(MetricsScopes, ProcessWideReadersSumOverScopes) {
  MetricsRegistry reg;
  const ScopeId a = reg.new_scope();
  const ScopeId b = reg.new_scope();
  reg.counter("test.hits").inc(1);
  reg.counter("test.hits", a).inc(2);
  reg.counter("test.hits", b).inc(5);
  reg.counter("other.hits", a).inc(7);
  reg.gauge("test.level", a).set(1.5);
  reg.gauge("test.level", b).set(2.0);
  EXPECT_EQ(reg.counter_value("test.hits"), 8u);
  EXPECT_EQ(reg.counter_value("test.hits", 0), 1u);
  EXPECT_EQ(reg.counter_value("test.hits", a), 2u);
  EXPECT_EQ(reg.counter_value("test.hits", b), 5u);
  EXPECT_EQ(reg.counter_value("test.hits", reg.new_scope()), 0u);

  const json::Value all = reg.to_json();
  EXPECT_EQ(all.find("counters")->number_or("test.hits", 0), 8.0);
  EXPECT_EQ(all.find("counters")->number_or("other.hits", 0), 7.0);
  EXPECT_EQ(all.find("gauges")->number_or("test.level", 0), 3.5);

  const json::Value only_a = reg.to_json({a}, "test.");
  EXPECT_EQ(only_a.find("counters")->as_object().size(), 1u);
  EXPECT_EQ(only_a.find("counters")->number_or("test.hits", 0), 2.0);
  EXPECT_EQ(only_a.find("gauges")->number_or("test.level", 0), 1.5);
  EXPECT_TRUE(only_a.find("histograms")->as_object().empty());
  const json::Value a_and_b = reg.to_json({a, b}, "");
  EXPECT_EQ(a_and_b.find("counters")->number_or("test.hits", 0), 7.0);
  EXPECT_EQ(a_and_b.find("counters")->number_or("other.hits", 0), 7.0);
}

// A histogram merged across scopes is the histogram that recorded every
// sample itself, down to the dump bytes.
TEST(MetricsScopes, MergedHistogramEqualsOneThatRecordedEverySample) {
  MetricsRegistry scoped;
  MetricsRegistry one;
  const ScopeId scopes[] = {scoped.new_scope(), scoped.new_scope(),
                            scoped.new_scope()};
  const std::uint64_t samples[] = {0, 1, 3, 900, 17, 1u << 20, 5, 64, 2};
  std::size_t i = 0;
  for (std::uint64_t v : samples) {
    scoped.histogram("test.sizes", scopes[i++ % 2]).record(v);
    one.histogram("test.sizes").record(v);
  }
  (void)scoped.histogram("test.sizes", scopes[2]);  // an empty scope
  EXPECT_EQ(scoped.to_json().dump(), one.to_json().dump());

  Histogram merged;
  for (ScopeId s : scopes) {
    merged.merge(*scoped.find_histogram("test.sizes", s));
  }
  const Histogram& want = *one.find_histogram("test.sizes");
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.min, want.min);
  EXPECT_EQ(merged.max, want.max);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(merged.buckets[b], want.buckets[b]) << "bucket " << b;
  }
}

// Merged watermarks: the levels add, and the peak is the highest any one
// scope reached -- not the sum of the peaks, which no moment ever held.
TEST(MetricsScopes, WatermarkValuesAddAndPeakIsTheHighestScopePeak) {
  MetricsRegistry reg;
  const ScopeId a = reg.new_scope();
  const ScopeId b = reg.new_scope();
  reg.watermark("test.bytes", a).add(10);
  reg.watermark("test.bytes", a).sub(8);
  reg.watermark("test.bytes", b).add(7);
  const json::Value doc = reg.to_json();
  const json::Value* w = doc.find("watermarks")->find("test.bytes");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->number_or("value", 0), 9.0);
  EXPECT_EQ(w->number_or("peak", 0), 10.0);
  EXPECT_EQ(reg.find_watermark("test.bytes", a)->value, 2u);
  EXPECT_EQ(reg.find_watermark("test.bytes", b)->peak, 7u);
  EXPECT_EQ(reg.find_watermark("test.bytes"), nullptr);  // nothing in scope 0
}

// reset() drops scoped metrics with the rest, and scoped Handles re-resolve
// into their own scope.
TEST(MetricsScopes, ResetDropsScopedMetricsAndHandlesReResolve) {
  MetricsRegistry reg;
  const ScopeId s = reg.new_scope();
  Handle<Counter> hits("test.hits", s, reg);
  Handle<Watermark> level("test.level", s, reg);
  hits->inc(3);
  level->add(4);
  reg.reset();
  EXPECT_EQ(reg.counter_value("test.hits"), 0u);
  EXPECT_EQ(reg.find_watermark("test.level", s), nullptr);
  EXPECT_EQ(reg.to_json().dump(), MetricsRegistry().to_json().dump());
  hits->inc(2);
  level->add(1);
  EXPECT_EQ(reg.counter_value("test.hits", s), 2u);
  EXPECT_EQ(reg.counter_value("test.hits", 0), 0u);
  EXPECT_EQ(reg.find_watermark("test.level", s)->peak, 1u);
}

// Scope ids are never handed out twice, not even across a reset(): a new
// object never inherits an old one's counts.
TEST(MetricsScopes, NewScopeNeverRepeatsAnId) {
  MetricsRegistry reg;
  std::set<ScopeId> seen;
  for (int i = 0; i < 100; ++i) {
    if (i == 50) reg.reset();
    const ScopeId s = reg.new_scope();
    EXPECT_NE(s, 0u);
    EXPECT_TRUE(seen.insert(s).second) << s;
  }
}

}  // namespace
}  // namespace colza::obs
