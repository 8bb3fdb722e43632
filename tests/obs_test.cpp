// The metrics registry (src/obs/metrics.hpp): obs::Handle resolves a metric
// once and survives reset(), which drops every metric the registry holds.
// The tracer (src/obs/trace.hpp): every DES charge becomes a compute span.
#include <gtest/gtest.h>

#include <cstddef>
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

}  // namespace
}  // namespace colza::obs
