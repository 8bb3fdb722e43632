// The metrics registry (src/obs/metrics.hpp): obs::Handle resolves a metric
// once and survives reset(), which drops every metric the registry holds.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace colza::obs {
namespace {

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
