#include "obs/metrics.hpp"

#include <utility>

namespace colza::obs {
namespace {

json::Value histogram_json(const Histogram& h) {
  json::Object v;
  v["count"] = json::Value(static_cast<double>(h.count));
  v["sum"] = json::Value(static_cast<double>(h.sum));
  v["min"] = json::Value(h.count == 0 ? 0.0 : static_cast<double>(h.min));
  v["max"] = json::Value(static_cast<double>(h.max));
  // Only non-empty buckets, as [bucket_index, count] pairs: the log2 layout
  // is sparse for latency data and this keeps dumps small.
  json::Array buckets;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    json::Array pair;
    pair.emplace_back(static_cast<double>(i));
    pair.emplace_back(static_cast<double>(h.buckets[i]));
    buckets.emplace_back(std::move(pair));
  }
  v["buckets"] = json::Value(std::move(buckets));
  return json::Value(std::move(v));
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const Watermark* MetricsRegistry::find_watermark(
    const std::string& name) const {
  auto it = watermarks_.find(name);
  return it == watermarks_.end() ? nullptr : &it->second;
}

json::Value MetricsRegistry::to_json() const {
  json::Object root;
  json::Object counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = json::Value(static_cast<double>(c.value));
  }
  root["counters"] = json::Value(std::move(counters));
  json::Object gauges;
  for (const auto& [name, g] : gauges_) {
    gauges[name] = json::Value(g.value);
  }
  root["gauges"] = json::Value(std::move(gauges));
  json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    histograms[name] = histogram_json(h);
  }
  root["histograms"] = json::Value(std::move(histograms));
  json::Object watermarks;
  for (const auto& [name, w] : watermarks_) {
    json::Object v;
    v["value"] = json::Value(static_cast<double>(w.value));
    v["peak"] = json::Value(static_cast<double>(w.peak));
    watermarks[name] = json::Value(std::move(v));
  }
  root["watermarks"] = json::Value(std::move(watermarks));
  return json::Value(std::move(root));
}

void MetricsRegistry::snapshot(const std::string& label) {
  epochs_.emplace_back(label, to_json());
}

std::string MetricsRegistry::dump_json() const {
  json::Value current = to_json();
  json::Object root = current.as_object();
  json::Array epochs;
  for (const auto& [label, snap] : epochs_) {
    json::Object e;
    e["label"] = json::Value(label);
    e["metrics"] = snap;
    epochs.emplace_back(std::move(e));
  }
  root["epochs"] = json::Value(std::move(epochs));
  return json::Value(std::move(root)).dump();
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  watermarks_.clear();
  epochs_.clear();
  ++generation_;
}

}  // namespace colza::obs
