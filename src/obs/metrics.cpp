#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

namespace colza::obs {
namespace {

json::Value metric_json(const Counter& c) {
  return json::Value(static_cast<double>(c.value));
}

json::Value metric_json(const Gauge& g) { return json::Value(g.value); }

json::Value metric_json(const Histogram& h) {
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

json::Value metric_json(const Watermark& w) {
  json::Object v;
  v["value"] = json::Value(static_cast<double>(w.value));
  v["peak"] = json::Value(static_cast<double>(w.peak));
  return json::Value(std::move(v));
}

// The merge rules of the process-wide view (see metrics.hpp).
void fold(Counter& into, const Counter& m) { into.value += m.value; }
void fold(Gauge& into, const Gauge& m) { into.value += m.value; }
void fold(Histogram& into, const Histogram& m) { into.merge(m); }
void fold(Watermark& into, const Watermark& m) {
  into.value += m.value;
  into.peak = std::max(into.peak, m.peak);
}

// One section of the document: every name that starts with `prefix`, merged
// over `scopes` (all of them when null). A name none of them holds is left
// out.
template <typename Map>
json::Value section(const Map& metrics, const std::vector<ScopeId>* scopes,
                    std::string_view prefix) {
  using Metric = typename Map::mapped_type::mapped_type;
  json::Object out;
  for (auto it = metrics.lower_bound(prefix);
       it != metrics.end() && it->first.starts_with(prefix); ++it) {
    Metric total;
    bool any = false;
    for (const auto& [scope, m] : it->second) {
      if (scopes != nullptr &&
          std::find(scopes->begin(), scopes->end(), scope) == scopes->end()) {
        continue;
      }
      fold(total, m);
      any = true;
    }
    if (any) out.emplace_hint(out.end(), it->first, metric_json(total));
  }
  return json::Value(std::move(out));
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto& counters = std::get<Scoped<Counter>>(metrics_);
  auto it = counters.find(name);
  if (it == counters.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [scope, c] : it->second) total += c.value;
  return total;
}

json::Value MetricsRegistry::merged(const std::vector<ScopeId>* scopes,
                                    std::string_view prefix) const {
  json::Object root;
  root["counters"] = section(std::get<0>(metrics_), scopes, prefix);
  root["gauges"] = section(std::get<1>(metrics_), scopes, prefix);
  root["histograms"] = section(std::get<2>(metrics_), scopes, prefix);
  root["watermarks"] = section(std::get<3>(metrics_), scopes, prefix);
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
  std::apply([](auto&... metrics) { (metrics.clear(), ...); }, metrics_);
  epochs_.clear();
  ++generation_;
}

}  // namespace colza::obs
