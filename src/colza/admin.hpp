// The Colza admin interface -- deliberately a separate library from the
// client (paper S II-B: "We kept it separate from Colza's client library
// because of the entirely different nature of its functionalities"). It can
// be used by the simulation, by the user via external tools, or by any agent
// that needs to change the staging area's size or the analysis being done.
#pragma once

#include <string>

#include "common/json.hpp"
#include "common/status.hpp"
#include "rpc/engine.hpp"

namespace colza {

class Admin {
 public:
  explicit Admin(rpc::Engine& engine) : engine_(&engine) {}

  // Deploys a pipeline on one server: the pipeline's name, its type (the
  // registered factory standing in for the shared-library path) and an
  // optional JSON configuration string.
  Status create_pipeline(net::ProcId server, const std::string& name,
                         const std::string& type,
                         const std::string& json_config = "") {
    auto r = engine_->call_raw(server, "colza.admin.create_pipeline",
                               pack(name, type, json_config));
    return r.status();
  }

  Status destroy_pipeline(net::ProcId server, const std::string& name) {
    auto r = engine_->call_raw(server, "colza.admin.destroy_pipeline",
                               pack(name));
    return r.status();
  }

  // Requests a server to leave the staging area and shut down (the paper's
  // scale-down path, S II-F b).
  Status request_leave(net::ProcId server) {
    auto r = engine_->call_raw(server, "colza.admin.leave", {});
    return r.status();
  }

  // Fetches a pipeline's statistics document (see Backend::stats); useful
  // for external monitors and RPC-driven autoscalers.
  Expected<json::Value> get_stats(net::ProcId server,
                                  const std::string& pipeline) {
    auto r = engine_->call_raw(server, "colza.admin.stats", pack(pipeline));
    if (!r.has_value()) return r.status();
    std::string dump;
    unpack(*r, dump);
    return json::parse(dump);
  }

  // QoS: sets a pipeline's weight in the server's deficit-round-robin grant
  // queue (docs/flow.md). Weights are per server; apply to the whole view
  // for a fleet-wide policy.
  Status set_weight(net::ProcId server, const std::string& pipeline,
                    std::uint32_t weight) {
    auto r = engine_->call_raw(server, "colza.admin.set_weight",
                               pack(pipeline, weight));
    return r.status();
  }

  // Fetches a server's flow-control state: budget, bytes in use, injected
  // pressure, grant-queue depth, outstanding grants and per-pipeline weights.
  // Its counts (grants, sheds, staged bytes) are metrics: get_metrics "flow.".
  Expected<json::Value> get_quota(net::ProcId server) {
    auto r = engine_->call_raw(server, "colza.admin.quota", {});
    if (!r.has_value()) return r.status();
    std::string dump;
    unpack(*r, dump);
    return json::parse(dump);
  }

  // Fetches a server's metrics whose names start with `prefix` -- its own
  // (integrity.*, colza.server.*), its flow control's (flow.*) and its viewer
  // tier's (viewer.*) -- as a registry document: counters, gauges,
  // histograms and watermarks (docs/observability.md). "" returns them all.
  Expected<json::Value> get_metrics(net::ProcId server,
                                    const std::string& prefix) {
    auto r = engine_->call_raw(server, "colza.admin.metrics", pack(prefix));
    if (!r.has_value()) return r.status();
    std::string dump;
    unpack(*r, dump);
    return json::parse(dump);
  }

  Expected<std::vector<std::string>> list_pipelines(net::ProcId server) {
    auto r = engine_->call_raw(server, "colza.admin.list_pipelines", {});
    if (!r.has_value()) return r.status();
    std::vector<std::string> names;
    unpack(*r, names);
    return names;
  }

 private:
  rpc::Engine* engine_;
};

}  // namespace colza
