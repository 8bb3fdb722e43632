// Admin walkthrough: exercises the separate admin library the way an
// external operator tool would (paper S II-B) -- listing and managing
// pipelines, inspecting the membership, requesting a server to leave, and
// driving the flow-control QoS knobs (docs/flow.md).
//
// Besides the default walkthrough, three operator verbs run a minimal
// staging area and issue one admin RPC per server:
//   admin_cli set-weight <pipeline> <w>   # weight the pipeline's DRR share
//   admin_cli show-quota                  # dump each server's flow state
//   admin_cli show <prefix>               # dump each server's metrics whose
//                                         # names start with <prefix>, e.g.
//                                         # integrity., flow. or viewer.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "colza/admin.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"

using namespace colza;

namespace {

// A staging area with flow control on, so the QoS verbs have real state to
// touch (the default ServerConfig keeps flow disabled).
ServerConfig flow_config() {
  ServerConfig config;
  config.flow.budget_bytes = 64 << 20;
  return config;
}

int run_verb(int argc, char** argv) {
  const std::string verb = argv[1];
  des::Simulation sim;
  net::Network net(sim);
  StagingArea area(net, flow_config());
  area.launch_initial(2, /*base_node=*/10);
  sim.run_until(des::seconds(30));

  auto& tool_proc = net.create_process(0);
  rpc::Engine tool(tool_proc, net::Profile::mona());
  int rc = 0;

  tool_proc.spawn("admin-tool", [&] {
    Admin admin(tool);
    const auto servers = area.alive_addresses();

    if (verb == "set-weight") {
      if (argc != 4) {
        std::fprintf(stderr, "usage: admin_cli set-weight <pipeline> <w>\n");
        rc = 2;
        return;
      }
      const std::string pipeline = argv[2];
      const auto weight =
          static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 10));
      for (net::ProcId s : servers) {
        admin.create_pipeline(s, pipeline, "catalyst").check();
        Status st = admin.set_weight(s, pipeline, weight);
        std::printf("set-weight %s w=%u on %s: %s\n", pipeline.c_str(),
                    weight, net::to_string(s).c_str(),
                    st.to_string().c_str());
        if (!st.ok()) rc = 1;
      }
      return;
    }

    if (verb == "show-quota") {
      for (net::ProcId s : servers) {
        auto quota = admin.get_quota(s);
        quota.status().check();
        std::printf("quota on %s: %s\n", net::to_string(s).c_str(),
                    quota->dump().c_str());
      }
      return;
    }

    if (verb == "show") {
      // One daemon's counts by name prefix, the way an operator would watch
      // for a node whose integrity.mismatch keeps climbing (rotting bytes at
      // rest) or check that viewer.renders stays flat under a flash crowd.
      if (argc != 3) {
        std::fprintf(stderr, "usage: admin_cli show <prefix>\n");
        rc = 2;
        return;
      }
      for (net::ProcId s : servers) {
        auto metrics = admin.get_metrics(s, argv[2]);
        metrics.status().check();
        std::printf("metrics on %s: %s\n", net::to_string(s).c_str(),
                    metrics->dump().c_str());
      }
      return;
    }

    std::fprintf(stderr,
                 "unknown verb '%s'\nknown verbs:\n"
                 "  set-weight <pipeline> <w>  weight the pipeline's DRR share\n"
                 "  show-quota                 dump per-server flow state\n"
                 "  show <prefix>              dump per-server metrics whose "
                 "names start with <prefix>\n",
                 verb.c_str());
    rc = 2;
  });
  sim.run();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) return run_verb(argc, argv);

  des::Simulation sim;
  net::Network net(sim);
  StagingArea area(net, flow_config());
  area.launch_initial(3, /*base_node=*/10);
  sim.run_until(des::seconds(30));

  auto& tool_proc = net.create_process(0);
  rpc::Engine tool(tool_proc, net::Profile::mona());

  tool_proc.spawn("admin-tool", [&] {
    Admin admin(tool);
    const auto servers = area.alive_addresses();
    std::printf("staging area members:");
    for (net::ProcId s : servers) std::printf(" %s", net::to_string(s).c_str());
    std::printf("\n");

    // Deploy two pipelines on every server, each with its own JSON config.
    for (net::ProcId s : servers) {
      admin.create_pipeline(s, "iso", "catalyst",
                            R"({"mode":"isosurface","field":"v"})")
          .check();
      admin.create_pipeline(s, "vol", "catalyst",
                            R"({"mode":"volume","field":"rho"})")
          .check();
    }
    auto names = admin.list_pipelines(servers[0]);
    names.status().check();
    std::printf("pipelines on %s:", net::to_string(servers[0]).c_str());
    for (const auto& n : *names) std::printf(" %s", n.c_str());
    std::printf("\n");

    // QoS: give 'iso' a 3x staging-bandwidth share over 'vol', then read
    // the quota document back the way a monitor would.
    for (net::ProcId s : servers) admin.set_weight(s, "iso", 3).check();
    auto quota = admin.get_quota(servers[0]);
    quota.status().check();
    std::printf("quota on %s: %s\n", net::to_string(servers[0]).c_str(),
                quota->dump().c_str());

    // Error handling: duplicate names and unknown types are rejected.
    auto dup = admin.create_pipeline(servers[0], "iso", "catalyst");
    std::printf("re-creating 'iso': %s\n", dup.to_string().c_str());
    auto bad = admin.create_pipeline(servers[0], "x", "no-such-type");
    std::printf("unknown type: %s\n", bad.to_string().c_str());
    auto zero = admin.set_weight(servers[0], "iso", 0);
    std::printf("zero weight: %s\n", zero.to_string().c_str());

    // Tear one pipeline down everywhere.
    for (net::ProcId s : servers) admin.destroy_pipeline(s, "vol").check();

    // Scale down: ask the last server to leave, then watch the view shrink.
    std::printf("requesting %s to leave...\n",
                net::to_string(servers.back()).c_str());
    admin.request_leave(servers.back()).check();
    sim.sleep_for(des::seconds(12));
    std::printf("alive servers now: %zu\n", area.alive_count());
  });
  sim.run();
  return 0;
}
