// Ablation: multi-tenant QoS under credit-based flow control (docs/flow.md).
// Two tenant pipelines hammer one staging server whose memory budget admits
// exactly one block at a time, so every stage() must win a credit from the
// server's deficit-round-robin grant queue before its RDMA pull may begin.
// Three configurations of the same run:
//
//   no-flow    admission off: both tenants stage unchecked (the pre-flow
//              behaviour -- staged bytes are bounded by nothing),
//   flow 1:1   budget enforced, byte-fair DRR split,
//   flow 3:1   tenant-a weighted 3x: its achieved staging bandwidth should
//              land within 10% of a 75% share while tenant-b is still never
//              starved (the DRR guarantee).
//
// Reported per pipeline: achieved staging bandwidth over a fixed virtual
// window, p99 stage() latency (credit wait + transfer), client Busy retries,
// and the server's peak concurrently-staged bytes. Also emits BENCH_flow.json
// (path = the PATH argument, default ./BENCH_flow.json), opened before any
// case runs so an unwritable path fails at once.
//
// `--smoke PATH` runs the same three cases over a short warm-up and window
// (the tier-1 bench-smoke test, which writes PATH into the build tree); the
// 3:1 share gate still applies. It needs an explicit PATH so a smoke run
// never overwrites the checked-in full-size BENCH_flow.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "colza/admin.hpp"
#include "colza/backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "flow/flow.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace colza;
using namespace colza::bench;

// One credit == one block: the budget serializes staging, so the grant queue
// (not the NIC) decides who makes progress and the weight ratio is the whole
// story.
constexpr std::uint64_t kBlockBytes = 2ull << 20;

// Virtual warm-up before, and length of, the measurement window of a case.
struct Size {
  int warmup_ms;
  int window_ms;
};
constexpr Size kFull{500, 5000};
constexpr Size kSmoke{10, 30};

class SinkBackend final : public Backend {
 public:
  explicit SinkBackend(Context ctx) : Backend(std::move(ctx)) {}
  Status activate(std::uint64_t) override { return Status::Ok(); }
  Status stage(StagedBlock) override { return Status::Ok(); }
  Status execute(std::uint64_t) override { return Status::Ok(); }
  Status deactivate(std::uint64_t) override { return Status::Ok(); }
};

COLZA_REGISTER_BACKEND("flow-bench-sink", SinkBackend)

struct TenantStats {
  double window_s = 0;      // length of the measurement window
  std::uint64_t bytes = 0;  // staged bytes completing inside the window
  std::uint64_t iterations = 0;
  std::vector<double> stage_ms;  // per-stage latency samples in the window

  [[nodiscard]] double mbps() const {
    return static_cast<double>(bytes) / 1e6 / window_s;
  }
  [[nodiscard]] double p99_ms() const {
    if (stage_ms.empty()) return 0.0;
    std::vector<double> s = stage_ms;
    std::sort(s.begin(), s.end());
    return s[std::min(s.size() - 1, (s.size() * 99) / 100)];
  }
};

struct CaseResult {
  TenantStats a, b;
  std::uint64_t busy_retries = 0;
  std::uint64_t sheds = 0;
  std::uint64_t peak_staged = 0;
  [[nodiscard]] double share_a() const {
    const double total = a.mbps() + b.mbps();
    return total == 0.0 ? 0.0 : a.mbps() / total;
  }
};

CaseResult run_case(const Size& size, bool flow_on, std::uint32_t weight_a,
                    std::uint32_t weight_b) {
  obs::MetricsRegistry::global().reset();
  des::Simulation sim(des::SimConfig{.seed = 4242});
  net::Network net(sim);

  ServerConfig scfg;
  scfg.init_cost = des::milliseconds(10);
  if (flow_on) scfg.flow.budget_bytes = kBlockBytes;
  LaunchModel instant{des::milliseconds(10), 0.0, des::milliseconds(10)};
  StagingArea area(net, scfg, instant, /*seed=*/7);
  area.launch_initial(1, /*base_node=*/100);
  sim.run_until(des::seconds(1));

  // The admin tool provisions both tenants and applies the QoS weights
  // through the same RPCs examples/admin_cli.cpp exposes.
  net::Process& admin_proc = net.create_process(10);
  Client admin_client(admin_proc);
  admin_proc.spawn("admin", [&] {
    Admin admin(admin_client.engine());
    for (net::ProcId s : area.alive_addresses()) {
      admin.create_pipeline(s, "tenant-a", "flow-bench-sink").check();
      admin.create_pipeline(s, "tenant-b", "flow-bench-sink").check();
      if (flow_on) {
        admin.set_weight(s, "tenant-a", weight_a).check();
        admin.set_weight(s, "tenant-b", weight_b).check();
      }
    }
  });
  sim.run();

  // Both tenants drive back-to-back single-block iterations on two
  // concurrent streams, so each tenant keeps a request queued at the server
  // even while its other block transfers -- every grant decision sees both
  // tenants backlogged and the DRR deficits (not arrival order) pick the
  // winner. A stream never holds a credit while waiting for another
  // (single-block working set), so contention can never deadlock. activate()
  // is serialized across streams because the server's 2PC prepare slot is
  // server-wide, and the iteration id spaces are disjoint (stride 4) for the
  // same reason.
  des::Mutex activate_mu(sim);
  const des::Time w0 = sim.now() + des::milliseconds(size.warmup_ms);
  const des::Time w1 = w0 + des::milliseconds(size.window_ms);

  // Enough concurrent streams that a tenant stays backlogged at the server
  // across consecutive grants (a tenant whose queue flickers empty forfeits
  // its DRR deficit -- the classic idle-forfeit rule -- which would erode
  // the weighted share it is entitled to).
  constexpr int kStreams = 4;
  struct Tenant {
    std::string pipe;
    net::Process* proc;
    std::unique_ptr<Client> client;
    TenantStats stats;
  };
  TenantStats empty;
  empty.window_s = size.window_ms / 1e3;
  Tenant ta{"tenant-a", &net.create_process(0), nullptr, empty};
  Tenant tb{"tenant-b", &net.create_process(1), nullptr, empty};
  ta.client = std::make_unique<Client>(*ta.proc);
  tb.client = std::make_unique<Client>(*tb.proc);

  int streams_done = 0;
  auto drive = [&](Tenant& t, std::uint64_t first_iteration) {
    t.proc->spawn(t.pipe + "-" + std::to_string(first_iteration),
                  [&, first_iteration] {
      auto h = DistributedPipelineHandle::lookup(
          *t.client, area.bootstrap().contacts(), t.pipe);
      h.status().check();
      if (flow_on) h->set_flow_control(FlowClientOptions{.enabled = true, .aimd = {}});
      std::vector<std::byte> data(kBlockBytes, std::byte{0x5A});
      std::uint64_t it = first_iteration;
      while (sim.now() < w1) {
        activate_mu.lock();
        const Status act = h->activate(it);
        activate_mu.unlock();
        act.check();
        const des::Time t0 = sim.now();
        h->stage(it, /*block_id=*/0, data).check();
        const des::Time t1 = sim.now();
        if (t1 > w0 && t1 <= w1) {
          t.stats.bytes += data.size();
          t.stats.stage_ms.push_back(des::to_millis(t1 - t0));
        }
        h->execute(it).check();
        h->deactivate(it).check();
        ++t.stats.iterations;
        it += 2 * kStreams;
      }
      ++streams_done;
    });
  };
  for (int s = 0; s < kStreams; ++s) {
    drive(ta, static_cast<std::uint64_t>(s) + 1);
    drive(tb, static_cast<std::uint64_t>(s) + 1 + kStreams);
  }
  sim.run();
  if (streams_done != 2 * kStreams) {
    std::fprintf(stderr, "tenant streams did not finish\n");
    std::abort();
  }

  CaseResult r;
  r.a = std::move(ta.stats);
  r.b = std::move(tb.stats);
  r.busy_retries =
      obs::MetricsRegistry::global().counter("flow.client.busy").value;
  for (net::ProcId s : area.alive_addresses()) {
    if (flow::ServerFlow* fl = flow::Registry::find(&sim, s)) {
      r.sheds += fl->sheds_total();
      r.peak_staged = std::max(r.peak_staged, fl->peak_staged_bytes());
    }
  }
  return r;
}

void json_case(std::FILE* f, const char* key, const CaseResult& r,
               bool last = false) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"bw_a_mbps\": %.2f,\n"
               "    \"bw_b_mbps\": %.2f,\n"
               "    \"share_a\": %.4f,\n"
               "    \"p99_stage_a_ms\": %.3f,\n"
               "    \"p99_stage_b_ms\": %.3f,\n"
               "    \"iterations_a\": %llu,\n"
               "    \"iterations_b\": %llu,\n"
               "    \"busy_retries\": %llu,\n"
               "    \"server_sheds\": %llu,\n"
               "    \"peak_staged_bytes\": %llu\n"
               "  }%s\n",
               key, r.a.mbps(), r.b.mbps(), r.share_a(), r.a.p99_ms(),
               r.b.p99_ms(),
               static_cast<unsigned long long>(r.a.iterations),
               static_cast<unsigned long long>(r.b.iterations),
               static_cast<unsigned long long>(r.busy_retries),
               static_cast<unsigned long long>(r.sheds),
               static_cast<unsigned long long>(r.peak_staged),
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, bad = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (path == nullptr && argv[i][0] != '-') {
      path = argv[i];
    } else {
      bad = true;
    }
  }
  if (bad || (smoke && path == nullptr)) {
    std::fprintf(stderr, "usage: %s [PATH]\n       %s --smoke PATH\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (path == nullptr) path = "BENCH_flow.json";
  const Size& size = smoke ? kSmoke : kFull;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }

  headline("Ablation -- two-tenant QoS: credit admission + weighted fair "
           "staging",
           "the multi-tenant staging concern of S II-C/S IV: one server "
           "budget shared by two pipelines, DRR weights vs no flow control");

  const CaseResult off = run_case(size, /*flow_on=*/false, 1, 1);
  const CaseResult even = run_case(size, /*flow_on=*/true, 1, 1);
  const CaseResult skewed = run_case(size, /*flow_on=*/true, 3, 1);

  Table table({"config", "weights", "bw_a_MBps", "bw_b_MBps", "share_a",
               "p99_a_ms", "p99_b_ms", "busy", "peak_staged_MiB"});
  auto row = [&](const char* name, const char* weights, const CaseResult& r) {
    table.row({name, weights, fmt("%.1f", r.a.mbps()), fmt("%.1f", r.b.mbps()),
               fmt("%.3f", r.share_a()), fmt_ms(r.a.p99_ms()),
               fmt_ms(r.b.p99_ms()),
               std::to_string(r.busy_retries),
               fmt("%.1f", static_cast<double>(r.peak_staged) / (1 << 20))});
  };
  row("no-flow", "-", off);
  row("flow", "1:1", even);
  row("flow", "3:1", skewed);
  table.print("abl_flowctl");

  note("block 2 MiB == server budget: with flow on, the DRR grant queue "
       "serializes the budget and the byte share tracks the weights");
  note("no-flow staging is unbounded by construction (admission off, peak "
       "column reads 0 because nothing is charged); the flow rows never "
       "exceed the %.1f MiB budget",
       static_cast<double>(kBlockBytes) / (1 << 20));
  note("1:1 holds tenant-a to a %.0f%% share (starved of its 75%% "
       "entitlement); 3:1 achieves %.1f%% (target 75%% +/- 10%%)",
       even.share_a() * 100, skewed.share_a() * 100);

  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"bench_abl_flowctl\",\n"
      "  \"scenario\": \"two tenant pipelines vs one staging server; block "
      "2 MiB == server budget, %g s virtual measurement window after %d ms "
      "warmup; weights applied via colza.admin.set_weight\",\n"
      "  \"machine\": \"container, RelWithDebInfo -O2, single thread, "
      "deterministic virtual time (seed 4242)\",\n",
      size.window_ms / 1e3, size.warmup_ms);
  json_case(f, "no_flow", off);
  json_case(f, "flow_1_1", even);
  json_case(f, "flow_3_1", skewed);
  std::fprintf(
      f,
      "  \"target_share_a_3_1\": 0.75,\n"
      "  \"notes\": \"Acceptance: flow_3_1.share_a within 10%% of 0.75 while "
      "flow_1_1 holds the weighted tenant to ~0.5 (its 3:1 entitlement is "
      "starved without weights) and no flow row's peak_staged_bytes exceeds "
      "the %llu-byte budget. busy_retries counts client-absorbed Busy sheds; "
      "no stage() ever failed in any configuration.\"\n"
      "}\n",
      static_cast<unsigned long long>(kBlockBytes));
  std::fclose(f);
  std::printf("\nwrote %s\n", path);

  // The acceptance gate, enforced so CI catches fairness regressions.
  const double ratio = skewed.share_a() / 0.75;
  if (ratio < 0.9 || ratio > 1.1) {
    std::fprintf(stderr, "FAIL: 3:1 share_a %.3f not within 10%% of 0.75\n",
                 skewed.share_a());
    return 1;
  }
  return 0;
}
