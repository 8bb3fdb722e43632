// bulk-qos: the byte-bound, write-side workload. Two tenant pipelines, each
// driven by 4 closed-loop streams, stage 2 MiB blocks into one server whose
// flow-control budget admits exactly one block at a time (docs/flow.md).
// Tenant a carries DRR weight 3, tenant b weight 1, so the grant queue --
// not the NIC -- decides who progresses, and tenant a's share of the staged
// bytes over the measured window must land near 0.75. The backend is a sink:
// every stage hashes, pulls and verifies 2 MiB and nothing else runs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "colza/admin.hpp"
#include "colza/backend.hpp"
#include "colza/client.hpp"
#include "colza/deploy.hpp"
#include "des/simulation.hpp"
#include "des/sync.hpp"
#include "flow/flow.hpp"
#include "ledger.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace colza;

class SinkBackend final : public Backend {
 public:
  explicit SinkBackend(Context ctx) : Backend(std::move(ctx)) {}
  Status activate(std::uint64_t) override { return Status::Ok(); }
  Status stage(StagedBlock) override { return Status::Ok(); }
  Status execute(std::uint64_t) override { return Status::Ok(); }
  Status deactivate(std::uint64_t) override { return Status::Ok(); }
};

COLZA_REGISTER_BACKEND("perfbench-sink", SinkBackend)

constexpr std::uint64_t kBlockBytes = 2ull << 20;  // == the server budget
constexpr int kStreams = 4;                       // per tenant
constexpr std::uint32_t kWeightA = 3;
constexpr std::uint32_t kWeightB = 1;

struct Tenant {
  Tenant(net::Network& net, std::string p, net::NodeId node)
      : pipe(std::move(p)),
        proc(&net.create_process(node)),
        client(std::make_unique<Client>(*proc)) {}
  std::string pipe;
  net::Process* proc;
  std::unique_ptr<Client> client;
  std::uint64_t window_bytes = 0;  // staged bytes completing in the window
};

// The set-up: one flow-controlled server, both tenants provisioned and
// weighted through the admin RPCs, the tenants' client processes created.
struct Deployment {
  explicit Deployment(const RepOptions& opt)
      : sim(des::SimConfig{.seed = opt.seed}),
        net(sim),
        area(net, server_config(),
             LaunchModel{des::milliseconds(10), 0.0, des::milliseconds(10)},
             opt.seed),
        admin_proc(&net.create_process(10)),
        admin_client(*admin_proc),
        ta(net, "tenant-a", 0),
        tb(net, "tenant-b", 1) {
    if (opt.traced) obs::Tracer::global().enable(sim);
    const std::uint64_t launch0 = host_ns();
    area.launch_initial(1, /*base_node=*/100);
    sim.run_until(des::seconds(1));
    launch_ms = seconds_between(launch0, host_ns()) * 1e3;
    admin_proc->spawn("admin", [this] {
      Admin admin(admin_client.engine());
      for (net::ProcId s : area.alive_addresses()) {
        for (const Status& st :
             {admin.create_pipeline(s, "tenant-a", "perfbench-sink"),
              admin.create_pipeline(s, "tenant-b", "perfbench-sink"),
              admin.set_weight(s, "tenant-a", kWeightA),
              admin.set_weight(s, "tenant-b", kWeightB)}) {
          ++attempted;
          if (!st.ok()) ++failed;
        }
      }
    });
    sim.run();
  }

  static ServerConfig server_config() {
    ServerConfig scfg;
    scfg.init_cost = des::milliseconds(10);
    scfg.flow.budget_bytes = kBlockBytes;
    return scfg;
  }

  des::Simulation sim;
  net::Network net;
  StagingArea area;
  net::Process* admin_proc;
  Client admin_client;
  Tenant ta;
  Tenant tb;
  double launch_ms = 0;
  std::uint64_t attempted = 0, failed = 0;
};

}  // namespace

RepResult run_bulk_qos(const RepOptions& opt) {
  RepResult res;
  const des::Duration warmup = des::milliseconds(100);
  const des::Duration window =
      opt.smoke ? des::milliseconds(100) : des::milliseconds(400);

  // Seeded inputs: one 2 MiB block per stream.
  std::vector<std::vector<std::byte>> payloads(2 * kStreams);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    payloads[i].resize(kBlockBytes);
    std::uint64_t x = splitmix64(opt.seed * 1000 + i);
    for (std::size_t off = 0; off < kBlockBytes; off += 8) {
      x = splitmix64(x);
      std::memcpy(payloads[i].data() + off, &x, 8);
    }
  }

  std::unique_ptr<Deployment> d;
  res.setup_s =
      timed_setup(d, [&] { return std::make_unique<Deployment>(opt); });
  res.attempted += d->attempted;
  res.failed += d->failed;
  des::Simulation& sim = d->sim;
  StagingArea& area = d->area;
  Tenant& ta = d->ta;
  Tenant& tb = d->tb;
  auto tally = [&res](const Status& s) {
    ++res.attempted;
    if (!s.ok()) ++res.failed;
    return s.ok();
  };

  // ---- measured phase: back-to-back single-block iterations per stream
  // until the virtual window closes. activate() is serialized across streams
  // because the server's 2PC prepare slot is server-wide; iteration ids are
  // disjoint per stream for the same reason.
  des::Mutex activate_mu(sim);
  const des::Time w0 = sim.now() + warmup;
  const des::Time w1 = w0 + window;
  std::vector<double> stage_vms;  // per-stage virtual latency in the window
  int streams_done = 0;

  auto drive = [&](Tenant& t, int stream, std::uint64_t first_iteration) {
    t.proc->spawn(t.pipe + "-" + std::to_string(stream), [&, stream,
                                                           first_iteration] {
      auto h = DistributedPipelineHandle::lookup(
          *t.client, area.bootstrap().contacts(), t.pipe);
      if (!tally(h.status())) return;
      h->set_flow_control(FlowClientOptions{.enabled = true, .aimd = {}});
      const auto& data = payloads[static_cast<std::size_t>(stream)];
      std::uint64_t it = first_iteration;
      while (sim.now() < w1) {
        const std::uint64_t c0 = host_ns();
        {
          HostSpan span(Layer::activate);
          activate_mu.lock();
          const Status act = h->activate(it);
          activate_mu.unlock();
          if (!tally(act)) break;
        }
        const des::Time v0 = sim.now();
        {
          HostSpan span(Layer::stage);
          tally(h->stage(it, /*block_id=*/0, data));
        }
        const des::Time v1 = sim.now();
        if (v1 > w0 && v1 <= w1) {
          t.window_bytes += data.size();
          stage_vms.push_back(des::to_millis(v1 - v0));
        }
        {
          HostSpan span(Layer::execute);
          tally(h->execute(it));
        }
        {
          HostSpan span(Layer::deactivate);
          tally(h->deactivate(it));
        }
        res.unit_ms.push_back(static_cast<double>(host_ns() - c0) / 1e6);
        it += 2 * kStreams;
      }
      ++streams_done;
    });
  };
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t wall0 = host_ns();
  if (opt.traced) Ledger::global().start(sim);
  for (int s = 0; s < kStreams; ++s) {
    drive(ta, s, static_cast<std::uint64_t>(s) + 1);
    drive(tb, kStreams + s, static_cast<std::uint64_t>(s) + 1 + kStreams);
  }
  sim.run();
  if (opt.traced) Ledger::global().stop();
  res.wall_s = seconds_between(wall0, host_ns());
  res.des_events = sim.events_processed() - events0;
  res.virtual_end = sim.now();

  // ---- checks: fairness and the budget.
  std::uint64_t grants = 0, sheds = 0, peak = 0;
  for (net::ProcId s : area.alive_addresses()) {
    if (flow::ServerFlow* fl = flow::Registry::find(&sim, s)) {
      grants += fl->grants_total();
      sheds += fl->sheds_total();
      peak = std::max(peak, fl->peak_staged_bytes());
    }
  }
  const double total = static_cast<double>(ta.window_bytes + tb.window_bytes);
  const double share_a =
      total == 0 ? 0.0 : static_cast<double>(ta.window_bytes) / total;
  const double peak_mb = static_cast<double>(peak) / (1 << 20);
  res.notes.push_back("share_a " + std::to_string(share_a) +
                      " peak_staged_mb " + std::to_string(peak_mb));

  if (streams_done != 2 * kStreams)
    res.errors.push_back("streams did not finish");
  const colza::json::Value* ref = opt.reference;
  const double want_share = ref == nullptr ? -1 : ref->number_or("share_a", -1);
  const double tolerance = ref == nullptr ? 0 : ref->number_or("tolerance", 0);
  const double budget_mb = ref == nullptr ? 0 : ref->number_or("budget_mb", 0);
  if (std::abs(share_a / want_share - 1.0) > tolerance) {
    res.errors.push_back("share_a " + std::to_string(share_a) +
                         " not within " + std::to_string(tolerance * 100) +
                         "% of " + std::to_string(want_share));
  }
  if (peak_mb > budget_mb) {
    res.errors.push_back("peak staged " + std::to_string(peak_mb) +
                         " MiB exceeds the " + std::to_string(budget_mb) +
                         " MiB budget");
  }
  if (counter("integrity.mismatch") != 0)
    res.errors.push_back("integrity mismatches while staging");

  if (opt.traced) {
    std::sort(stage_vms.begin(), stage_vms.end());
    res.layer["colza.launch_ms"] = d->launch_ms;
    res.layer["ssg.members_final"] = static_cast<double>(area.alive_count());
    res.layer["flow.grants"] = static_cast<double>(grants);
    res.layer["flow.sheds"] = static_cast<double>(sheds);
    res.layer["flow.share_a"] = share_a;
    res.layer["flow.peak_staged_mb"] = peak_mb;
    res.layer["flow.stage_vms_p99"] =
        stage_vms.empty()
            ? 0.0
            : stage_vms[std::min(stage_vms.size() - 1,
                                 stage_vms.size() * 99 / 100)];
    obs::Tracer::global().disable();
  }
  return res;
}

}  // namespace perfbench
