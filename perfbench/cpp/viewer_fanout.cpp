// viewer-fanout: the read path (docs/viewer.md). One viewer tier serves
// 2,000 local sessions spread over 16 camera views in the
// gold/silver/bronze classes, plus a few remote ViewerClient push sessions on
// other processes that decode and verify every frame. Open loop: one
// iteration is published per virtual second whether or not the previous
// iteration's deliveries have finished.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "des/simulation.hpp"
#include "ledger.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "rpc/engine.hpp"
#include "viewer/viewer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace colza;

constexpr std::uint32_t kViews = 16;
constexpr int kRemote = 4;

// Deterministic synthetic frames: unique pixels per (iteration, camera), so
// deltas carry real entropy; 32x32 RGBA (4 KiB raw keyframes).
viewer::FrameImage synth_frame(std::uint64_t iteration, std::uint32_t camera) {
  viewer::FrameImage img;
  img.width = img.height = 32;
  img.rgba.resize(static_cast<std::size_t>(img.width) * img.height * 4);
  std::uint64_t x = iteration * 1000003 + camera + 1;
  for (auto& b : img.rgba) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  return img;
}

struct Remote {
  net::Process* proc;
  std::unique_ptr<rpc::Engine> engine;
  std::unique_ptr<viewer::ViewerClient> client;
  std::uint32_t camera;
};

// The set-up: the tier and its producer, every session connected and
// subscribed (local sessions in-process, remote ones over RPC).
struct Deployment {
  Deployment(const RepOptions& opt, std::size_t sessions)
      : sim(des::SimConfig{.seed = opt.seed}),
        net(sim),
        proc(&net.create_process(1)),
        engine(*proc, net::Profile::mona()),
        tier(*proc, engine) {
    if (opt.traced) obs::Tracer::global().enable(sim);
    // Order-independent digest of every produced frame, checked against
    // the reference: the tier renders each (iteration, camera) exactly once.
    tier.set_producer("sim", [this](std::uint64_t it, std::uint32_t cam,
                                    double) {
      HostSpan span(Layer::produce);
      viewer::FrameImage img = synth_frame(it, cam);
      produced_digest += img.hash();
      return img;
    });
    for (int r = 0; r < kRemote; ++r) {
      auto& p = net.create_process(static_cast<net::NodeId>(2 + r));
      auto eng = std::make_unique<rpc::Engine>(p, net::Profile::mona());
      auto cl = std::make_unique<viewer::ViewerClient>(*eng);
      const auto cam = static_cast<std::uint32_t>(
          splitmix64(opt.seed + 77 + static_cast<std::uint64_t>(r)) % kViews);
      remotes.push_back({&p, std::move(eng), std::move(cl), cam});
    }
    proc->spawn("subscribe", [this, &opt, sessions] {
      const std::uint64_t t0 = host_ns();
      for (std::size_t i = 0; i < sessions; ++i) {
        // Seeded class mix; cameras cover every view.
        const auto quality = static_cast<std::uint32_t>(
            splitmix64(opt.seed ^ (i * 0x9E37)) % 3);
        const std::uint64_t id = tier.connect(quality);
        const auto camera =
            static_cast<std::uint32_t>((i * 7 + opt.seed) % kViews);
        tally(tier.subscribe(id, "sim", camera).ok());
      }
      subscribe_ms = seconds_between(t0, host_ns()) * 1e3;
    });
    for (auto& r : remotes) {
      r.proc->spawn("observer", [this, &r] {
        auto session = r.client->connect(proc->id(), /*quality=*/0);
        tally(session.has_value());
        tally(r.client->subscribe("sim", r.camera).ok());
      });
    }
    sim.run();
  }

  void tally(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  des::Simulation sim;
  net::Network net;
  net::Process* proc;
  rpc::Engine engine;
  viewer::ViewerTier tier;
  std::vector<Remote> remotes;
  std::uint64_t produced_digest = 0;
  double subscribe_ms = 0;
  std::uint64_t attempted = 0, failed = 0;
};

}  // namespace

RepResult run_viewer_fanout(const RepOptions& opt) {
  RepResult res;
  // 2,000 sessions keep the tier's state within a core's private L2 cache;
  // at 10^5 sessions (~40 MB) it sits in an L3 shared with other machines,
  // and run medians spread by a third (README.md "Noise"). 600 iterations
  // deliver 1.2M frames.
  const std::size_t sessions = 2'000;
  const std::uint64_t iterations = opt.smoke ? 4 : 600;

  std::unique_ptr<Deployment> d;
  res.setup_s = timed_setup(
      d, [&] { return std::make_unique<Deployment>(opt, sessions); });
  res.attempted += d->attempted;
  res.failed += d->failed;
  des::Simulation& sim = d->sim;
  viewer::ViewerTier& tier = d->tier;
  auto tally = [&res](bool ok) {
    ++res.attempted;
    if (!ok) ++res.failed;
  };

  // ---- measured phase: publish on a fixed virtual schedule, then drain.
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t wall0 = host_ns();
  if (opt.traced) Ledger::global().start(sim);
  d->proc->spawn("publisher", [&] {
    HostSpan serve(Layer::serve);
    std::uint64_t last = host_ns();
    for (std::uint64_t it = 1; it <= iterations; ++it) {
      if (it > 1) {
        const std::uint64_t t = host_ns();
        res.unit_ms.push_back(static_cast<double>(t - last) / 1e6);
        last = t;
      }
      tier.publish("sim", it);
      sim.sleep_for(des::seconds(1));
    }
    tier.quiesce();
    res.unit_ms.push_back(static_cast<double>(host_ns() - last) / 1e6);
    sim.sleep_for(des::milliseconds(20));  // last push crosses the fabric
  });
  sim.run();
  if (opt.traced) Ledger::global().stop();
  res.wall_s = seconds_between(wall0, host_ns());
  res.des_events = sim.events_processed() - events0;
  res.virtual_end = sim.now();

  // ---- checks.
  const std::uint64_t want_renders = iterations * kViews;
  if (tier.renders_total() != want_renders) {
    res.errors.push_back("rendered " + std::to_string(tier.renders_total()) +
                         " frames, want iterations x views = " +
                         std::to_string(want_renders));
  }
  std::uint64_t decode_failures = 0;
  for (const auto& r : d->remotes) {
    decode_failures += r.client->decode_failures();
    const auto& got = r.client->received();
    for (std::uint64_t it = 1; it <= iterations; ++it) {
      const bool ok =
          it <= got.size() && got[it - 1].iteration == it &&
          got[it - 1].image_hash == synth_frame(it, r.camera).hash();
      tally(ok);
    }
  }
  if (decode_failures != 0)
    res.errors.push_back(std::to_string(decode_failures) + " decode failures");
  if (res.failed != 0)
    res.errors.push_back("a remote viewer missed or mis-decoded frames");
  const colza::json::Value* want =
      opt.reference == nullptr ? nullptr : opt.reference->find("frame_digest");
  res.notes.push_back("frame_digest " + hex64(d->produced_digest));
  if (want == nullptr || !want->is_string() ||
      want->as_string() != hex64(d->produced_digest)) {
    res.errors.push_back("produced frames digest " + hex64(d->produced_digest) +
                         " differs from the reference");
  }

  if (opt.traced) {
    const double frames = static_cast<double>(tier.frames_delivered());
    const double serve_ns = Ledger::global().ms(Layer::serve) * 1e6;
    res.layer["viewer.subscribe_ms"] = d->subscribe_ms;
    res.layer["viewer.ns_per_frame"] = frames == 0 ? 0.0 : serve_ns / frames;
    res.layer["viewer.renders"] = static_cast<double>(tier.renders_total());
    res.layer["viewer.frames"] = frames;
    const double bytes = static_cast<double>(tier.bytes_delivered());
    res.layer["viewer.bytes_per_frame"] = frames == 0 ? 0.0 : bytes / frames;
    res.layer["viewer.skips"] = static_cast<double>(tier.skips_total());
    res.layer["viewer.hit_rate"] = tier.cache_hit_rate();
    res.layer["viewer.decode_failures"] = static_cast<double>(decode_failures);
    obs::Tracer::global().disable();
  }
  return res;
}

}  // namespace perfbench
