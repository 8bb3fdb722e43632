// The viewer delivery tier (docs/viewer.md): frame codec round-trips and
// corruption detection, single-flight rendering under observer fan-out,
// per-viewer backpressure (skip-to-latest-keyframe, never upstream), the
// steering channel's boundary application and bit-identical log replay, the
// remote push path through ViewerClient, and the deterministic churn hook
// the chaos layer drives.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "des/simulation.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "render/render.hpp"
#include "rpc/engine.hpp"
#include "viewer/frame.hpp"
#include "viewer/steering.hpp"
#include "viewer/viewer.hpp"

namespace colza::viewer {
namespace {

using des::milliseconds;
using des::seconds;

// A deterministic pseudo-random image: every pixel changes with the
// iteration, camera and steered parameter, so deltas are never trivially
// empty and two frames agree iff their inputs do.
FrameImage test_image(std::uint64_t iteration, std::uint32_t camera,
                      double param, std::uint32_t w = 8, std::uint32_t h = 8) {
  FrameImage img;
  img.width = w;
  img.height = h;
  img.rgba.resize(std::size_t{w} * h * 4);
  std::uint64_t x = iteration * 1000003 + camera * 97 +
                    static_cast<std::uint64_t>(param * 1e6) + 0x5eed;
  for (auto& b : img.rgba) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  return img;
}

Producer test_producer() {
  return [](std::uint64_t it, std::uint32_t cam, double param) {
    return test_image(it, cam, param);
  };
}

// ---------------------------------------------------------------- frame codec

TEST(FrameCodec, KeyframeRoundTrips) {
  const FrameImage img = test_image(1, 0, 0.0);
  const EncodedFrame f = encode_key("pipe", 3, 7, img);
  EXPECT_EQ(f.kind, static_cast<std::uint8_t>(FrameKind::key));
  EXPECT_EQ(f.image_hash, img.hash());
  auto decoded = decode(f, nullptr);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, img);
}

TEST(FrameCodec, DeltaRoundTripsAgainstBase) {
  const FrameImage base = test_image(1, 0, 0.0);
  FrameImage next = base;
  next.rgba[5] ^= 0xff;  // one changed pixel channel
  const EncodedFrame f = encode_delta("pipe", 0, 2, next, 1, base);
  EXPECT_EQ(f.kind, static_cast<std::uint8_t>(FrameKind::delta));
  EXPECT_EQ(f.base_iteration, 1u);
  // A near-identical frame XOR-RLEs to far less than the raw plane.
  EXPECT_LT(f.payload.size(), next.rgba.size() / 4);
  auto decoded = decode(f, &base);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, next);
}

TEST(FrameCodec, CrcCatchesPayloadCorruption) {
  const FrameImage img = test_image(4, 1, 0.5);
  EncodedFrame f = encode_key("pipe", 1, 4, img);
  f.payload[10] ^= 0x01;  // one flipped bit
  auto decoded = decode(f, nullptr);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), StatusCode::corrupt);
}

TEST(FrameCodec, DeltaWithoutBaseIsRejected) {
  const FrameImage base = test_image(1, 0, 0.0);
  const FrameImage next = test_image(2, 0, 0.0);
  const EncodedFrame f = encode_delta("pipe", 0, 2, next, 1, base);
  auto decoded = decode(f, nullptr);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), StatusCode::failed_precondition);
}

TEST(FrameCodec, DeltaAgainstWrongBaseIsDetected) {
  const FrameImage base = test_image(1, 0, 0.0);
  const FrameImage wrong = test_image(9, 0, 0.0);
  const FrameImage next = test_image(2, 0, 0.0);
  const EncodedFrame f = encode_delta("pipe", 0, 2, next, 1, base);
  // The XOR applies cleanly against any same-sized image; only the decoded
  // image hash exposes that the base was not the encoder's.
  auto decoded = decode(f, &wrong);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), StatusCode::corrupt);
}

// A hostile delta whose run lengths are chosen so their 64-bit sum wraps
// around: the CRC is honest (it covers the payload as sent), so only the
// RLE bounds check stands between this frame and an out-of-bounds write.
TEST(FrameCodec, DeltaWithWrappingRunLengthsIsRejected) {
  const FrameImage base = test_image(1, 0, 0.0);  // 8x8 -> n = 256 bytes
  EncodedFrame f;
  f.pipeline = "pipe";
  f.camera = 0;
  f.iteration = 2;
  f.kind = static_cast<std::uint8_t>(FrameKind::delta);
  f.base_iteration = 1;
  f.width = base.width;
  f.height = base.height;
  auto put_varint = [&](std::uint64_t v) {
    while (v >= 0x80) {
      f.payload.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    f.payload.push_back(static_cast<std::uint8_t>(v));
  };
  // zeros + lit == 16 modulo 2^64: a sum-form bounds check accepts this and
  // then writes 32 literal bytes far outside the 256-byte image.
  put_varint(~std::uint64_t{0} - 15);  // zeros = 2^64 - 16
  put_varint(32);                      // lit
  f.payload.insert(f.payload.end(), 32, 0xFF);
  f.crc = common::crc32c(std::as_bytes(std::span(f.payload)));
  f.image_hash = 0;
  auto decoded = decode(f, &base);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), StatusCode::corrupt);
}

// The densest delta the codec can emit: the XOR stream alternates one
// changed and one unchanged byte, starting with a change and ending without
// one, so the payload fills the encoder's worst-case reservation exactly.
TEST(FrameCodec, AlternatingByteDeltaRoundTrips) {
  const FrameImage base = test_image(1, 0, 0.0);
  FrameImage next = base;
  for (std::size_t i = 0; i < next.rgba.size(); i += 2) next.rgba[i] ^= 0x5a;
  const EncodedFrame f = encode_delta("pipe", 0, 2, next, 1, base);
  EXPECT_EQ(f.kind, static_cast<std::uint8_t>(FrameKind::delta));
  // An empty leading zero run, then (literal run, zero run) byte pairs, then
  // an empty trailing literal run: n + n / 2 + 2 bytes.
  const std::size_t n = next.rgba.size();
  EXPECT_EQ(f.payload.size(), n + n / 2 + 2);
  auto decoded = decode(f, &base);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, next);
}

TEST(FrameCodec, DimensionMismatchFallsBackToKeyframe) {
  const FrameImage base = test_image(1, 0, 0.0, 8, 8);
  const FrameImage next = test_image(2, 0, 0.0, 16, 16);
  const EncodedFrame f = encode_delta("pipe", 0, 2, next, 1, base);
  EXPECT_EQ(f.kind, static_cast<std::uint8_t>(FrameKind::key));
  auto decoded = decode(f, nullptr);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, next);
}

// The hoisted hash helper (common/hash.hpp): quantizing a FrameBuffer into a
// FrameImage preserves the image hash, so viewer-side verification compares
// directly against render-side content_hash().
TEST(FrameCodec, ImageHashMatchesFrameBufferContentHash) {
  render::FrameBuffer fb(4, 4);
  fb.clear();
  for (std::size_t i = 0; i < fb.rgba.size(); ++i) {
    fb.rgba[i] = static_cast<float>(i) / static_cast<float>(fb.rgba.size());
  }
  const FrameImage img = FrameImage::from(fb);
  EXPECT_EQ(img.hash(), fb.content_hash());
}

// ----------------------------------------------------------------- the tier

struct TierRig {
  des::Simulation sim;
  net::Network net{sim};
  net::Process& proc;
  rpc::Engine engine;
  ViewerTier tier;

  explicit TierRig(ViewerConfig cfg = {}, net::NodeId node = 1)
      : proc(net.create_process(node)),
        engine(proc, net::Profile::mona()),
        tier(proc, engine, std::move(cfg)) {}
};

TEST(ViewerTier, SingleFlightRenderUnderFanOut) {
  TierRig rig;
  rig.tier.set_producer("pipe", test_producer());
  constexpr std::size_t kViewers = 50;
  constexpr std::uint64_t kIterations = 10;
  rig.proc.spawn("driver", [&] {
    for (std::size_t i = 0; i < kViewers; ++i) {
      const std::uint64_t id = rig.tier.connect(/*quality=*/0);
      ASSERT_TRUE(rig.tier.subscribe(id, "pipe", 0).ok());
    }
    for (std::uint64_t it = 1; it <= kIterations; ++it) {
      rig.tier.publish("pipe", it);
      rig.sim.sleep_for(milliseconds(10));
    }
    rig.tier.quiesce();
    // Exactly one render per (pipeline, iteration, camera), no matter how
    // many viewers watch -- single-flight is structural.
    EXPECT_EQ(rig.tier.renders_total(), kIterations);
    // Gold-class buckets never run dry at this size: every viewer received
    // every frame from the cache.
    EXPECT_EQ(rig.tier.frames_delivered(), kViewers * kIterations);
    EXPECT_EQ(rig.tier.skips_total(), 0u);
    EXPECT_GT(rig.tier.cache_hit_rate(), 0.95);
  });
  rig.sim.run();
}

// Every delivered frame lands in the tier's scoped frame-bytes histogram,
// whose log2-bucket quantile approximation summarizes the distribution
// (keyframes and deltas differ by orders of magnitude, so min <= p50 <= p99
// <= max is a real spread here), and the tier's metrics document carries it.
TEST(ViewerTier, StatsReportFrameByteQuantiles) {
  obs::MetricsRegistry::global().reset();
  TierRig rig;
  rig.tier.set_producer("pipe", test_producer());
  rig.proc.spawn("driver", [&] {
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t id = rig.tier.connect(/*quality=*/0);
      ASSERT_TRUE(rig.tier.subscribe(id, "pipe", 0).ok());
    }
    for (std::uint64_t it = 1; it <= 6; ++it) {
      rig.tier.publish("pipe", it);
      rig.sim.sleep_for(milliseconds(10));
    }
    rig.tier.quiesce();

    const auto& reg = obs::MetricsRegistry::global();
    const obs::Histogram* h =
        reg.find_histogram("viewer.frame_bytes", rig.tier.metrics_scope());
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, rig.tier.frames_delivered());
    const double p50 = h->approx_quantile(0.5);
    const double p99 = h->approx_quantile(0.99);
    EXPECT_GE(p50, static_cast<double>(h->min));
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, static_cast<double>(h->max));

    const json::Value doc = reg.to_json({rig.tier.metrics_scope()}, "viewer.");
    const json::Value* hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value* frame_bytes = hists->find("viewer.frame_bytes");
    ASSERT_NE(frame_bytes, nullptr);
    EXPECT_EQ(frame_bytes->number_or("count", 0),
              static_cast<double>(rig.tier.frames_delivered()));
  });
  rig.sim.run();
}

// Two tiers in one simulation each record into their own scope: separate
// frame-byte histograms and separate viewer.sessions gauges, which the
// process-wide view adds up.
TEST(ViewerTier, CoHostedTiersKeepSeparateMetrics) {
  obs::MetricsRegistry::global().reset();
  TierRig rig;
  net::Process& proc_b = rig.net.create_process(2);
  rpc::Engine engine_b(proc_b, net::Profile::mona());
  ViewerTier tier_b(proc_b, engine_b);
  rig.tier.set_producer("pipe", test_producer());
  tier_b.set_producer("pipe", test_producer());
  rig.proc.spawn("driver", [&] {
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(rig.tier.subscribe(rig.tier.connect(0), "pipe", 0).ok());
    }
    ASSERT_TRUE(tier_b.subscribe(tier_b.connect(0), "pipe", 0).ok());
    for (std::uint64_t it = 1; it <= 4; ++it) {
      rig.tier.publish("pipe", it);
      tier_b.publish("pipe", it);
      rig.sim.sleep_for(milliseconds(10));
    }
    rig.tier.quiesce();
    tier_b.quiesce();
  });
  rig.sim.run();

  const auto& reg = obs::MetricsRegistry::global();
  ASSERT_NE(rig.tier.metrics_scope(), tier_b.metrics_scope());
  const obs::Histogram* a =
      reg.find_histogram("viewer.frame_bytes", rig.tier.metrics_scope());
  const obs::Histogram* b =
      reg.find_histogram("viewer.frame_bytes", tier_b.metrics_scope());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, rig.tier.frames_delivered());
  EXPECT_EQ(b->count, tier_b.frames_delivered());
  EXPECT_EQ(a->count, 3 * b->count);  // three sessions against one

  auto sessions = [&](const std::vector<obs::ScopeId>& scopes) {
    const json::Value doc = reg.to_json(scopes, "viewer.sessions");
    return doc.find("gauges")->number_or("viewer.sessions", -1);
  };
  EXPECT_EQ(sessions({rig.tier.metrics_scope()}), 3.0);
  EXPECT_EQ(sessions({tier_b.metrics_scope()}), 1.0);
  const json::Value all = reg.to_json();
  EXPECT_EQ(all.find("gauges")->number_or("viewer.sessions", -1), 4.0);
  EXPECT_EQ(reg.counter_value("viewer.frames_delivered"),
            rig.tier.frames_delivered() + tier_b.frames_delivered());
}

TEST(ViewerTier, PublishWithoutSubscribersRendersNothing) {
  TierRig rig;
  rig.tier.set_producer("pipe", test_producer());
  rig.proc.spawn("driver", [&] {
    rig.tier.publish("pipe", 1);
    rig.tier.quiesce();
    EXPECT_EQ(rig.tier.renders_total(), 0u);
  });
  rig.sim.run();
}

TEST(ViewerTier, SlowViewerSkipsToLatestKeyframe) {
  ViewerConfig cfg;
  // One starved class: 100 B/s against ~330-byte frames, bucket of 400.
  cfg.classes = {{"starved", 1, 100, 400}};
  TierRig rig(cfg);
  rig.tier.set_producer("pipe", test_producer());
  constexpr std::uint64_t kIterations = 20;
  rig.proc.spawn("driver", [&] {
    const std::uint64_t id = rig.tier.connect(0);
    ASSERT_TRUE(rig.tier.subscribe(id, "pipe", 0).ok());
    const des::Time publish_started = rig.sim.now();
    for (std::uint64_t it = 1; it <= kIterations; ++it) {
      rig.tier.publish("pipe", it);
      rig.sim.sleep_for(milliseconds(10));
    }
    // Backpressure is per-viewer only: the publisher's clock advanced by
    // exactly its own sleeps, regardless of the starved session.
    EXPECT_EQ(rig.sim.now(), publish_started + kIterations * milliseconds(10));
    rig.tier.quiesce();
    // The viewer was skipped while broke, then resynchronized on the newest
    // frame -- it never received the full backlog.
    EXPECT_GT(rig.tier.skips_total(), 0u);
    EXPECT_EQ(rig.tier.renders_total(), kIterations);
    EXPECT_LT(rig.tier.frames_delivered(), kIterations);
    EXPECT_GT(rig.tier.frames_delivered(), 0u);
  });
  rig.sim.run();
}

TEST(ViewerTier, PausedClassHoldsDeliveriesUntilResumed) {
  TierRig rig;
  rig.tier.set_producer("pipe", test_producer());
  rig.proc.spawn("driver", [&] {
    rig.tier.set_class_weight("gold", 0);
    const std::uint64_t id = rig.tier.connect(0);  // gold
    ASSERT_TRUE(rig.tier.subscribe(id, "pipe", 0).ok());
    rig.tier.publish("pipe", 1);
    rig.sim.sleep_for(seconds(1));
    // Rendered (the producer side never pauses) but undelivered: the queued
    // item waits in place while its class weight is 0.
    EXPECT_EQ(rig.tier.renders_total(), 1u);
    EXPECT_EQ(rig.tier.frames_delivered(), 0u);
    rig.tier.set_class_weight("gold", 4);
    rig.tier.quiesce();
    EXPECT_EQ(rig.tier.frames_delivered(), 1u);
  });
  rig.sim.run();
}

TEST(ViewerTier, LateSubscriberGetsCurrentFrame) {
  TierRig rig;
  rig.tier.set_producer("pipe", test_producer());
  rig.proc.spawn("driver", [&] {
    const std::uint64_t early = rig.tier.connect(0);
    ASSERT_TRUE(rig.tier.subscribe(early, "pipe", 0).ok());
    rig.tier.publish("pipe", 1);
    rig.tier.quiesce();
    const std::uint64_t delivered_before = rig.tier.frames_delivered();
    const std::uint64_t late = rig.tier.connect(0);
    ASSERT_TRUE(rig.tier.subscribe(late, "pipe", 0).ok());
    rig.tier.quiesce();
    // The joiner was served the cached frame without a new render.
    EXPECT_EQ(rig.tier.renders_total(), 1u);
    EXPECT_EQ(rig.tier.frames_delivered(), delivered_before + 1);
  });
  rig.sim.run();
}

// A tier whose process dies while a starved session waits for credit (a
// server with a co-hosted tier crashing mid-run). A dead server's objects
// stay allocated while the simulation can still run their timers, so the
// wait fires later in the run into a live tier and the run ends on time.
TEST(ViewerTier, CreditWaitOutlivingTheTierIsHarmless) {
  ViewerConfig cfg;
  cfg.classes = {{"starved", 1, 100, 400}};
  des::Simulation sim;
  net::Network net(sim);
  auto& proc = net.create_process(1);
  rpc::Engine engine(proc, net::Profile::mona());
  ViewerTier tier(proc, engine, cfg);
  tier.set_producer("pipe", test_producer());
  proc.spawn("driver", [&] {
    const std::uint64_t id = tier.connect(0);
    ASSERT_TRUE(tier.subscribe(id, "pipe", 0).ok());
    for (std::uint64_t it = 1; it <= 5; ++it) {
      tier.publish("pipe", it);
      sim.sleep_for(milliseconds(10));
    }
    ASSERT_GT(tier.skips_total(), 0u);  // a credit wait is pending
    proc.kill();
    sim.sleep_for(seconds(60));  // run on past the wait's deadline
  });
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(50) + seconds(60));
}

// Pins the tier's whole delivery schedule: a gold/silver/bronze fan-out over
// two pipelines with starved bronze sessions waiting for credit, a paused and
// resumed class, a late subscriber, an unsubscribe, a disconnect, a churn
// wave and two remote push sessions. Any change to what the tier charges,
// notifies or schedules, or to the order it does so, moves these numbers.
TEST(ViewerTier, FanOutDeliveryScheduleIsPinned) {
  ViewerConfig cfg;
  cfg.classes = {{"gold", 4, 400ull << 20, 4ull << 20},
                 {"silver", 2, 100ull << 20, 1ull << 20},
                 {"bronze", 1, 20'000, 1'500}};
  des::Simulation sim;
  net::Network net(sim);
  auto& tier_proc = net.create_process(1);
  rpc::Engine tier_engine(tier_proc, net::Profile::mona());
  ViewerTier tier(tier_proc, tier_engine, cfg);
  const Producer producer = [](std::uint64_t it, std::uint32_t cam,
                               double param) {
    return test_image(it, cam, param, 16, 16);
  };
  tier.set_producer("alpha", producer);
  tier.set_producer("beta", producer);

  auto& gold_proc = net.create_process(2);
  rpc::Engine gold_engine(gold_proc, net::Profile::mona());
  ViewerClient gold(gold_engine);
  gold_proc.spawn("observer", [&] {
    ASSERT_TRUE(gold.connect(tier_proc.id(), /*quality=*/0).has_value());
    ASSERT_TRUE(gold.subscribe("alpha", 1).ok());
  });
  auto& bronze_proc = net.create_process(3);
  rpc::Engine bronze_engine(bronze_proc, net::Profile::mona());
  ViewerClient bronze(bronze_engine);
  bronze_proc.spawn("observer", [&] {
    ASSERT_TRUE(bronze.connect(tier_proc.id(), /*quality=*/2).has_value());
    ASSERT_TRUE(bronze.subscribe("beta", 0).ok());
  });

  tier_proc.spawn("driver", [&] {
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < 12; ++i) {
      const std::uint64_t id = tier.connect(i % 3);
      ids.push_back(id);
      ASSERT_TRUE(tier.subscribe(id, i % 2 == 0 ? "alpha" : "beta", i % 3).ok());
      if (i % 4 == 0) {
        ASSERT_TRUE(tier.subscribe(id, "beta", 2).ok());
      }
    }
    sim.sleep_for(milliseconds(5));  // the remote observers subscribe
    for (std::uint64_t it = 1; it <= 12; ++it) {
      if (it == 3) tier.set_class_weight("silver", 0);
      if (it == 4) {
        const std::uint64_t late = tier.connect(1);
        ASSERT_TRUE(tier.subscribe(late, "alpha", 0).ok());
      }
      if (it == 5) {
        ASSERT_TRUE(tier.unsubscribe(ids[0], "alpha", 0).ok());
      }
      if (it == 6) tier.set_class_weight("silver", 2);
      if (it == 7) {
        ASSERT_TRUE(tier.disconnect(ids[5]));
      }
      if (it == 9) tier.churn(0.3, 99);
      tier.publish("alpha", it);
      tier.publish("beta", it);
      sim.sleep_for(milliseconds(10));
    }
    tier.quiesce();
    sim.sleep_for(milliseconds(20));  // the last pushes cross the fabric
  });
  sim.run();

  EXPECT_EQ(tier.renders_total(), 72u);
  EXPECT_EQ(tier.frames_delivered(), 114u);
  EXPECT_EQ(tier.bytes_delivered(), 125048u);
  EXPECT_EQ(tier.skips_total(), 16u);
  EXPECT_EQ(tier.sessions(), 8u);
  EXPECT_EQ(sim.now(), 170353000);
  EXPECT_EQ(sim.events_processed(), 390u);
  auto iterations = [](const ViewerClient& c) {
    std::vector<std::uint64_t> out;
    for (const auto& r : c.received()) out.push_back(r.iteration);
    return out;
  };
  EXPECT_EQ(gold.decode_failures(), 0u);
  EXPECT_EQ(bronze.decode_failures(), 0u);
  EXPECT_EQ(iterations(gold),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  // Starved: skipped forward, keyframes 1 and 9 each followed by one delta.
  EXPECT_EQ(iterations(bronze), (std::vector<std::uint64_t>{1, 4, 9, 12}));
}

// ----------------------------------------------------------------- steering

TEST(ViewerSteering, UpdatesApplyOnlyAtIterationBoundaries) {
  TierRig rig;
  std::vector<double> seen_params;
  rig.tier.set_producer("pipe", [&](std::uint64_t it, std::uint32_t cam,
                                    double param) {
    seen_params.push_back(param);
    return test_image(it, cam, param);
  });
  rig.proc.spawn("driver", [&] {
    const std::uint64_t id = rig.tier.connect(0);
    ASSERT_TRUE(rig.tier.subscribe(id, "pipe", 0).ok());

    SteeringUpdate cam;
    cam.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::camera);
    cam.camera = 0;
    cam.value = 1.25;
    cam.session = id;
    SteeringUpdate knob;
    knob.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::parameter);
    knob.name = "isovalue";
    knob.value = 0.7;
    knob.session = id;

    rig.tier.publish("pipe", 1);  // boundary before any steering
    rig.tier.quiesce();
    rig.tier.steer("pipe", cam);
    rig.tier.steer("pipe", knob);
    // Queued, not applied: nothing changes until the next boundary.
    EXPECT_EQ(rig.tier.parameter("pipe", "isovalue"), 0.0);
    EXPECT_TRUE(rig.tier.steering_log().empty());

    rig.tier.publish("pipe", 2);
    rig.tier.quiesce();
    EXPECT_EQ(rig.tier.parameter("pipe", "isovalue"), 0.7);
    EXPECT_EQ(rig.tier.steering_log().size(), 2u);
    // Frame 1 rendered with the default camera parameter, frame 2 with the
    // steered one -- boundary application, not mid-iteration.
    ASSERT_EQ(seen_params.size(), 2u);
    EXPECT_EQ(seen_params[0], 0.0);
    EXPECT_EQ(seen_params[1], 1.25);
  });
  rig.sim.run();
}

TEST(ViewerSteering, DrainIsIdempotentPerIteration) {
  TierRig rig;
  rig.proc.spawn("driver", [&] {
    SteeringUpdate knob;
    knob.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::parameter);
    knob.name = "dt";
    knob.value = 2.5;
    rig.tier.steer("pipe", knob);
    auto first = rig.tier.drain("pipe", 3);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].value, 2.5);
    // The publish() hook draining the same boundary is a no-op.
    EXPECT_TRUE(rig.tier.drain("pipe", 3).empty());
    EXPECT_EQ(rig.tier.steering_log().size(), 1u);
  });
  rig.sim.run();
}

// Same steering log + same producer => bit-identical rebuilt log (digest and
// records) and identical rendered frames, with no live steering calls at all.
TEST(ViewerSteering, ReplayFromLogIsBitIdentical) {
  auto run = [](const SteeringLog* replay, SteeringLog* log_out,
                std::vector<std::uint64_t>* hashes_out) {
    TierRig rig;
    std::vector<std::uint64_t> hashes;
    rig.tier.set_producer("pipe", [&](std::uint64_t it, std::uint32_t cam,
                                      double param) {
      FrameImage img = test_image(it, cam, param);
      hashes.push_back(img.hash());
      return img;
    });
    if (replay != nullptr) rig.tier.load_replay(*replay);
    rig.proc.spawn("driver", [&, replay] {
      const std::uint64_t id = rig.tier.connect(0);
      ASSERT_TRUE(rig.tier.subscribe(id, "pipe", 0).ok());
      for (std::uint64_t it = 1; it <= 4; ++it) {
        if (replay == nullptr && it == 2) {
          SteeringUpdate cam;
          cam.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::camera);
          cam.value = 0.5;
          rig.tier.steer("pipe", cam);
          SteeringUpdate knob;
          knob.kind =
              static_cast<std::uint8_t>(SteeringUpdate::Kind::parameter);
          knob.name = "isovalue";
          knob.value = 0.9;
          rig.tier.steer("pipe", knob);
        }
        rig.tier.publish("pipe", it);
        rig.sim.sleep_for(milliseconds(10));
      }
      rig.tier.quiesce();
    });
    rig.sim.run();
    *log_out = rig.tier.steering_log();
    *hashes_out = std::move(hashes);
  };

  SteeringLog live_log;
  std::vector<std::uint64_t> live_hashes;
  run(nullptr, &live_log, &live_hashes);
  ASSERT_EQ(live_log.size(), 2u);

  SteeringLog replay_log;
  std::vector<std::uint64_t> replay_hashes;
  run(&live_log, &replay_log, &replay_hashes);

  EXPECT_EQ(replay_log, live_log);
  EXPECT_EQ(replay_log.digest(), live_log.digest());
  EXPECT_EQ(replay_hashes, live_hashes);
}

TEST(ViewerSteering, LogJsonRoundTripsAndIsStrict) {
  SteeringLog log;
  SteeringRecord rec;
  rec.seq = 1;
  rec.pipeline = "pipe";
  rec.queued_at = des::microseconds(1500);
  rec.applied_iteration = 3;
  rec.update.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::parameter);
  rec.update.name = "isovalue";
  rec.update.value = 0.75;
  rec.update.session = 9;
  log.append(rec);
  rec.seq = 2;
  rec.update.kind = static_cast<std::uint8_t>(SteeringUpdate::Kind::camera);
  rec.update.camera = 2;
  rec.update.value = 1.5;
  log.append(rec);
  // Non-microsecond-aligned arrival and a negative steered value (a camera
  // azimuth can be negative): both must survive the JSON round trip with the
  // digest intact.
  rec.seq = 3;
  rec.queued_at = des::microseconds(1500) + 7;
  rec.update.value = -42.25;
  log.append(rec);

  const SteeringLog back = SteeringLog::from_json(log.to_json());
  EXPECT_EQ(back, log);
  EXPECT_EQ(back.digest(), log.digest());

  EXPECT_THROW(SteeringLog::from_json(R"({"recordz":[]})"), std::runtime_error);
  EXPECT_THROW(SteeringLog::from_json(R"({"records":[{"sequence":1}]})"),
               std::runtime_error);
}

// ----------------------------------------------------------- remote push path

TEST(ViewerClientTest, PushSessionDecodesAndVerifiesEveryFrame) {
  des::Simulation sim;
  net::Network net(sim);
  auto& tier_proc = net.create_process(1);
  rpc::Engine tier_engine(tier_proc, net::Profile::mona());
  ViewerTier tier(tier_proc, tier_engine);
  tier.set_producer("pipe", test_producer());

  auto& obs_proc = net.create_process(2);
  rpc::Engine obs_engine(obs_proc, net::Profile::mona());
  ViewerClient client(obs_engine);

  constexpr std::uint64_t kIterations = 6;
  obs_proc.spawn("observer", [&] {
    auto session = client.connect(tier_proc.id(), /*quality=*/0);
    ASSERT_TRUE(session.has_value()) << session.status().to_string();
    ASSERT_TRUE(client.subscribe("pipe", 0).ok());
    for (std::uint64_t it = 1; it <= kIterations; ++it) {
      tier.publish("pipe", it);
      sim.sleep_for(milliseconds(20));
    }
    tier.quiesce();
    sim.sleep_for(milliseconds(20));  // last notify crosses the fabric
    EXPECT_EQ(client.decode_failures(), 0u);
    ASSERT_EQ(client.received().size(), kIterations);
    for (const auto& r : client.received()) {
      EXPECT_EQ(r.image_hash, test_image(r.iteration, 0, 0.0).hash());
    }
    const FrameImage* img = client.image("pipe", 0);
    ASSERT_NE(img, nullptr);
    EXPECT_EQ(img->hash(), test_image(kIterations, 0, 0.0).hash());
    ASSERT_TRUE(client.steer("pipe", SteeringUpdate{
                                         .kind = 1, .name = "dt", .value = 2.0})
                    .ok());
    tier.publish("pipe", kIterations + 1);
    tier.quiesce();
    EXPECT_EQ(tier.parameter("pipe", "dt"), 2.0);
    ASSERT_TRUE(client.disconnect().ok());
    EXPECT_EQ(tier.sessions(), 0u);
  });
  sim.run();
}

// ------------------------------------------------------------------- churn

TEST(ViewerTier, ChurnIsDeterministicInSeedAndFraction) {
  TierRig a(ViewerConfig{}, 1);
  std::size_t dropped_a = 0;
  a.proc.spawn("driver", [&] {
    for (int i = 0; i < 100; ++i) a.tier.connect(0);
    dropped_a = a.tier.churn(0.5, 42);
    EXPECT_EQ(a.tier.sessions(), 100 - dropped_a);
    EXPECT_EQ(a.tier.churn(0.0, 42), 0u);
  });
  a.sim.run();
  EXPECT_GT(dropped_a, 20u);
  EXPECT_LT(dropped_a, 80u);

  // A second tier with the same session ids and seed drops the same count.
  TierRig b(ViewerConfig{}, 1);
  b.proc.spawn("driver", [&] {
    for (int i = 0; i < 100; ++i) b.tier.connect(0);
    EXPECT_EQ(b.tier.churn(0.5, 42), dropped_a);
    // fraction 1.0 empties the tier (u is drawn from [0, 1)).
    EXPECT_EQ(b.tier.churn(1.0, 7), 100 - dropped_a);
    EXPECT_EQ(b.tier.sessions(), 0u);
  });
  b.sim.run();
}

}  // namespace
}  // namespace colza::viewer
