// Tests for the image compositor: sparse encoding, pixel operators, and all
// three strategies across communicator sizes, over MoNA-backed communicators
// running in the simulated fabric.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/simd.hpp"
#include "des/simulation.hpp"
#include "icet/icet.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "vis/communicator.hpp"

namespace colza::icet {
namespace {

// Paints `fb` so rank r owns a horizontal band: pixels in the band get
// color = (r+1)/size and depth = 0.5; everything else stays background.
void paint_band(render::FrameBuffer& fb, int rank, int size) {
  const int rows = fb.height / size;
  const int y0 = rank * rows;
  const int y1 = rank == size - 1 ? fb.height : y0 + rows;
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < fb.width; ++x) {
      const std::size_t p = static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(fb.width) +
                            static_cast<std::size_t>(x);
      const float v = static_cast<float>(rank + 1) / static_cast<float>(size);
      fb.rgba[p * 4 + 0] = v;
      fb.rgba[p * 4 + 3] = 1.0f;
      fb.depth[p] = 0.5f;
    }
  }
}

// Expected final image for paint_band: every row has its band's color.
bool check_bands(const render::FrameBuffer& fb, int size) {
  const int rows = fb.height / size;
  for (int y = 0; y < fb.height; ++y) {
    int rank = rows == 0 ? 0 : std::min(y / rows, size - 1);
    const float v = static_cast<float>(rank + 1) / static_cast<float>(size);
    for (int x = 0; x < fb.width; ++x) {
      const std::size_t p = static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(fb.width) +
                            static_cast<std::size_t>(x);
      if (std::abs(fb.rgba[p * 4] - v) > 1e-5f) return false;
      if (fb.rgba[p * 4 + 3] != 1.0f) return false;
      if (fb.depth[p] != 0.5f) return false;
    }
  }
  return true;
}

// --------------------------------------------------------------- encoding

TEST(SparseEncoding, RoundTripPreservesActivePixels) {
  render::FrameBuffer fb(16, 2);
  // Activate pixels 3..6 and 20..21.
  for (std::size_t p : {3u, 4u, 5u, 6u, 20u, 21u}) {
    fb.rgba[p * 4 + 0] = 0.25f * static_cast<float>(p % 4);
    fb.rgba[p * 4 + 3] = 1.0f;
    fb.depth[p] = 0.1f * static_cast<float>(p % 8);
  }
  auto enc = encode_sparse(fb, 0, fb.pixel_count());
  render::FrameBuffer out(16, 2);
  composite_sparse(out, 0, enc, CompositeOp::closest_depth);
  for (std::size_t p = 0; p < fb.pixel_count(); ++p) {
    EXPECT_EQ(out.rgba[p * 4], fb.rgba[p * 4]) << p;
    EXPECT_EQ(out.depth[p], fb.depth[p]) << p;
  }
}

TEST(SparseEncoding, EmptyImageEncodesTiny) {
  render::FrameBuffer fb(64, 64);
  auto enc = encode_sparse(fb, 0, fb.pixel_count());
  EXPECT_LE(enc.size(), 16u);  // one skip/count pair
}

TEST(SparseEncoding, SizeScalesWithActivePixels) {
  render::FrameBuffer fb(64, 64);
  for (std::size_t p = 0; p < 100; ++p) {
    fb.rgba[p * 4 + 3] = 1.0f;
  }
  const auto small = encode_sparse(fb, 0, fb.pixel_count()).size();
  for (std::size_t p = 0; p < 2000; ++p) {
    fb.rgba[p * 4 + 3] = 1.0f;
  }
  const auto big = encode_sparse(fb, 0, fb.pixel_count()).size();
  EXPECT_GT(big, 10 * small);
}

TEST(SparseEncoding, InactiveBlockAvx2MatchesScalar) {
  // The run scan's 8-pixel predicate: with one lane off the background --
  // depth one ulp either side of 1.0, or alpha 0.0, -0.0, NaN or a
  // subnormal -- the AVX2 variant must answer exactly as the scalar one.
#if defined(__x86_64__)
  if (!common::simd::avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float depths[] = {1.0f, std::nextafter(1.0f, 0.0f),
                          std::nextafter(1.0f, 2.0f), nan};
  const float alphas[] = {0.0f, -0.0f, nan, tiny, -tiny};
  constexpr std::size_t kP = 8;  // the block under test starts mid-buffer
  for (std::size_t lane = 0; lane < 8; ++lane) {
    for (float d : depths) {
      for (float a : alphas) {
        std::vector<float> rgba(4 * (kP + 8), 0.0f);
        std::vector<float> depth(kP + 8, 1.0f);
        depth[kP + lane] = d;
        rgba[(kP + lane) * 4 + 3] = a;
        const bool scalar =
            detail::inactive_block8_scalar(rgba.data(), depth.data(), kP);
        EXPECT_EQ(detail::inactive_block8_avx2(rgba.data(), depth.data(), kP),
                  scalar)
            << "lane " << lane << " depth " << d << " alpha " << a;
        EXPECT_EQ(scalar, d == 1.0f && a == 0.0f)
            << "lane " << lane << " depth " << d << " alpha " << a;
      }
    }
  }
#else
  GTEST_SKIP() << "no AVX2 kernel on this architecture";
#endif
}

// --------------------------------------------------------------- operators

TEST(Operators, ClosestDepthKeepsNearer) {
  render::FrameBuffer a(2, 1), b(2, 1);
  a.rgba = {1, 0, 0, 1, 0, 0, 0, 0};
  a.depth = {0.3f, 1.0f};
  b.rgba = {0, 1, 0, 1, 0, 1, 0, 1};
  b.depth = {0.6f, 0.4f};
  auto enc = encode_sparse(b, 0, 2);
  composite_sparse(a, 0, enc, CompositeOp::closest_depth);
  EXPECT_EQ(a.rgba[0], 1.0f);  // a was nearer at pixel 0
  EXPECT_EQ(a.depth[0], 0.3f);
  EXPECT_EQ(a.rgba[5], 1.0f);  // b was nearer at pixel 1
  EXPECT_EQ(a.depth[1], 0.4f);
}

TEST(Operators, OverBlendsByDepthOrder) {
  render::FrameBuffer dst(1, 1), src(1, 1);
  // dst: half-transparent red at depth 0.5 (premultiplied).
  dst.rgba = {0.5f, 0, 0, 0.5f};
  dst.depth = {0.5f};
  // src: half-transparent green at depth 0.2 (in front).
  src.rgba = {0, 0.5f, 0, 0.5f};
  src.depth = {0.2f};
  auto enc = encode_sparse(src, 0, 1);
  composite_sparse(dst, 0, enc, CompositeOp::over);
  // Green in front: out = green + (1-0.5)*red.
  EXPECT_NEAR(dst.rgba[0], 0.25f, 1e-5f);
  EXPECT_NEAR(dst.rgba[1], 0.5f, 1e-5f);
  EXPECT_NEAR(dst.rgba[3], 0.75f, 1e-5f);
  EXPECT_EQ(dst.depth[0], 0.2f);
}

TEST(Operators, OverIsOrderIndependentGivenDepths) {
  render::FrameBuffer a1(1, 1), a2(1, 1), near(1, 1), far(1, 1);
  near.rgba = {0, 0.5f, 0, 0.5f};
  near.depth = {0.2f};
  far.rgba = {0.5f, 0, 0, 0.5f};
  far.depth = {0.8f};
  auto enc_near = encode_sparse(near, 0, 1);
  auto enc_far = encode_sparse(far, 0, 1);
  composite_sparse(a1, 0, enc_near, CompositeOp::over);
  composite_sparse(a1, 0, enc_far, CompositeOp::over);
  composite_sparse(a2, 0, enc_far, CompositeOp::over);
  composite_sparse(a2, 0, enc_near, CompositeOp::over);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(a1.rgba[c], a2.rgba[c], 1e-4f);
}

// --------------------------------------------------------------- strategies

class IcetStrategy
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

INSTANTIATE_TEST_SUITE_P(
    All, IcetStrategy,
    ::testing::Combine(::testing::Values(Strategy::tree, Strategy::binary_swap,
                                         Strategy::direct),
                       ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16)),
    [](const auto& info) {
      const char* s = std::get<0>(info.param) == Strategy::tree ? "tree"
                      : std::get<0>(info.param) == Strategy::binary_swap
                          ? "bswap"
                          : "direct";
      return std::string(s) + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST_P(IcetStrategy, BandsCompositeToFullImage) {
  const auto [strategy, n] = GetParam();
  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < n; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i / 4));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  bool root_ok = false;
  std::vector<std::unique_ptr<vis::MonaCommunicator>> comms(
      static_cast<std::size_t>(n));
  std::vector<render::FrameBuffer> fbs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& fb = fbs[static_cast<std::size_t>(i)];
    fb.resize(32, 32);
    paint_band(fb, i, n);
    comms[static_cast<std::size_t>(i)] = std::make_unique<vis::MonaCommunicator>(
        insts[static_cast<std::size_t>(i)]->comm_create(addrs));
    procs[static_cast<std::size_t>(i)]->spawn(
        "compose" + std::to_string(i), [&, i, strategy = strategy, n = n] {
          auto vt = make_vtable(*comms[static_cast<std::size_t>(i)]);
          auto r = composite(fbs[static_cast<std::size_t>(i)], vt, strategy,
                             CompositeOp::closest_depth);
          ASSERT_TRUE(r.has_value()) << r.status().to_string();
          if (i == 0) root_ok = check_bands(fbs[0], n);
        });
  }
  sim.run();
  EXPECT_TRUE(root_ok);
}

TEST(Icet, StrategiesProduceIdenticalImages) {
  auto run = [](Strategy strategy) {
    des::Simulation sim;
    net::Network net(sim);
    constexpr int n = 6;
    std::vector<std::unique_ptr<mona::Instance>> insts;
    std::vector<net::Process*> procs;
    std::vector<net::ProcId> addrs;
    for (int i = 0; i < n; ++i) {
      auto& p = net.create_process(static_cast<net::NodeId>(i));
      procs.push_back(&p);
      insts.push_back(std::make_unique<mona::Instance>(p));
      addrs.push_back(p.id());
    }
    std::uint64_t hash = 0;
    std::vector<std::unique_ptr<vis::MonaCommunicator>> comms(n);
    std::vector<render::FrameBuffer> fbs(n);
    for (int i = 0; i < n; ++i) {
      fbs[static_cast<std::size_t>(i)].resize(24, 24);
      // Overlapping content: rank i paints a square at depth (i+1)/10.
      auto& fb = fbs[static_cast<std::size_t>(i)];
      for (int y = i; y < 24 - i; ++y) {
        for (int x = i; x < 24 - i; ++x) {
          const std::size_t p =
              static_cast<std::size_t>(y) * 24 + static_cast<std::size_t>(x);
          fb.rgba[p * 4 + 0] = static_cast<float>(i + 1) / n;
          fb.rgba[p * 4 + 3] = 1.0f;
          fb.depth[p] = static_cast<float>(i + 1) / 10.0f;
        }
      }
      comms[static_cast<std::size_t>(i)] =
          std::make_unique<vis::MonaCommunicator>(
              insts[static_cast<std::size_t>(i)]->comm_create(addrs));
      procs[static_cast<std::size_t>(i)]->spawn("c", [&, i, strategy] {
        auto vt = make_vtable(*comms[static_cast<std::size_t>(i)]);
        auto r = composite(fbs[static_cast<std::size_t>(i)], vt, strategy,
                           CompositeOp::closest_depth);
        ASSERT_TRUE(r.has_value());
        if (i == 0) hash = fbs[0].content_hash();
      });
    }
    sim.run();
    return hash;
  };
  const auto tree = run(Strategy::tree);
  EXPECT_EQ(tree, run(Strategy::binary_swap));
  EXPECT_EQ(tree, run(Strategy::direct));
}

TEST(Icet, SingleRankIsNoop) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = std::make_unique<vis::MonaCommunicator>(
      inst.comm_create({p.id()}));
  render::FrameBuffer fb(8, 8);
  fb.rgba[0] = 0.5f;
  const auto before = fb.content_hash();
  p.spawn("c", [&] {
    auto vt = make_vtable(*comm);
    auto r = composite(fb, vt, Strategy::binary_swap,
                       CompositeOp::closest_depth);
    ASSERT_TRUE(r.has_value());
  });
  sim.run();
  EXPECT_EQ(fb.content_hash(), before);
}

TEST(Icet, SparseImagesSendFewBytes) {
  // Mostly-empty framebuffers must produce small messages (active-pixel
  // encoding at work).
  des::Simulation sim;
  net::Network net(sim);
  constexpr int n = 4;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::Process*> procs;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < n; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  std::uint64_t total_sent = 0;
  std::vector<std::unique_ptr<vis::MonaCommunicator>> comms(n);
  std::vector<render::FrameBuffer> fbs(n);
  for (int i = 0; i < n; ++i) {
    fbs[static_cast<std::size_t>(i)].resize(128, 128);  // 16K pixels, 1 active
    auto& fb = fbs[static_cast<std::size_t>(i)];
    fb.rgba[static_cast<std::size_t>(i) * 4 + 3] = 1.0f;
    comms[static_cast<std::size_t>(i)] =
        std::make_unique<vis::MonaCommunicator>(
            insts[static_cast<std::size_t>(i)]->comm_create(addrs));
    procs[static_cast<std::size_t>(i)]->spawn("c", [&, i] {
      auto vt = make_vtable(*comms[static_cast<std::size_t>(i)]);
      auto r = composite(fbs[static_cast<std::size_t>(i)], vt, Strategy::tree,
                         CompositeOp::closest_depth);
      ASSERT_TRUE(r.has_value());
      total_sent += r->bytes_sent;
    });
  }
  sim.run();
  // Raw would be 16K pixels * 20 B * 3 senders ~= 1 MB; sparse must be tiny.
  EXPECT_LT(total_sent, 4096u);
}


TEST(Icet, BinarySwapNonPow2RootOutsideGroup) {
  // size 5 => pof2 group {0..3}; root 4 exercises the composite-at-0 then
  // forward-to-root remap path.
  des::Simulation sim;
  net::Network net(sim);
  constexpr int n = 5;
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < n; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  std::vector<std::unique_ptr<vis::MonaCommunicator>> comms(n);
  std::vector<render::FrameBuffer> fbs(n);
  bool root_ok = false;
  for (int i = 0; i < n; ++i) {
    fbs[static_cast<std::size_t>(i)].resize(16, 16);
    paint_band(fbs[static_cast<std::size_t>(i)], i, n);
    comms[static_cast<std::size_t>(i)] =
        std::make_unique<vis::MonaCommunicator>(
            insts[static_cast<std::size_t>(i)]->comm_create(addrs));
    procs[static_cast<std::size_t>(i)]->spawn("c", [&, i] {
      auto vt = make_vtable(*comms[static_cast<std::size_t>(i)]);
      auto r = composite(fbs[static_cast<std::size_t>(i)], vt,
                         Strategy::binary_swap, CompositeOp::closest_depth,
                         /*root=*/4);
      ASSERT_TRUE(r.has_value()) << r.status().to_string();
      if (i == 4) root_ok = check_bands(fbs[4], n);
    });
  }
  sim.run();
  EXPECT_TRUE(root_ok);
}

}  // namespace
}  // namespace colza::icet
