// Tests for the three evaluation applications: Gray-Scott (conservation,
// pattern formation, parallel/serial equivalence via halo exchange),
// Mandelbulb (escape function, block decomposition, degenerate edges, the
// in-simulation memo), and the DWI proxy (growth curve, determinism, mesh
// validity).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/dwi_proxy.hpp"
#include "apps/gray_scott.hpp"
#include "apps/mandelbulb.hpp"
#include "apps/stencil_simd.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "des/parallel.hpp"
#include "des/simulation.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"

namespace colza::apps {
namespace {

// ------------------------------------------------------------- Gray-Scott

TEST(GrayScott, InitialConditionHasSeed) {
  GrayScott gs(GrayScott::Params{.n = 32}, 0, 1);
  vis::UniformGrid g = gs.block();
  const auto v = g.point_data.find("v")->as<float>();
  float vmax = 0;
  for (float x : v) vmax = std::max(vmax, x);
  EXPECT_GT(vmax, 0.4f);  // the center seed
  const auto u = g.point_data.find("u")->as<float>();
  EXPECT_NEAR(u[0], 1.0f, 1e-5f);  // background
}

TEST(GrayScott, FieldsStayBounded) {
  GrayScott::Params p{.n = 24};
  p.steps_per_iteration = 20;
  GrayScott gs(p, 0, 1);
  ASSERT_TRUE(gs.step(nullptr).ok());
  vis::UniformGrid g = gs.block();
  for (const char* f : {"u", "v"}) {
    for (float x : g.point_data.find(f)->as<float>()) {
      ASSERT_GE(x, -0.01f) << f;
      ASSERT_LE(x, 1.51f) << f;
    }
  }
}

TEST(GrayScott, ReactionSpreadsOverTime) {
  GrayScott::Params p{.n = 32};
  p.steps_per_iteration = 50;
  GrayScott gs(p, 0, 1);
  auto active = [&] {
    vis::UniformGrid g = gs.block();
    int n = 0;
    for (float x : g.point_data.find("v")->as<float>()) n += x > 0.1f ? 1 : 0;
    return n;
  };
  const int before = active();
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(gs.step(nullptr).ok());
  EXPECT_GT(active(), before);
}

TEST(GrayScott, SlabsPartitionGlobalDomain) {
  GrayScott::Params p{.n = 30};
  std::uint32_t total = 0;
  for (int r = 0; r < 4; ++r) {
    GrayScott gs(p, r, 4);
    total += gs.local_nz();
    vis::UniformGrid g = gs.block();
    EXPECT_EQ(g.dims[2], gs.local_nz());
  }
  EXPECT_EQ(total, 30u);
}

TEST(GrayScott, ParallelMatchesSerial) {
  // 2 ranks with halo exchange must reproduce the serial run exactly.
  GrayScott::Params p{.n = 16};
  p.steps_per_iteration = 10;
  p.noise = 0.0;  // per-rank RNG streams differ; disable noise for equality

  GrayScott serial(p, 0, 1);
  ASSERT_TRUE(serial.step(nullptr).ok());
  vis::UniformGrid sg = serial.block();
  const auto sv = sg.point_data.find("v")->as<float>();

  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < 2; ++i) {
    auto& pr = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&pr);
    insts.push_back(std::make_unique<mona::Instance>(pr));
    addrs.push_back(pr.id());
  }
  std::vector<vis::UniformGrid> blocks(2);
  for (int r = 0; r < 2; ++r) {
    procs[static_cast<std::size_t>(r)]->spawn("gs", [&, r] {
      auto comm = insts[static_cast<std::size_t>(r)]->comm_create(addrs);
      GrayScott gs(p, r, 2);
      ASSERT_TRUE(gs.step(comm.get()).ok());
      blocks[static_cast<std::size_t>(r)] = gs.block();
    });
  }
  sim.run();

  // Compare the two slabs against the corresponding serial planes.
  const std::size_t plane = 16 * 16;
  for (int r = 0; r < 2; ++r) {
    const auto pv =
        blocks[static_cast<std::size_t>(r)].point_data.find("v")->as<float>();
    const std::size_t z0 = static_cast<std::size_t>(r) * 8;
    for (std::size_t i = 0; i < pv.size(); ++i) {
      ASSERT_NEAR(pv[i], sv[z0 * plane + i], 1e-5f)
          << "rank " << r << " index " << i;
    }
  }
}

TEST(GrayScott, InvalidConfigThrows) {
  EXPECT_THROW(GrayScott(GrayScott::Params{.n = 2}, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(GrayScott(GrayScott::Params{.n = 16}, 5, 4),
               std::invalid_argument);
  EXPECT_THROW(GrayScott(GrayScott::Params{.n = 8}, 15, 16),
               std::invalid_argument);  // more ranks than planes
}

TEST(GrayScott, RowKernelAvx2MatchesScalar) {
  // Both solvers' inner loop: the AVX2 row kernel must write the scalar
  // kernel's bits for every input, special values included, at every count
  // (so every tail length), and nothing past `count`. Finite inputs span
  // many binades, so a reassociated sum changes the rounding visibly.
#if defined(__x86_64__)
  if (!common::simd::avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  constexpr std::uint32_t kMax = 17;
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -0x1.8p-1030};
  const GrayScott::Params p;
  Rng rng(23);
  // Center and six neighbour rows for u, then the same for v.
  std::vector<std::vector<double>> in(14, std::vector<double>(kMax));
  for (std::uint32_t count = 0; count <= kMax; ++count) {
    for (int round = 0; round < 8; ++round) {
      for (auto& row : in) {
        for (double& x : row) {
          x = rng.below(16) == 0
                  ? specials[rng.below(std::size(specials))]
                  : std::ldexp(rng.uniform(-1.0, 1.0),
                               static_cast<int>(rng.below(24)) - 8);
        }
      }
      std::vector<double> scalar(2 * kMax, 7.0);
      std::vector<double> avx2(2 * kMax, 7.0);
      auto rows = [&](std::vector<double>& out) {
        return detail::GsRow{in[0].data(),  in[1].data(),  in[2].data(),
                             in[3].data(),  in[4].data(),  in[5].data(),
                             in[6].data(),  in[7].data(),  in[8].data(),
                             in[9].data(),  in[10].data(), in[11].data(),
                             in[12].data(), in[13].data(), out.data(),
                             out.data() + kMax};
      };
      detail::gs_row_scalar(rows(scalar), count, p.du, p.dv, p.feed, p.kill,
                            p.dt);
      detail::gs_row_avx2(rows(avx2), count, p.du, p.dv, p.feed, p.kill,
                          p.dt);
      ASSERT_EQ(std::memcmp(scalar.data(), avx2.data(),
                            scalar.size() * sizeof(double)),
                0)
          << "count " << count << ", round " << round;
    }
  }
#else
  GTEST_SKIP() << "no AVX2 kernel on this architecture";
#endif
}

// --------------------------------------------------------- GrayScott3D

TEST(GrayScott3D, CartesianDimsBalanced) {
  EXPECT_EQ(cartesian_dims(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(cartesian_dims(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(cartesian_dims(12), (std::array<int, 3>{2, 2, 3}));
  EXPECT_EQ(cartesian_dims(7), (std::array<int, 3>{1, 1, 7}));
  for (int n : {2, 3, 4, 6, 16, 24, 64}) {
    const auto d = cartesian_dims(n);
    EXPECT_EQ(d[0] * d[1] * d[2], n) << n;
    EXPECT_LE(d[0], d[1]);
    EXPECT_LE(d[1], d[2]);
  }
}

TEST(GrayScott3D, BoxesPartitionTheDomain) {
  GrayScott3D::Params p{.n = 20};
  std::size_t total_points = 0;
  for (int r = 0; r < 12; ++r) {
    GrayScott3D gs(p, r, 12);
    const auto e = gs.local_extent();
    total_points += static_cast<std::size_t>(e[0]) * e[1] * e[2];
  }
  EXPECT_EQ(total_points, 20u * 20u * 20u);
}

TEST(GrayScott3D, SingleRankMatchesSlabVersionInitially) {
  GrayScott::Params p{.n = 16};
  p.noise = 0.0;
  GrayScott slab(p, 0, 1);
  GrayScott3D box(p, 0, 1);
  // block() returns the grid by value; keep it alive past the span.
  const vis::UniformGrid sg = slab.block();
  const vis::UniformGrid bg = box.block();
  const auto sv = sg.point_data.find("v")->as<float>();
  const auto bv = bg.point_data.find("v")->as<float>();
  ASSERT_EQ(sv.size(), bv.size());
  for (std::size_t i = 0; i < sv.size(); ++i) ASSERT_EQ(sv[i], bv[i]) << i;
}

TEST(GrayScott3D, ParallelMatchesSerialAcross8Ranks) {
  // 2x2x2 decomposition with six-face halo exchange must reproduce the
  // serial run exactly (noise off so per-rank RNG streams don't differ).
  GrayScott3D::Params p{.n = 12};
  p.steps_per_iteration = 6;
  p.noise = 0.0;

  GrayScott3D serial(p, 0, 1);
  ASSERT_TRUE(serial.step(nullptr).ok());
  vis::UniformGrid sg = serial.block();
  const auto sv = sg.point_data.find("v")->as<float>();

  des::Simulation sim;
  net::Network net(sim);
  constexpr int kRanks = 8;
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < kRanks; ++i) {
    auto& pr = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&pr);
    insts.push_back(std::make_unique<mona::Instance>(pr));
    addrs.push_back(pr.id());
  }
  std::vector<vis::UniformGrid> blocks(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    procs[static_cast<std::size_t>(r)]->spawn("gs3d", [&, r] {
      auto comm = insts[static_cast<std::size_t>(r)]->comm_create(addrs);
      GrayScott3D gs(p, r, kRanks);
      ASSERT_TRUE(gs.step(comm.get()).ok());
      blocks[static_cast<std::size_t>(r)] = gs.block();
    });
  }
  sim.run();

  // Compare every rank's box against the serial solution.
  for (int r = 0; r < kRanks; ++r) {
    const auto& b = blocks[static_cast<std::size_t>(r)];
    const auto bv = b.point_data.find("v")->as<float>();
    const auto x0 = static_cast<std::uint32_t>(b.origin.x);
    const auto y0 = static_cast<std::uint32_t>(b.origin.y);
    const auto z0 = static_cast<std::uint32_t>(b.origin.z);
    std::size_t idx = 0;
    for (std::uint32_t k = 0; k < b.dims[2]; ++k) {
      for (std::uint32_t j = 0; j < b.dims[1]; ++j) {
        for (std::uint32_t i = 0; i < b.dims[0]; ++i, ++idx) {
          ASSERT_NEAR(bv[idx], sv[sg.point_index(x0 + i, y0 + j, z0 + k)],
                      1e-5f)
              << "rank " << r << " at (" << i << "," << j << "," << k << ")";
        }
      }
    }
  }
}

TEST(GrayScott3D, ParallelMatchesSerialNonPowerOfTwo) {
  GrayScott3D::Params p{.n = 12};
  p.steps_per_iteration = 4;
  p.noise = 0.0;
  GrayScott3D serial(p, 0, 1);
  ASSERT_TRUE(serial.step(nullptr).ok());
  vis::UniformGrid sg = serial.block();
  const auto sv = sg.point_data.find("v")->as<float>();

  des::Simulation sim;
  net::Network net(sim);
  constexpr int kRanks = 6;  // 1x2x3 grid
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < kRanks; ++i) {
    auto& pr = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&pr);
    insts.push_back(std::make_unique<mona::Instance>(pr));
    addrs.push_back(pr.id());
  }
  std::vector<vis::UniformGrid> blocks(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    procs[static_cast<std::size_t>(r)]->spawn("gs3d", [&, r] {
      auto comm = insts[static_cast<std::size_t>(r)]->comm_create(addrs);
      GrayScott3D gs(p, r, kRanks);
      ASSERT_TRUE(gs.step(comm.get()).ok());
      blocks[static_cast<std::size_t>(r)] = gs.block();
    });
  }
  sim.run();
  for (int r = 0; r < kRanks; ++r) {
    const auto& b = blocks[static_cast<std::size_t>(r)];
    const auto bv = b.point_data.find("v")->as<float>();
    const auto x0 = static_cast<std::uint32_t>(b.origin.x);
    const auto y0 = static_cast<std::uint32_t>(b.origin.y);
    const auto z0 = static_cast<std::uint32_t>(b.origin.z);
    std::size_t idx = 0;
    for (std::uint32_t k = 0; k < b.dims[2]; ++k)
      for (std::uint32_t j = 0; j < b.dims[1]; ++j)
        for (std::uint32_t i = 0; i < b.dims[0]; ++i, ++idx)
          ASSERT_NEAR(bv[idx], sv[sg.point_index(x0 + i, y0 + j, z0 + k)],
                      1e-5f)
              << "rank " << r;
  }
}

// ------------------------------------------------------------- Mandelbulb

// Runs `body` on a fiber of a running simulation, where mandelbulb_block
// serves repeats from its memo.
template <typename F>
void in_simulation(F&& body) {
  des::Simulation sim;
  sim.spawn("app", [&] { body(); });
  sim.run();
}

// Bit for bit: dims, origin, spacing and every point-data array's bytes.
bool same_grid(const vis::UniformGrid& a, const vis::UniformGrid& b) {
  return vis::serialize_dataset(vis::DataSet{a}) ==
         vis::serialize_dataset(vis::DataSet{b});
}

// In a simulation a block's first two calls compute (and time) it; this
// call and later ones are served from the memo.
constexpr int kFirstMemoizedCall = 3;

TEST(Mandelbulb, EscapeBehaviour) {
  // Far outside: escapes immediately (first check sees r2 > 4 after 1 iter).
  EXPECT_LE(mandelbulb_escape(2.5f, 0, 0, 8, 30), 2);
  // Origin never escapes.
  EXPECT_EQ(mandelbulb_escape(0, 0, 0, 8, 30), 30);
  // Monotone in max_iterations for interior points.
  EXPECT_EQ(mandelbulb_escape(0.1f, 0.1f, 0.1f, 8, 10),
            std::min(10, mandelbulb_escape(0.1f, 0.1f, 0.1f, 8, 50)));
}

TEST(Mandelbulb, BlockFieldInRange) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 12;
  p.total_blocks = 4;
  vis::UniformGrid g = mandelbulb_block(p, 1);
  const auto f = g.point_data.find("iterations")->as<float>();
  ASSERT_EQ(f.size(), g.point_count());
  float lo = 1e9f, hi = -1e9f;
  for (float x : f) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, static_cast<float>(p.max_iterations));
  EXPECT_GT(hi, lo);  // the fractal boundary crosses this block
}

TEST(Mandelbulb, BlocksTileTheZAxis) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 8;
  p.total_blocks = 4;
  float prev_top = -p.range;
  for (std::uint32_t b = 0; b < 4; ++b) {
    vis::UniformGrid g = mandelbulb_block(p, b);
    EXPECT_NEAR(g.origin.z, prev_top, 1e-5f);
    prev_top = g.origin.z + g.spacing.z * static_cast<float>(p.nz - 1);
  }
  EXPECT_NEAR(prev_top, p.range, 1e-5f);
  EXPECT_THROW(mandelbulb_block(p, 4), std::invalid_argument);
}

TEST(Mandelbulb, DeterministicBlocks) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 10;
  p.total_blocks = 2;
  auto a = mandelbulb_block(p, 0);
  auto b = mandelbulb_block(p, 0);
  EXPECT_EQ(a.point_data.find("iterations")->as<float>()[37],
            b.point_data.find("iterations")->as<float>()[37]);
}

TEST(Mandelbulb, RejectsDegenerateEdges) {
  // An edge of one point would divide the extent by zero: infinite spacing
  // and NaN sample coordinates.
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 4;
  p.total_blocks = 2;
  for (std::uint32_t MandelbulbParams::*edge :
       {&MandelbulbParams::nx, &MandelbulbParams::ny, &MandelbulbParams::nz}) {
    for (std::uint32_t bad : {0u, 1u}) {
      MandelbulbParams q = p;
      q.*edge = bad;
      EXPECT_THROW((void)mandelbulb_block(q, 0), std::invalid_argument);
      in_simulation([&] {
        EXPECT_THROW((void)mandelbulb_block(q, 0), std::invalid_argument);
      });
    }
  }
  const MandelbulbParams smallest{.nx = 2, .ny = 2, .nz = 2};
  EXPECT_NO_THROW((void)mandelbulb_block(smallest, 0));
}

// Inside a simulation every call, computed or served from the memo, equals
// the computation outside any simulation, at perfbench elastic-mandelbulb's
// shape (16^3, 64 blocks) and bench_fig05's (12^3, 64 blocks at its
// smallest scale).
TEST(Mandelbulb, MemoizedBlocksMatchComputedOnes) {
  for (const std::uint32_t edge : {16u, 12u}) {
    MandelbulbParams p;
    p.nx = p.ny = p.nz = edge;
    p.total_blocks = 64;
    for (const std::uint32_t id : {0u, 21u, 31u, 32u, 63u}) {
      const vis::UniformGrid want = mandelbulb_block(p, id);
      in_simulation([&] {
        for (int call = 1; call <= kFirstMemoizedCall + 1; ++call) {
          EXPECT_TRUE(same_grid(mandelbulb_block(p, id), want))
              << edge << "^3 block " << id << ", call " << call;
        }
      });
    }
  }
}

// Each params field and the block id is part of the memo key: changing any
// one of them between calls yields that input's own block, never a memoized
// block of another input.
TEST(Mandelbulb, MemoKeyCoversEveryParamAndTheBlockId) {
  MandelbulbParams base;
  base.nx = base.ny = base.nz = 8;
  base.total_blocks = 4;
  const std::uint32_t base_id = 1;
  struct Variant {
    const char* what;
    MandelbulbParams p;
    std::uint32_t id;
  };
  std::vector<Variant> variants;
  auto vary = [&](const char* what, auto change) {
    Variant v{what, base, base_id};
    change(v);
    variants.push_back(v);
  };
  vary("nx", [](Variant& v) { v.p.nx = 9; });
  vary("ny", [](Variant& v) { v.p.ny = 9; });
  vary("nz", [](Variant& v) { v.p.nz = 9; });
  vary("power", [](Variant& v) { v.p.power = 7.0f; });
  vary("max_iterations", [](Variant& v) { v.p.max_iterations = 20; });
  vary("range", [](Variant& v) { v.p.range = 1.1f; });
  vary("total_blocks", [](Variant& v) { v.p.total_blocks = 5; });
  vary("block id", [](Variant& v) { v.id = 2; });

  // The references are computed outside any simulation, where every call
  // computes.
  const vis::UniformGrid base_grid = mandelbulb_block(base, base_id);
  std::vector<vis::UniformGrid> wants;
  for (const Variant& v : variants) {
    wants.push_back(mandelbulb_block(v.p, v.id));
    EXPECT_FALSE(same_grid(wants.back(), base_grid)) << v.what;
  }
  in_simulation([&] {
    // Bring the base block to the point where the memo serves it.
    for (int call = 1; call < kFirstMemoizedCall; ++call)
      (void)mandelbulb_block(base, base_id);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      EXPECT_TRUE(same_grid(mandelbulb_block(variants[i].p, variants[i].id),
                            wants[i]))
          << variants[i].what;
    }
    EXPECT_TRUE(same_grid(mandelbulb_block(base, base_id), base_grid));
  });
}

// Callers move blocks into staging, where chaos may corrupt bytes: a hit is
// the caller's own copy, so changing it cannot reach the next hit.
TEST(Mandelbulb, ChangingAReturnedBlockLeavesTheMemoIntact) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 8;
  p.total_blocks = 4;
  const vis::UniformGrid want = mandelbulb_block(p, 2);
  in_simulation([&] {
    for (int call = 1; call <= kFirstMemoizedCall; ++call) {
      vis::UniformGrid g = mandelbulb_block(p, 2);
      for (float& x : g.point_data.find("iterations")->as_mutable<float>())
        x = -1.0f;
      g.origin.z += 1.0f;
      g.dims[0] = 3;
    }
    EXPECT_TRUE(same_grid(mandelbulb_block(p, 2), want));
  });
}

// Host ns of one mandelbulb_block call.
std::uint64_t call_ns(const MandelbulbParams& p, std::uint32_t id) {
  const auto t0 = std::chrono::steady_clock::now();
  (void)mandelbulb_block(p, id);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// A fixed charge discards every timing, so there one computed call completes
// a memo entry and the next call is served from it. A later wall-clock
// simulation still computes, and times, the entry's second run before
// serving it. A hit copies the field, where computing runs the escape loop
// at every point: hundreds of times slower at this size, so a factor of four
// tells the two apart on any host.
TEST(Mandelbulb, FixedChargeCompletesAnEntryInOneRun) {
  MandelbulbParams p;
  p.nx = p.ny = p.nz = 28;  // a memo key no other test uses
  p.total_blocks = 2;
  std::uint64_t computed = 0, fixed_repeat = 0, wall_first = 0,
                wall_repeat = 0;
  {
    des::Simulation sim(
        des::SimConfig{.fixed_scoped_charge = des::milliseconds(2)});
    sim.spawn("app", [&] {
      computed = call_ns(p, 1);
      fixed_repeat = call_ns(p, 1);
    });
    sim.run();
  }
  in_simulation([&] {
    wall_first = call_ns(p, 1);
    wall_repeat = call_ns(p, 1);
  });
  EXPECT_LT(fixed_repeat, computed / 4) << "fixed charge: second call hits";
  EXPECT_GT(wall_first, computed / 4) << "wall clock: second run is timed";
  EXPECT_LT(wall_repeat, computed / 4) << "wall clock: third call hits";
}

// The pre-change body of compute_block, kept as the reference: one thread,
// plane after plane.
std::vector<float> serial_field(const MandelbulbParams& p,
                                const vis::UniformGrid& g) {
  std::vector<float> field(g.point_count());
  std::size_t idx = 0;
  for (std::uint32_t k = 0; k < p.nz; ++k) {
    const float pz = g.origin.z + g.spacing.z * static_cast<float>(k);
    for (std::uint32_t j = 0; j < p.ny; ++j) {
      const float py = g.origin.y + g.spacing.y * static_cast<float>(j);
      for (std::uint32_t i = 0; i < p.nx; ++i, ++idx) {
        const float px = g.origin.x + g.spacing.x * static_cast<float>(i);
        field[idx] = static_cast<float>(
            mandelbulb_escape(px, py, pz, p.power, p.max_iterations));
      }
    }
  }
  return field;
}

// The z-planes fill over des::parallel_pure, one task each; the field is the
// serial loop's byte for byte with two planes, with fewer planes than the
// pool has threads, and with more.
TEST(Mandelbulb, ParallelFieldMatchesSerialLoop) {
  const auto width = static_cast<std::uint32_t>(des::parallel_width());
  for (const std::uint32_t nz :
       {2u, std::max(2u, width - 1), width + 1, 4 * width + 3}) {
    MandelbulbParams p;
    p.nx = 13;
    p.ny = 11;
    p.nz = nz;
    p.total_blocks = 3;
    for (const std::uint32_t id : {0u, 1u, 2u}) {
      const vis::UniformGrid g = mandelbulb_block(p, id);
      const std::vector<float> want = serial_field(p, g);
      const auto got = g.point_data.find("iterations")->as<float>();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "nz " << nz << ", block " << id;
    }
  }
}

// A miss runs its planes over the pool, and the enclosing charge_scoped
// charges its elapsed time plus the overlap the region replays: its serial
// cost. A hit must replay that, not the elapsed time alone. The memo keeps
// the faster miss's elapsed + overlap, so a hit replays more than either
// miss's overlap. Elapsed alone is less wherever a miss ran at least twice
// as fast as one thread (its overlap then exceeds half its charge), so the
// check waits for two such misses: a busy host may run the planes one after
// another.
TEST(Mandelbulb, MemoHitChargesWhatTheParallelMissCharged) {
  if (des::parallel_width() < 2) GTEST_SKIP() << "no helper threads";
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    MandelbulbParams p;
    p.nx = p.ny = 24;
    p.nz = 40 + attempt;  // memo keys no other test uses
    p.total_blocks = 2;
    std::vector<des::Duration> charged;
    std::vector<std::uint64_t> replayed;
    in_simulation([&] {
      des::Simulation& sim = *des::Simulation::current();
      for (int call = 1; call <= kFirstMemoizedCall; ++call) {
        const des::Time t0 = sim.now();
        const std::uint64_t r0 = sim.replayed_host_ns();
        sim.charge_scoped([&] { (void)mandelbulb_block(p, 1); });
        charged.push_back(sim.now() - t0);
        replayed.push_back(sim.replayed_host_ns() - r0);
      }
    });
    ASSERT_EQ(replayed.size(), 3u);
    if (replayed[0] <= charged[0] / 2 || replayed[1] <= charged[1] / 2)
      continue;
    EXPECT_GT(replayed[2], std::min(replayed[0], replayed[1]))
        << "misses charged " << charged[0] << " and " << charged[1]
        << " ns, replaying " << replayed[0] << " and " << replayed[1]
        << " ns of overlap; the hit replayed " << replayed[2] << " ns";
    return;
  }
  GTEST_SKIP() << "no two misses ran twice as fast as one thread";
}

// --------------------------------------------------------------- DWI proxy

TEST(DwiProxy, CellCountGrowsWithIteration) {
  DwiParams p;
  p.base_edge = 16;
  p.growth_per_iteration = 2;
  std::size_t prev = 0;
  for (int t : {1, 8, 15, 22, 30}) {
    const std::size_t cells = dwi_expected_cells(p, t);
    EXPECT_GT(cells, prev) << "iteration " << t;
    prev = cells;
  }
  // The paper's Fig 1a spans more than an order of magnitude of growth.
  EXPECT_GT(dwi_expected_cells(p, 30), 10 * dwi_expected_cells(p, 1));
}

TEST(DwiProxy, BytesTrackCells) {
  DwiParams p;
  p.base_edge = 16;
  EXPECT_GT(dwi_expected_bytes(p, 20), dwi_expected_bytes(p, 5));
}

TEST(DwiProxy, BlocksPartitionTheIteration) {
  DwiParams p;
  p.base_edge = 20;
  p.growth_per_iteration = 1;
  p.blocks = 8;
  const int t = 10;
  std::size_t total = 0;
  for (std::uint32_t b = 0; b < p.blocks; ++b) {
    vis::UnstructuredGrid g = dwi_block(p, t, b);
    total += g.cell_count();
    // Mesh validity: connectivity references existing points; velocity per
    // cell.
    for (std::size_t c = 0; c < g.cell_count(); ++c) {
      EXPECT_EQ(g.types[c], vis::CellType::hexahedron);
      for (std::uint32_t idx : g.cell(c)) ASSERT_LT(idx, g.points.size());
    }
    ASSERT_NE(g.cell_data.find("v02"), nullptr);
    EXPECT_EQ(g.cell_data.find("v02")->value_count(), g.cell_count());
  }
  EXPECT_EQ(total, dwi_expected_cells(p, t));
}

TEST(DwiProxy, Deterministic) {
  DwiParams p;
  auto a = dwi_block(p, 5, 100);
  auto b = dwi_block(p, 5, 100);
  ASSERT_EQ(a.cell_count(), b.cell_count());
  if (a.cell_count() > 0) {
    EXPECT_EQ(a.cell_data.find("v02")->as<float>()[0],
              b.cell_data.find("v02")->as<float>()[0]);
  }
}

TEST(DwiProxy, VelocityFieldPositive) {
  DwiParams p;
  vis::UnstructuredGrid g = dwi_block(p, 15, 256);
  for (float v : g.cell_data.find("v02")->as<float>()) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 2.0f);
  }
}

TEST(DwiProxy, ArgumentValidation) {
  DwiParams p;
  EXPECT_THROW(dwi_block(p, 0, 0), std::invalid_argument);
  EXPECT_THROW(dwi_block(p, 31, 0), std::invalid_argument);
  EXPECT_THROW(dwi_block(p, 1, p.blocks), std::invalid_argument);
}

}  // namespace
}  // namespace colza::apps
