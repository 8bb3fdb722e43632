// Tests for the Catalyst-style pipeline layer: script parsing, presets, and
// distributed execution over MoNA- and MPI-backed communicators (the
// dependency-injection equivalence at the heart of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/mandelbulb.hpp"
#include "catalyst/catalyst.hpp"
#include "common/rng.hpp"
#include "des/parallel.hpp"
#include "des/simulation.hpp"
#include "mona/mona.hpp"
#include "net/network.hpp"
#include "simmpi/simmpi.hpp"
#include "vis/communicator.hpp"
#include "vis/filters.hpp"

namespace colza::catalyst {
namespace {

vis::UniformGrid sphere_block(std::uint32_t n, vis::Vec3 origin,
                              vis::Vec3 center) {
  vis::UniformGrid g;
  g.dims = {n, n, n};
  g.origin = origin;
  std::vector<float> f(g.point_count());
  for (std::uint32_t k = 0; k < n; ++k)
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t i = 0; i < n; ++i)
        f[g.point_index(i, j, k)] = (g.point(i, j, k) - center).norm();
  g.point_data.add(vis::DataArray::make<float>("dist", f));
  return g;
}

TEST(PipelineScript, FromJsonOverridesDefaults) {
  auto cfg = json::parse(R"({
    "name": "test", "mode": "volume", "field": "rho",
    "iso_values": [0.1, 0.2], "clip": true,
    "clip_normal": [0, 1, 0],
    "width": 128, "height": 64,
    "strategy": "tree", "colormap": "grayscale",
    "range_lo": -1, "range_hi": 2, "opacity": 0.5,
    "resample_dims": [16, 16, 16]
  })");
  PipelineScript s = PipelineScript::from_json(cfg);
  EXPECT_EQ(s.name, "test");
  EXPECT_EQ(s.mode, RenderMode::volume);
  EXPECT_EQ(s.field, "rho");
  EXPECT_EQ(s.iso_values, (std::vector<float>{0.1f, 0.2f}));
  EXPECT_TRUE(s.clip);
  EXPECT_EQ(s.clip_normal, (vis::Vec3{0, 1, 0}));
  EXPECT_EQ(s.image_width, 128);
  EXPECT_EQ(s.image_height, 64);
  EXPECT_EQ(s.strategy, icet::Strategy::tree);
  EXPECT_EQ(s.colormap, render::ColorMapKind::grayscale);
  EXPECT_EQ(s.range_lo, -1.0f);
  EXPECT_EQ(s.range_hi, 2.0f);
  EXPECT_EQ(s.opacity_scale, 0.5f);
  EXPECT_EQ(s.resample_dims[0], 16u);
}

// Sizes arrive over colza.admin.create_pipeline: they are checked before
// any cast, and a rejection names the key.
TEST(PipelineScript, FromJsonRejectsOutOfRangeSizes) {
  struct Case {
    const char* config;
    const char* key;
  };
  for (const Case& c : {
           Case{R"({"width": 0})", "width"},
           Case{R"({"width": -3})", "width"},
           Case{R"({"width": 4097})", "width"},
           Case{R"({"width": 12.5})", "width"},
           Case{R"({"width": 1e5, "height": 1e5})", "width"},
           Case{R"({"height": 0})", "height"},
           Case{R"({"height": "tall"})", "height"},
           Case{R"({"height": 1e300})", "height"},
           Case{R"({"resample_dims": [-1, 0, 1e12]})", "resample_dims"},
           Case{R"({"resample_dims": [1, 16, 16]})", "resample_dims"},
           Case{R"({"resample_dims": [16, 16, 513]})", "resample_dims"},
           Case{R"({"resample_dims": [16, 16, 2.5]})", "resample_dims"},
           Case{R"({"resample_dims": [16, 16]})", "resample_dims"},
           Case{R"({"resample_dims": 16})", "resample_dims"},
           Case{R"({"clip_normal": ["x", 0, 1]})", "clip_normal"},
           Case{R"({"clip_origin": [0, 1]})", "clip_origin"},
           Case{R"({"slice_origin": [0, null, 0]})", "slice_origin"},
           Case{R"({"slice_normal": "up"})", "slice_normal"},
           Case{R"({"slice_normal": [0, 0, 1e300]})", "slice_normal"},
           Case{R"({"iso_values": ["6"]})", "iso_values"},
           Case{R"({"iso_values": [1e300]})", "iso_values"},
           Case{R"({"iso_values": 6})", "iso_values"},
           Case{R"({"range_lo": "low"})", "range_lo"},
           Case{R"({"range_hi": -1e39})", "range_hi"},
           Case{R"({"opacity": true})", "opacity"},
       }) {
    try {
      (void)PipelineScript::from_json(json::parse(c.config));
      ADD_FAILURE() << c.config << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << c.config << ": " << e.what();
    }
  }
  const PipelineScript edge = PipelineScript::from_json(json::parse(
      R"({"width": 1, "height": 4096, "resample_dims": [2, 512, 2]})"));
  EXPECT_EQ(edge.image_width, 1);
  EXPECT_EQ(edge.image_height, 4096);
  EXPECT_EQ(edge.resample_dims, (std::array<std::uint32_t, 3>{2, 512, 2}));
}

TEST(PipelineScript, EmptyConfigKeepsDefaults) {
  PipelineScript s = PipelineScript::from_json(json::parse(""));
  EXPECT_EQ(s.mode, RenderMode::isosurface);
  EXPECT_EQ(s.image_width, 256);
}

TEST(PipelineScript, PresetsMatchPaperPipelines) {
  const auto gs = PipelineScript::gray_scott();
  EXPECT_EQ(gs.iso_values.size(), 3u);  // multiple levels of isosurfaces
  EXPECT_TRUE(gs.clip);                 // combined with clipping (Fig 3a)
  const auto mb = PipelineScript::mandelbulb();
  EXPECT_EQ(mb.iso_values.size(), 1u);  // a single level of isosurface
  EXPECT_FALSE(mb.clip);
  const auto dwi = PipelineScript::dwi();
  EXPECT_EQ(dwi.mode, RenderMode::volume);  // volume rendering
}

// Runs the same pipeline over N ranks with MoNA communicators; returns the
// root image hash and stats.
struct RunResult {
  std::uint64_t image_hash = 0;
  std::size_t triangles = 0;
};

RunResult run_distributed(int n, const PipelineScript& script) {
  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < n; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  RunResult result;
  std::vector<render::FrameBuffer> fbs(static_cast<std::size_t>(n));
  std::vector<std::shared_ptr<mona::Communicator>> comms;
  for (int i = 0; i < n; ++i) comms.push_back(insts[static_cast<std::size_t>(i)]->comm_create(addrs));
  for (int i = 0; i < n; ++i) {
    procs[static_cast<std::size_t>(i)]->spawn("rank", [&, i] {
      // Rank i owns a slab of a 16^3 sphere field along z.
      const vis::Vec3 center{8, 8, 8};
      vis::UniformGrid block = sphere_block(
          16, {0, 0, 0}, center);  // all ranks share domain; slab by origin
      block.origin.z = static_cast<float>(i) * 15.0f;
      // Recompute the field for the shifted block.
      auto vals = block.point_data.find("dist")->as_mutable<float>();
      for (std::uint32_t k = 0; k < 16; ++k)
        for (std::uint32_t j = 0; j < 16; ++j)
          for (std::uint32_t ii = 0; ii < 16; ++ii)
            vals[block.point_index(ii, j, k)] =
                (block.point(ii, j, k) - vis::Vec3{8, 8, 8 + 15.0f * static_cast<float>(i)}).norm();
      std::vector<vis::DataSet> blocks{vis::DataSet{block}};
      vis::MonaCommunicator comm(comms[static_cast<std::size_t>(i)]);
      auto r = execute(script, blocks, comm,
                       fbs[static_cast<std::size_t>(i)], 1);
      ASSERT_TRUE(r.has_value()) << r.status().to_string();
      if (i == 0) {
        result.image_hash = fbs[0].content_hash();
      }
      result.triangles += r->triangles_rendered;
    });
  }
  sim.run();
  return result;
}

TEST(CatalystExecute, DistributedIsosurfaceProducesImage) {
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {5.0f};
  s.image_width = s.image_height = 64;
  s.range_hi = 10.0f;
  auto r = run_distributed(4, s);
  EXPECT_GT(r.triangles, 500u);
  render::FrameBuffer empty(64, 64);
  EXPECT_NE(r.image_hash, empty.content_hash());
}

TEST(CatalystExecute, SameImageForAnyStrategy) {
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {5.0f};
  s.image_width = s.image_height = 48;
  s.range_hi = 10.0f;
  s.strategy = icet::Strategy::tree;
  const auto tree = run_distributed(3, s).image_hash;
  s.strategy = icet::Strategy::binary_swap;
  const auto bswap = run_distributed(3, s).image_hash;
  s.strategy = icet::Strategy::direct;
  const auto direct = run_distributed(3, s).image_hash;
  EXPECT_EQ(tree, bswap);
  EXPECT_EQ(tree, direct);
}

TEST(CatalystExecute, MonaAndMpiBackendsProduceSameImage) {
  // The paper's dependency-injection claim: the identical pipeline code run
  // over vtkMonaController or vtkMPIController must render the same image.
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {4.0f};
  s.image_width = s.image_height = 32;
  s.range_hi = 10.0f;

  const auto mona_hash = run_distributed(2, s).image_hash;

  des::Simulation sim;
  net::Network net(sim);
  simmpi::MpiJob job(net, 2, 1, simmpi::Vendor::cray_mpich);
  std::uint64_t mpi_hash = 0;
  std::vector<render::FrameBuffer> fbs(2);
  job.launch([&](int rank, mona::Communicator& world) {
    const vis::Vec3 center{8, 8, 8};
    vis::UniformGrid block = sphere_block(16, {0, 0, 0}, center);
    block.origin.z = static_cast<float>(rank) * 15.0f;
    auto vals = block.point_data.find("dist")->as_mutable<float>();
    for (std::uint32_t k = 0; k < 16; ++k)
      for (std::uint32_t j = 0; j < 16; ++j)
        for (std::uint32_t i = 0; i < 16; ++i)
          vals[block.point_index(i, j, k)] =
              (block.point(i, j, k) -
               vis::Vec3{8, 8, 8 + 15.0f * static_cast<float>(rank)})
                  .norm();
    std::vector<vis::DataSet> blocks{vis::DataSet{block}};
    vis::MpiCommunicator comm(world);
    auto r = execute(s, blocks, comm, fbs[static_cast<std::size_t>(rank)], 1);
    ASSERT_TRUE(r.has_value());
    if (rank == 0) mpi_hash = fbs[0].content_hash();
  });
  sim.run();
  EXPECT_EQ(mpi_hash, mona_hash);
}

TEST(CatalystExecute, VolumeModeOverUnstructured) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  PipelineScript s = PipelineScript::dwi();
  s.field = "v";
  s.image_width = s.image_height = 32;
  s.resample_dims = {12, 12, 12};
  bool ok = false;
  render::FrameBuffer fb;
  p.spawn("rank", [&] {
    // A few tetrahedra with a cell field.
    vis::UnstructuredGrid g;
    g.points = {{0, 0, 0}, {4, 0, 0}, {0, 4, 0}, {0, 0, 4}, {4, 4, 4}};
    const std::uint32_t t1[] = {0, 1, 2, 3};
    const std::uint32_t t2[] = {1, 2, 3, 4};
    g.add_cell(vis::CellType::tetra, t1);
    g.add_cell(vis::CellType::tetra, t2);
    g.cell_data.add(
        vis::DataArray::make<float>("v", std::vector<float>{0.8f, 0.6f}));
    std::vector<vis::DataSet> blocks{vis::DataSet{g}};
    vis::MonaCommunicator c(comm);
    auto r = execute(s, blocks, c, fb, 1);
    ASSERT_TRUE(r.has_value()) << r.status().to_string();
    EXPECT_EQ(r->cells_processed, 2u);
    ok = true;
  });
  sim.run();
  ASSERT_TRUE(ok);
  render::FrameBuffer empty(32, 32);
  EXPECT_NE(fb.content_hash(), empty.content_hash());
}

TEST(CatalystExecute, EmptyBlocksStillCollective) {
  // Ranks without data must still participate in compositing.
  des::Simulation sim;
  net::Network net(sim);
  std::vector<net::Process*> procs;
  std::vector<std::unique_ptr<mona::Instance>> insts;
  std::vector<net::ProcId> addrs;
  for (int i = 0; i < 3; ++i) {
    auto& p = net.create_process(static_cast<net::NodeId>(i));
    procs.push_back(&p);
    insts.push_back(std::make_unique<mona::Instance>(p));
    addrs.push_back(p.id());
  }
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {4.0f};
  s.image_width = s.image_height = 24;
  s.range_hi = 10.0f;
  int done = 0;
  std::vector<render::FrameBuffer> fbs(3);
  std::vector<std::shared_ptr<mona::Communicator>> comms;
  for (int i = 0; i < 3; ++i) comms.push_back(insts[static_cast<std::size_t>(i)]->comm_create(addrs));
  for (int i = 0; i < 3; ++i) {
    procs[static_cast<std::size_t>(i)]->spawn("rank", [&, i] {
      std::vector<vis::DataSet> blocks;
      if (i == 1) {
        blocks.emplace_back(sphere_block(12, {0, 0, 0}, {6, 6, 6}));
      }
      vis::MonaCommunicator c(comms[static_cast<std::size_t>(i)]);
      auto r = execute(s, blocks, c, fbs[static_cast<std::size_t>(i)], 1);
      ASSERT_TRUE(r.has_value());
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, 3);
}

TEST(CatalystExecute, SavesImageWhenConfigured) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {3.0f};
  s.image_width = s.image_height = 16;
  s.range_hi = 10.0f;
  s.save_path = "/tmp/colza_catalyst_test_{}.ppm";
  p.spawn("rank", [&] {
    std::vector<vis::DataSet> blocks{
        vis::DataSet{sphere_block(12, {0, 0, 0}, {6, 6, 6})}};
    vis::MonaCommunicator c(comm);
    render::FrameBuffer fb;
    auto r = execute(s, blocks, c, fb, 42);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->wrote_image);
  });
  sim.run();
  std::FILE* f = std::fopen("/tmp/colza_catalyst_test_42.ppm", "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove("/tmp/colza_catalyst_test_42.ppm");
}

TEST(CatalystExecute, ChargesVirtualTimeForCompute) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  PipelineScript s;
  s.field = "dist";
  s.iso_values = {5.0f};
  s.image_width = s.image_height = 64;
  s.range_hi = 20.0f;
  des::Time elapsed = 0;
  p.spawn("rank", [&] {
    std::vector<vis::DataSet> blocks{
        vis::DataSet{sphere_block(24, {0, 0, 0}, {12, 12, 12})}};
    vis::MonaCommunicator c(comm);
    render::FrameBuffer fb;
    const des::Time t0 = sim.now();
    ASSERT_TRUE(execute(s, blocks, c, fb, 1).has_value());
    elapsed = sim.now() - t0;
  });
  sim.run();
  EXPECT_GT(elapsed, 0u);  // filtering/rendering cost landed on the clock
}

// ------------------------------------------- exact image vs serial reference

// `count` z-slabs of one domain, each a uniform grid with the Mandelbulb
// escape field "iterations" and a smooth field "v" in [0, 0.5]. Slab 1 holds
// a NaN sample of each field, next to the contour; slab 3 has no cells and
// slab 4 no crossing of any level (empty blocks); from 3 slabs on, an
// unstructured block sits between slabs 1 and 2.
std::vector<vis::DataSet> slab_blocks(std::uint32_t count) {
  std::vector<vis::DataSet> blocks;
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = 10;
  mb.total_blocks = count;
  for (std::uint32_t id = 0; id < count; ++id) {
    vis::UniformGrid g = apps::mandelbulb_block(mb, id);
    std::vector<float> v(g.point_count());
    for (std::uint32_t k = 0; k < g.dims[2]; ++k)
      for (std::uint32_t j = 0; j < g.dims[1]; ++j)
        for (std::uint32_t i = 0; i < g.dims[0]; ++i) {
          const vis::Vec3 p = g.point(i, j, k);
          v[g.point_index(i, j, k)] =
              0.25f + 0.25f * std::sin(3 * p.x) * std::cos(2 * p.y + p.z);
        }
    g.point_data.add(vis::DataArray::make<float>("v", v));
    if (id == 1) {
      // The sample nearest each field's contour level becomes NaN.
      for (const auto& [field, level] :
           {std::pair<const char*, float>{"iterations", 6.0f},
            std::pair<const char*, float>{"v", 0.3f}}) {
        auto values = g.point_data.find(field)->as_mutable<float>();
        std::size_t nearest = 0;
        for (std::size_t p = 0; p < values.size(); ++p) {
          if (std::abs(values[p] - level) < std::abs(values[nearest] - level))
            nearest = p;
        }
        values[nearest] = std::numeric_limits<float>::quiet_NaN();
      }
    } else if (id == 3) {
      vis::UniformGrid flat;
      flat.dims = {1, 1, 1};
      flat.origin = g.origin;
      flat.point_data.add(
          vis::DataArray::make<float>("iterations", std::vector<float>{6}));
      flat.point_data.add(
          vis::DataArray::make<float>("v", std::vector<float>{0.3f}));
      g = flat;
    } else if (id == 4) {
      for (float& x : g.point_data.find("iterations")->as_mutable<float>())
        x = 0;
      for (float& x : g.point_data.find("v")->as_mutable<float>()) x = 0;
    }
    blocks.emplace_back(std::move(g));
    if (id == 1 && count >= 3) {
      vis::UnstructuredGrid u;
      u.points = {{-1, -1, -1}, {1, -1, -1}, {-1, 1, -1}, {-1, -1, 1}};
      const std::uint32_t tet[] = {0, 1, 2, 3};
      u.add_cell(vis::CellType::tetra, tet);
      u.cell_data.add(
          vis::DataArray::make<float>("v", std::vector<float>{0.4f}));
      blocks.emplace_back(std::move(u));
    }
  }
  return blocks;
}

// `count` blocks whose triangles tie in depth across ranges: block 0 is the
// lower Mandelbulb half, and every later block repeats the upper half with
// its own constant "v" (its color under a "v"-colored pipeline). Where the
// repeats overlap, the serial z-buffer keeps block 1's fragment, so the
// image shows whether ranges fold in staging order.
std::vector<vis::DataSet> tied_blocks(std::uint32_t count) {
  std::vector<vis::DataSet> blocks;
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = 10;
  mb.total_blocks = 2;
  for (std::uint32_t id = 0; id < count; ++id) {
    vis::UniformGrid g = apps::mandelbulb_block(mb, std::min(id, 1u));
    g.point_data.add(vis::DataArray::make<float>(
        "v", std::vector<float>(g.point_count(),
                                0.05f * static_cast<float>(id))));
    blocks.emplace_back(std::move(g));
  }
  return blocks;
}

struct Rendered {
  render::FrameBuffer fb;
  std::size_t cells = 0;
  std::size_t triangles = 0;
};

// The pre-change body of execute() for a single rank, kept as the
// reference: every block, level and row in order into one framebuffer. It
// runs inside a one-task parallel_pure, where the nested one in raycast runs
// its rows inline.
Rendered serial_reference(const PipelineScript& script,
                          const std::vector<vis::DataSet>& blocks) {
  Rendered out;
  vis::Aabb global;
  for (const auto& b : blocks) {
    const vis::Aabb bb = vis::dataset_bounds(b);
    if (bb.valid()) global.extend(bb);
  }
  if (!global.valid()) {
    global.lo = {0, 0, 0};
    global.hi = {1, 1, 1};
  }
  const render::Camera camera = render::Camera::framing(global);
  render::FrameBuffer& fb = out.fb;
  fb.resize(script.image_width, script.image_height);
  const render::ColorMap cmap{script.colormap, script.range_lo,
                              script.range_hi};
  des::parallel_pure(1, [&](std::size_t) {
    if (script.mode == RenderMode::isosurface) {
      for (const auto& block : blocks) {
        const auto* grid = std::get_if<vis::UniformGrid>(&block);
        if (grid == nullptr) continue;
        out.cells += grid->cell_count();
        for (float iso : script.iso_values) {
          vis::TriangleMesh mesh =
              vis::isosurface(*grid, script.field, iso, script.color_field);
          if (script.clip) {
            const vis::Vec3 origin =
                script.clip_origin == vis::Vec3{0, 0, 0} ? global.center()
                                                         : script.clip_origin;
            mesh = vis::clip_by_plane(mesh, origin, script.clip_normal);
          }
          out.triangles += mesh.triangle_count();
          render::rasterize(fb, mesh, camera, cmap);
        }
      }
    } else if (script.mode == RenderMode::slice) {
      const vis::Vec3 origin = script.slice_origin == vis::Vec3{0, 0, 0}
                                   ? global.center()
                                   : script.slice_origin;
      for (const auto& block : blocks) {
        const auto* grid = std::get_if<vis::UniformGrid>(&block);
        if (grid == nullptr) continue;
        out.cells += grid->cell_count();
        vis::TriangleMesh mesh =
            vis::slice(*grid, script.field, origin, script.slice_normal);
        out.triangles += mesh.triangle_count();
        render::rasterize(fb, mesh, camera, cmap);
      }
    } else {
      std::vector<vis::UnstructuredGrid> ugrids;
      for (const auto& block : blocks) {
        if (const auto* u = std::get_if<vis::UnstructuredGrid>(&block)) {
          ugrids.push_back(*u);
          out.cells += u->cell_count();
        } else if (const auto* g = std::get_if<vis::UniformGrid>(&block)) {
          out.cells += g->cell_count();
          render::TransferFunction tf{cmap, script.opacity_scale};
          render::raycast(fb, *g, script.field, camera, tf);
        }
      }
      if (!ugrids.empty()) {
        vis::UnstructuredGrid merged = vis::merge_grids(ugrids);
        vis::Aabb rb = merged.bounds();
        if (rb.valid() && merged.cell_count() > 0) {
          vis::UniformGrid sampled = vis::resample_to_grid(
              merged, script.field, script.resample_dims, rb);
          render::TransferFunction tf{cmap, script.opacity_scale};
          render::raycast(fb, sampled, script.field, camera, tf);
        }
      }
    }
  });
  return out;
}

// execute() on one rank of a one-rank MoNA communicator, in a simulation.
Rendered execute_alone(const PipelineScript& script,
                       const std::vector<vis::DataSet>& blocks) {
  des::Simulation sim;
  net::Network net(sim);
  auto& p = net.create_process(0);
  mona::Instance inst(p);
  auto comm = inst.comm_create({p.id()});
  Rendered out;
  p.spawn("rank", [&] {
    vis::MonaCommunicator c(comm);
    auto r = execute(script, blocks, c, out.fb, 1);
    ASSERT_TRUE(r.has_value()) << r.status().to_string();
    out.cells = r->cells_processed;
    out.triangles = r->triangles_rendered;
  });
  sim.run();
  return out;
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// execute() renders a rank's blocks over des::parallel_pure in contiguous
// ranges and folds the ranges' images; its rgba and depth bytes equal the
// serial loop's for every pipeline kind and block count, NaN samples, empty
// blocks and depth ties across ranges included.
TEST(CatalystExecute, ImageIsBitIdenticalToTheSerialLoop) {
  PipelineScript gray_scott = PipelineScript::gray_scott();
  PipelineScript slice;
  slice.mode = RenderMode::slice;
  slice.field = "v";
  slice.slice_normal = {1.0f, 0.3f, 0.2f};
  slice.range_hi = 0.5f;
  PipelineScript volume = PipelineScript::dwi();
  volume.field = "v";
  volume.colormap = render::ColorMapKind::viridis;
  volume.range_hi = 0.5f;
  volume.resample_dims = {8, 8, 8};
  PipelineScript tied = PipelineScript::mandelbulb();
  tied.color_field = "v";
  tied.range_hi = 0.5f;
  const struct {
    const char* name;
    PipelineScript script;
    std::vector<vis::DataSet> (*blocks)(std::uint32_t);
  } pipelines[] = {{"mandelbulb", PipelineScript::mandelbulb(), slab_blocks},
                   {"gray-scott", gray_scott, slab_blocks},
                   {"slice", slice, slab_blocks},
                   {"volume", volume, slab_blocks},
                   {"depth ties", tied, tied_blocks}};
  for (auto [name, script, make_blocks] : pipelines) {
    script.image_width = 72;
    script.image_height = 56;
    for (const std::uint32_t count : {0u, 1u, 2u, 3u, 5u, 9u}) {
      const std::vector<vis::DataSet> blocks = make_blocks(count);
      const Rendered want = serial_reference(script, blocks);
      const Rendered got = execute_alone(script, blocks);
      EXPECT_TRUE(same_bytes(got.fb.rgba, want.fb.rgba))
          << name << ", " << count << " blocks: rgba";
      EXPECT_TRUE(same_bytes(got.fb.depth, want.fb.depth))
          << name << ", " << count << " blocks: depth";
      EXPECT_EQ(got.cells, want.cells) << name << ", " << count << " blocks";
      EXPECT_EQ(got.triangles, want.triangles)
          << name << ", " << count << " blocks";
    }
  }
}

// Perfbench elastic-mandelbulb's iteration rendered by one rank: the
// mandelbulb preset over 64 blocks of 16^3 at 128^2, every (block, cell
// layer) task drawing into one OrderedTarget. The image is perfbench's
// reference (reference.json), the depth composite of the staging servers'
// images that every iteration of every seed reproduces; the counts are
// one iteration's traced vis.cells and render.triangles.
TEST(CatalystExecute, ElasticMandelbulbIterationMatchesThePerfbenchImage) {
  apps::MandelbulbParams mb;
  mb.nx = mb.ny = mb.nz = 16;
  mb.total_blocks = 64;
  std::vector<vis::DataSet> blocks;
  for (std::uint32_t id = 0; id < mb.total_blocks; ++id)
    blocks.emplace_back(apps::mandelbulb_block(mb, id));
  PipelineScript script = PipelineScript::mandelbulb();
  script.image_width = script.image_height = 128;
  const Rendered got = execute_alone(script, blocks);
  EXPECT_EQ(got.fb.content_hash(), 0x582582fa162b9532u);
  EXPECT_EQ(got.cells, 216000u);
  EXPECT_EQ(got.triangles, 229656u);
}

// render::OrderedTarget keeps, per pixel, the first fragment of least depth
// in task order, whatever order the tasks draw in. The depth-tie scene's
// (block, layer) tasks, drawn one after another on this thread in index
// order, reversed and in seeded permutations, give the serial loop's rgba
// and depth bytes each time: straight from the contour, and through the
// clip path's meshes. A plain z-buffer drawn in reverse differs, so the
// scene does hold ties.
TEST(OrderedTarget, AnyTaskOrderGivesTheSerialImage) {
  PipelineScript tied = PipelineScript::mandelbulb();
  tied.color_field = "v";
  tied.range_hi = 0.5f;
  tied.image_width = 72;
  tied.image_height = 56;
  PipelineScript clipped = tied;
  clipped.clip = true;
  clipped.clip_normal = {1.0f, 0.3f, -0.2f};
  const std::vector<vis::DataSet> blocks = tied_blocks(5);

  vis::Aabb global;
  for (const auto& b : blocks) global.extend(vis::dataset_bounds(b));
  const render::Camera camera = render::Camera::framing(global);
  struct Task {
    const vis::UniformGrid* grid;
    std::uint32_t layer;
  };
  std::vector<Task> tasks;
  for (const auto& b : blocks) {
    const auto& grid = std::get<vis::UniformGrid>(b);
    for (std::uint32_t k = 0; k + 1 < grid.dims[2]; ++k)
      tasks.push_back({&grid, k});
  }
  std::vector<std::vector<std::size_t>> orders(2);
  for (std::size_t t = 0; t < tasks.size(); ++t) orders[0].push_back(t);
  orders[1].assign(orders[0].rbegin(), orders[0].rend());
  Rng rng(29);
  for (int s = 0; s < 6; ++s) {
    orders.push_back(orders[0]);
    std::shuffle(orders.back().begin(), orders.back().end(), rng);
  }

  for (const PipelineScript& script : {tied, clipped}) {
    const Rendered want = serial_reference(script, blocks);
    const render::ColorMap cmap{script.colormap, script.range_lo,
                                script.range_hi};
    const float iso = script.iso_values.at(0);
    auto layer_mesh = [&](const Task& task) {
      vis::TriangleMesh mesh;
      vis::isosurface_layers(*task.grid, script.field, iso, script.color_field,
                             task.layer, task.layer + 1, mesh);
      return script.clip ? vis::clip_by_plane(mesh, global.center(),
                                              script.clip_normal)
                         : mesh;
    };
    for (std::size_t o = 0; o < orders.size(); ++o) {
      render::FrameBuffer fb(script.image_width, script.image_height);
      render::OrderedTarget target(fb);
      for (const std::size_t t : orders[o]) {
        const Task& task = tasks[t];
        if (script.clip) {
          render::rasterize(target, t, layer_mesh(task), camera, cmap);
        } else {
          (void)render::rasterize_isosurface(
              target, t, *task.grid, script.field, iso, script.color_field,
              task.layer, task.layer + 1, camera, cmap);
        }
      }
      EXPECT_TRUE(same_bytes(fb.rgba, want.fb.rgba))
          << "clip " << script.clip << ", order " << o << ": rgba";
      EXPECT_TRUE(same_bytes(fb.depth, want.fb.depth))
          << "clip " << script.clip << ", order " << o << ": depth";
    }
    render::FrameBuffer plain(script.image_width, script.image_height);
    for (const std::size_t t : orders[1])
      render::rasterize(plain, layer_mesh(tasks[t]), camera, cmap);
    EXPECT_FALSE(same_bytes(plain.rgba, want.fb.rgba))
        << "clip " << script.clip;
  }
}

}  // namespace
}  // namespace colza::catalyst
