#include "catalyst/catalyst.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "des/parallel.hpp"
#include "des/simulation.hpp"
#include "vis/filters.hpp"

namespace colza::catalyst {

namespace {

// Runs `f` and charges its wall-clock cost to the calling fiber's virtual
// clock (no-op outside a DES fiber, e.g. in plain unit tests).
template <typename F>
auto timed(F&& f) {
  auto* sim = des::Simulation::current();
  if (sim != nullptr && sim->in_fiber()) {
    return sim->charge_scoped(std::forward<F>(f));
  }
  return f();
}

// A count from an untrusted config, checked before any cast: an integral
// number in [lo, hi], or std::invalid_argument naming `key`.
int checked_int(const json::Value& v, const char* key, int lo, int hi) {
  const double d = v.is_number() ? v.as_number() : std::nan("");
  if (!(d >= lo && d <= hi && d == std::floor(d)))
    throw std::invalid_argument(std::string("pipeline config: \"") + key +
                                "\" must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "]");
  return static_cast<int>(d);
}

icet::Strategy strategy_from(const std::string& s, icet::Strategy dflt) {
  if (s == "tree") return icet::Strategy::tree;
  if (s == "binary-swap" || s == "bswap") return icet::Strategy::binary_swap;
  if (s == "direct") return icet::Strategy::direct;
  return dflt;
}

render::ColorMapKind colormap_from(const std::string& s,
                                   render::ColorMapKind dflt) {
  if (s == "viridis") return render::ColorMapKind::viridis;
  if (s == "cool-warm" || s == "coolwarm") return render::ColorMapKind::cool_warm;
  if (s == "grayscale" || s == "gray") return render::ColorMapKind::grayscale;
  return dflt;
}

// Isosurface and slice modes: contours (or slices) this rank's uniform-grid
// blocks and rasterizes them into fb, over des::parallel_pure. The grids
// split into min(width, grids) contiguous ranges: range 0 renders into fb,
// every other range into its own scratch buffer, and after the join the
// scratch buffers fold into fb in range order under IceT's closest_depth
// rule. The image is the serial loop's bit for bit: the z-buffer keeps, per
// pixel, the first fragment of smallest depth (a strict < test), and an
// in-order strict-< fold of contiguous ranges picks that same fragment.
// Contouring one cell layer at a time into a reused mesh emits the same
// triangles in the same order, and no task ever holds a whole block's mesh.
// The caller charges all of it in one charge_scoped, the rendering at its
// serial cost (des/parallel.hpp): the scratch buffers must be gone before
// the fiber yields on its charge, since held across the yield every
// suspended server keeps a set (+23% peak RSS on perfbench
// elastic-mandelbulb).
void render_surfaces(const PipelineScript& script,
                     std::span<const vis::DataSet> blocks,
                     const vis::Aabb& global, const render::Camera& camera,
                     const render::ColorMap& cmap, render::FrameBuffer& fb,
                     ExecutionStats& stats) {
  std::vector<const vis::UniformGrid*> grids;
  for (const auto& block : blocks) {
    // Contouring and slicing need uniform grids.
    if (const auto* g = std::get_if<vis::UniformGrid>(&block))
      grids.push_back(g);
  }
  const std::size_t ranges = std::min(des::parallel_width(), grids.size());
  std::vector<render::FrameBuffer> scratch;
  for (std::size_t r = 1; r < ranges; ++r)
    scratch.emplace_back(fb.width, fb.height);
  struct Tally {
    std::size_t cells = 0;
    std::size_t triangles = 0;
  };
  std::vector<Tally> tallies(ranges);
  const vis::Vec3 clip_origin = script.clip_origin == vis::Vec3{0, 0, 0}
                                    ? global.center()
                                    : script.clip_origin;
  const vis::Vec3 slice_origin = script.slice_origin == vis::Vec3{0, 0, 0}
                                     ? global.center()
                                     : script.slice_origin;

  auto render_range = [&](std::size_t r) {
    render::FrameBuffer& target = r == 0 ? fb : scratch[r - 1];
    Tally& tally = tallies[r];
    auto draw = [&](const vis::TriangleMesh& mesh) {
      tally.triangles += mesh.triangle_count();
      render::rasterize(target, mesh, camera, cmap);
    };
    vis::TriangleMesh layer;
    for (std::size_t g = grids.size() * r / ranges;
         g < grids.size() * (r + 1) / ranges; ++g) {
      const vis::UniformGrid& grid = *grids[g];
      tally.cells += grid.cell_count();
      if (script.mode == RenderMode::slice) {
        draw(vis::slice(grid, script.field, slice_origin,
                        script.slice_normal));
        continue;
      }
      // At least one call, so a grid without cells still has its field
      // checked, as isosurface() does.
      const std::uint32_t layers = std::max<std::uint32_t>(grid.dims[2], 2) - 1;
      for (float iso : script.iso_values) {
        for (std::uint32_t k = 0; k < layers; ++k) {
          layer.clear();
          vis::isosurface_layers(grid, script.field, iso, script.color_field,
                                 k, k + 1, layer);
          if (script.clip) {
            draw(vis::clip_by_plane(layer, clip_origin, script.clip_normal));
          } else {
            draw(layer);
          }
        }
      }
    }
  };
  des::parallel_pure(ranges, render_range);

  for (const render::FrameBuffer& part : scratch)
    icet::composite_local(fb, part, icet::CompositeOp::closest_depth);
  for (const Tally& t : tallies) {
    stats.cells_processed += t.cells;
    stats.triangles_rendered += t.triangles;
  }
}

}  // namespace

PipelineScript PipelineScript::from_json(const json::Value& cfg) {
  PipelineScript s;
  if (!cfg.is_object()) return s;
  s.name = cfg.string_or("name", s.name);
  const std::string mode = cfg.string_or("mode", "isosurface");
  if (mode == "volume") {
    s.mode = RenderMode::volume;
  } else if (mode == "slice") {
    s.mode = RenderMode::slice;
  } else {
    s.mode = RenderMode::isosurface;
  }
  s.field = cfg.string_or("field", s.field);
  s.color_field = cfg.string_or("color_field", s.color_field);
  if (const auto* iso = cfg.find("iso_values"); iso != nullptr && iso->is_array()) {
    s.iso_values.clear();
    for (const auto& v : iso->as_array()) {
      if (v.is_number()) s.iso_values.push_back(static_cast<float>(v.as_number()));
    }
  }
  s.clip = cfg.bool_or("clip", s.clip);
  if (const auto* o = cfg.find("clip_origin"); o != nullptr && o->is_array() &&
                                               o->as_array().size() == 3) {
    s.clip_origin = {static_cast<float>(o->as_array()[0].as_number()),
                     static_cast<float>(o->as_array()[1].as_number()),
                     static_cast<float>(o->as_array()[2].as_number())};
  }
  if (const auto* nrm = cfg.find("clip_normal"); nrm != nullptr && nrm->is_array() &&
                                                 nrm->as_array().size() == 3) {
    s.clip_normal = {static_cast<float>(nrm->as_array()[0].as_number()),
                     static_cast<float>(nrm->as_array()[1].as_number()),
                     static_cast<float>(nrm->as_array()[2].as_number())};
  }
  if (const auto* o = cfg.find("slice_origin"); o != nullptr && o->is_array() &&
                                                o->as_array().size() == 3) {
    s.slice_origin = {static_cast<float>(o->as_array()[0].as_number()),
                      static_cast<float>(o->as_array()[1].as_number()),
                      static_cast<float>(o->as_array()[2].as_number())};
  }
  if (const auto* nrm = cfg.find("slice_normal");
      nrm != nullptr && nrm->is_array() && nrm->as_array().size() == 3) {
    s.slice_normal = {static_cast<float>(nrm->as_array()[0].as_number()),
                      static_cast<float>(nrm->as_array()[1].as_number()),
                      static_cast<float>(nrm->as_array()[2].as_number())};
  }
  if (const auto* d = cfg.find("resample_dims"); d != nullptr) {
    if (!d->is_array() || d->as_array().size() != 3)
      throw std::invalid_argument(
          "pipeline config: \"resample_dims\" must hold 3 integers in [" +
          std::to_string(kMinResampleDim) + ", " +
          std::to_string(kMaxResampleDim) + "]");
    for (std::size_t i = 0; i < 3; ++i) {
      s.resample_dims[i] = static_cast<std::uint32_t>(
          checked_int(d->as_array()[i], "resample_dims", kMinResampleDim,
                      kMaxResampleDim));
    }
  }
  s.opacity_scale = static_cast<float>(cfg.number_or("opacity", s.opacity_scale));
  if (const auto* w = cfg.find("width"); w != nullptr)
    s.image_width = checked_int(*w, "width", 1, kMaxImageEdge);
  if (const auto* h = cfg.find("height"); h != nullptr)
    s.image_height = checked_int(*h, "height", 1, kMaxImageEdge);
  s.strategy = strategy_from(cfg.string_or("strategy", ""), s.strategy);
  s.colormap = colormap_from(cfg.string_or("colormap", ""), s.colormap);
  s.range_lo = static_cast<float>(cfg.number_or("range_lo", s.range_lo));
  s.range_hi = static_cast<float>(cfg.number_or("range_hi", s.range_hi));
  s.save_path = cfg.string_or("save_path", s.save_path);
  return s;
}

PipelineScript PipelineScript::gray_scott() {
  PipelineScript s;
  s.name = "gray-scott";
  s.mode = RenderMode::isosurface;
  s.field = "v";
  // Multiple isosurface levels combined with clipping to look inside the
  // domain (paper Fig 3a).
  s.iso_values = {0.15f, 0.3f, 0.45f};
  s.clip = true;
  s.clip_normal = {0, 0, 1};
  s.colormap = render::ColorMapKind::cool_warm;
  s.range_lo = 0.0f;
  s.range_hi = 0.5f;
  return s;
}

PipelineScript PipelineScript::mandelbulb() {
  PipelineScript s;
  s.name = "mandelbulb";
  s.mode = RenderMode::isosurface;
  s.field = "iterations";
  s.iso_values = {6.0f};  // single level of isosurface (paper S III-A)
  s.colormap = render::ColorMapKind::viridis;
  s.range_lo = 0.0f;
  s.range_hi = 30.0f;
  s.color_field = "iterations";
  return s;
}

PipelineScript PipelineScript::dwi() {
  PipelineScript s;
  s.name = "deep-water-impact";
  s.mode = RenderMode::volume;  // block merge + volume rendering, colored by
  s.field = "v02";              // the velocity field (paper S III-A)
  s.colormap = render::ColorMapKind::cool_warm;
  s.range_lo = 0.0f;
  s.range_hi = 1.0f;
  s.opacity_scale = 0.15f;
  return s;
}

// ---------------------------------------------------------------------------

Expected<ExecutionStats> execute(const PipelineScript& script,
                                 std::span<const vis::DataSet> blocks,
                                 vis::Communicator& comm,
                                 render::FrameBuffer& fb,
                                 std::uint64_t iteration) {
  ExecutionStats stats;
  stats.blocks = blocks.size();
  for (const auto& b : blocks) stats.input_bytes += vis::dataset_byte_size(b);

  // 1. Agree on global bounds so every rank frames the same camera.
  vis::Aabb local = timed([&] {
    vis::Aabb bounds;
    for (const auto& b : blocks) {
      const vis::Aabb bb = vis::dataset_bounds(b);
      if (bb.valid()) bounds.extend(bb);
    }
    return bounds;
  });
  std::array<float, 6> mins{local.lo.x, local.lo.y, local.lo.z,
                            -local.hi.x, -local.hi.y, -local.hi.z};
  std::array<float, 6> gmins{};
  {
    std::span<const std::byte> in{
        reinterpret_cast<const std::byte*>(mins.data()), sizeof(mins)};
    std::span<std::byte> out{reinterpret_cast<std::byte*>(gmins.data()),
                             sizeof(gmins)};
    Status s = comm.allreduce(in, out, 6, mona::op_min<float>());
    if (!s.ok()) return s;
  }
  vis::Aabb global;
  global.lo = {gmins[0], gmins[1], gmins[2]};
  global.hi = {-gmins[3], -gmins[4], -gmins[5]};
  if (!global.valid()) {
    // Nobody has data; produce an empty image.
    global.lo = {0, 0, 0};
    global.hi = {1, 1, 1};
  }
  const render::Camera camera = render::Camera::framing(global);

  // 2. Local filtering + rendering.
  fb.resize(script.image_width, script.image_height);
  const render::ColorMap cmap{script.colormap, script.range_lo,
                              script.range_hi};
  icet::CompositeOp op = icet::CompositeOp::closest_depth;

  if (script.mode == RenderMode::isosurface ||
      script.mode == RenderMode::slice) {
    timed([&] {
      render_surfaces(script, blocks, global, camera, cmap, fb, stats);
    });
  } else {
    op = icet::CompositeOp::over;
    timed([&] {
      // Merge this rank's unstructured blocks, resample, raycast.
      std::vector<vis::UnstructuredGrid> ugrids;
      for (const auto& block : blocks) {
        if (const auto* u = std::get_if<vis::UnstructuredGrid>(&block)) {
          ugrids.push_back(*u);
          stats.cells_processed += u->cell_count();
        } else if (const auto* g = std::get_if<vis::UniformGrid>(&block)) {
          stats.cells_processed += g->cell_count();
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
    });
  }

  // 3. Parallel image compositing (the one communication-heavy step).
  auto vt = icet::make_vtable(comm);
  auto r = icet::composite(fb, vt, script.strategy, op, /*root=*/0);
  if (!r.has_value()) return r.status();
  stats.composite_bytes = r->bytes_sent + r->bytes_received;

  // 4. Optionally persist the image at the root.
  if (comm.rank() == 0 && !script.save_path.empty()) {
    std::string path = script.save_path;
    if (auto pos = path.find("{}"); pos != std::string::npos) {
      path.replace(pos, 2, std::to_string(iteration));
    }
    timed([&] { fb.write_ppm(path); });
    stats.wrote_image = true;
  }
  return stats;
}

}  // namespace colza::catalyst
