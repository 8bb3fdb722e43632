// Catalyst-style in situ pipelines: a declarative script (the stand-in for a
// Python script exported from ParaView, S III-A) plus an execution engine
// that runs filters, local rendering, and parallel image compositing over an
// abstract vis::Communicator.
//
// The engine is transport-agnostic by construction: hand it a communicator
// backed by MoNA and it runs elastically inside Colza; hand it one backed by
// simmpi and it is the paper's "MPI" baseline. Nothing below this line knows
// which it got -- that is the paper's central software claim.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "icet/icet.hpp"
#include "render/render.hpp"
#include "vis/communicator.hpp"
#include "vis/data.hpp"

namespace colza::catalyst {

// Bounds on the sizes a pipeline config may ask for (from_json).
inline constexpr int kMaxImageEdge = 4096;
inline constexpr int kMinResampleDim = 2;
inline constexpr int kMaxResampleDim = 512;

enum class RenderMode : std::uint8_t {
  isosurface,  // contour -> (clip) -> rasterize -> depth compositing
  volume,      // (merge+resample) -> raycast -> over compositing
  slice,       // plane cross-section -> rasterize -> depth compositing
};

struct PipelineScript {
  std::string name = "pipeline";
  RenderMode mode = RenderMode::isosurface;

  std::string field;        // scalar field to contour / volume-render
  std::string color_field;  // optional secondary field for coloring

  // Isosurface mode: one or more contour levels (the Gray-Scott pipeline
  // combines multiple isosurface levels with clipping, Fig 3a).
  std::vector<float> iso_values{0.5f};
  bool clip = false;
  vis::Vec3 clip_origin{0, 0, 0};
  vis::Vec3 clip_normal{1, 0, 0};

  // Slice mode: the cutting plane (origin {0,0,0} = global bounds center).
  vis::Vec3 slice_origin{0, 0, 0};
  vis::Vec3 slice_normal{0, 0, 1};

  // Volume mode: resampling resolution for unstructured inputs.
  std::array<std::uint32_t, 3> resample_dims{48, 48, 48};
  float opacity_scale = 0.08f;

  int image_width = 256;
  int image_height = 256;
  icet::Strategy strategy = icet::Strategy::binary_swap;
  render::ColorMapKind colormap = render::ColorMapKind::viridis;
  float range_lo = 0.0f;
  float range_hi = 1.0f;

  // Optional path template; when non-empty, the compositing root writes a
  // PPM per execution ("{}" is replaced by the iteration number).
  std::string save_path;

  // Parses the admin interface's JSON configuration string; unknown keys are
  // ignored, missing keys keep defaults. The config arrives over the wire,
  // so sizes are checked before use: "width" and "height" must be integers
  // in [1, kMaxImageEdge] and each "resample_dims" entry an integer in
  // [kMinResampleDim, kMaxResampleDim]; otherwise std::invalid_argument
  // names the key.
  static PipelineScript from_json(const json::Value& cfg);

  // Presets matching the paper's three applications (S III-A).
  static PipelineScript gray_scott();
  static PipelineScript mandelbulb();
  static PipelineScript dwi();
};

struct ExecutionStats {
  std::size_t blocks = 0;
  std::size_t input_bytes = 0;
  std::size_t cells_processed = 0;
  std::size_t triangles_rendered = 0;
  std::uint64_t composite_bytes = 0;
  bool wrote_image = false;
};

// Runs the pipeline over this rank's staged blocks; collective over `comm`
// (every member must call it with the same script and iteration). On return,
// rank 0's `fb` holds the composited image. Local compute is charged to the
// virtual clock when called from a DES fiber.
Expected<ExecutionStats> execute(const PipelineScript& script,
                                 std::span<const vis::DataSet> blocks,
                                 vis::Communicator& comm,
                                 render::FrameBuffer& fb,
                                 std::uint64_t iteration = 0);

}  // namespace colza::catalyst
