// Software renderer: the local-rendering stage of the in situ pipeline.
// Each staging rank renders only its own data into a FrameBuffer (color +
// depth + alpha); the icet compositor then combines the per-rank buffers.
//
// Two render paths, matching the paper's pipelines:
//   * rasterize(): z-buffered triangle rasterization with Lambertian
//     shading, for isosurface pipelines (Gray-Scott, Mandelbulb);
//   * raycast(): front-to-back volume ray marching over a uniform grid,
//     for the Deep Water Impact volume-rendering pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "vis/data.hpp"
#include "vis/math.hpp"

namespace colza::render {

struct Camera {
  vis::Vec3 eye{0, 0, 5};
  vis::Vec3 target{0, 0, 0};
  vis::Vec3 up{0, 1, 0};
  float fov_deg = 45.0f;
  float near_plane = 0.1f;
  float far_plane = 100.0f;

  // Positions the camera to frame `bounds` from a canonical 3/4 view.
  static Camera framing(const vis::Aabb& bounds);
};

enum class ColorMapKind : std::uint8_t { cool_warm, viridis, grayscale };

struct ColorMap {
  ColorMapKind kind = ColorMapKind::cool_warm;
  float lo = 0.0f;
  float hi = 1.0f;

  // Maps a scalar to RGB in [0,1].
  [[nodiscard]] vis::Vec3 map(float v) const;
};

struct TransferFunction {
  ColorMap color;
  float opacity_scale = 0.05f;  // opacity per sample at full scalar
};

// A color channel as images are hashed, written and delivered: [0, 1]
// scaled to a byte, clamped. NaN, which a NaN sample's shading yields,
// becomes 0 instead of reaching an undefined float-to-int conversion.
[[nodiscard]] inline std::uint8_t channel_byte(float v) noexcept {
  return static_cast<std::uint8_t>((v > 0.0f ? std::min(v, 1.0f) : 0.0f) *
                                   255.0f);
}

// One pixel: premultiplied RGBA color + depth in [0,1] (1 = background).
struct FrameBuffer {
  int width = 0;
  int height = 0;
  std::vector<float> rgba;   // 4 floats per pixel
  std::vector<float> depth;  // 1 float per pixel

  FrameBuffer() = default;
  FrameBuffer(int w, int h) { resize(w, h); }
  void resize(int w, int h);
  void clear();
  [[nodiscard]] std::size_t pixel_count() const {
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }

  // Writes a binary PPM (color only, alpha composited over `background`).
  void write_ppm(const std::string& path,
                 vis::Vec3 background = {0.08f, 0.08f, 0.12f}) const;
  // FNV-1a hash (common/hash.hpp, legacy image basis) of the quantized
  // color buffer -- used by tests and the viewer tier to compare images.
  [[nodiscard]] std::uint64_t content_hash() const;
};

// Rasterizes `mesh` into `fb` (additively with z-test; call fb.clear()
// first for a fresh frame). Scalars are mapped through `cmap`. On a CPU with
// AVX2 the coverage test runs on 8 pixel centres of a row at a time; the
// image is the same bit for bit.
void rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
               const Camera& camera, const ColorMap& cmap);

namespace detail {
// rasterize() with the coverage path chosen by the caller: 8 pixel centres
// per AVX2 operation when `avx2` (the CPU must have it), else one at a time.
// Both must write the same bytes for every input, NaN included.
void rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
               const Camera& camera, const ColorMap& cmap, bool avx2);
}  // namespace detail

// Volume-renders point field `field` of `grid` into `fb`. Rows render over
// des::parallel_pure; every pixel depends on the grid and camera alone, so
// the image is the same for any pool width.
void raycast(FrameBuffer& fb, const vis::UniformGrid& grid,
             const std::string& field, const Camera& camera,
             const TransferFunction& tf);

}  // namespace colza::render
