// Software renderer: the local-rendering stage of the in situ pipeline.
// Each staging rank renders only its own data into a FrameBuffer (color +
// depth + alpha); the icet compositor then combines the per-rank buffers.
//
// Two render paths, matching the paper's pipelines:
//   * rasterize(): z-buffered triangle rasterization with Lambertian
//     shading, for isosurface pipelines (Gray-Scott, Mandelbulb);
//     rasterize_isosurface() feeds it straight from the contour kernel;
//   * raycast(): front-to-back volume ray marching over a uniform grid,
//     for the Deep Water Impact volume-rendering pipeline.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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
  // Writes an opaque fragment to pixel p: depth z, color rgb, alpha 1.
  void put(std::size_t p, float z, vis::Vec3 rgb) {
    depth[p] = z;
    rgba[p * 4 + 0] = rgb.x;
    rgba[p * 4 + 1] = rgb.y;
    rgba[p * 4 + 2] = rgb.z;
    rgba[p * 4 + 3] = 1.0f;
  }

  // Writes a binary PPM (color only, alpha composited over `background`).
  // Throws std::runtime_error when the file cannot be opened or written.
  void write_ppm(const std::string& path,
                 vis::Vec3 background = {0.08f, 0.08f, 0.12f}) const;
  // FNV-1a hash (common/hash.hpp, legacy image basis) of the quantized
  // color buffer -- used by tests and the viewer tier to compare images.
  [[nodiscard]] std::uint64_t content_hash() const;
};

// A FrameBuffer that the tasks of one parallel region draw into at once,
// ending with the image that drawing them one after another in index order
// gives. Each fragment carries its task's index. Under its pixel's lock, a
// pixel takes a fragment only if z < depth, or if z == depth and the task
// comes before the one whose fragment the pixel holds: the serial z-buffer's
// first fragment of least depth, at any pool width and in any claim order.
// What the framebuffer held before counts as drawn before task 0. The key
// and lock arrays live as long as the target, so make one per region.
class OrderedTarget {
 public:
  explicit OrderedTarget(FrameBuffer& fb)
      : fb_(fb),
        key_(fb.pixel_count(), 0),
        lock_(std::make_unique<std::atomic_flag[]>(fb.pixel_count())) {}
  // Tasks on other threads hold its address while a region runs.
  OrderedTarget(const OrderedTarget&) = delete;
  OrderedTarget& operator=(const OrderedTarget&) = delete;

  [[nodiscard]] const FrameBuffer& framebuffer() const { return fb_; }

  // Offers pixel p task `task`'s fragment at depth z; color() gives its RGB
  // and runs only if the pixel takes it. The pixel, its depth and its key
  // are touched only under the pixel's lock.
  template <class Color>
  void fragment(std::size_t task, std::size_t p, float z, const Color& color) {
    std::atomic_flag& lock = lock_[p];
    while (lock.test_and_set(std::memory_order_acquire)) {
      while (lock.test(std::memory_order_relaxed)) {
      }
    }
    const float depth = fb_.depth[p];
    if (z < depth || (z == depth && task < key_[p])) {
      fb_.put(p, z, color());
      key_[p] = task;
    }
    lock.clear(std::memory_order_release);
  }

 private:
  FrameBuffer& fb_;
  std::vector<std::size_t> key_;  // per pixel: the task of its fragment
  std::unique_ptr<std::atomic_flag[]> lock_;
};

// Rasterizes `mesh` into `fb` (additively with z-test; call fb.clear()
// first for a fresh frame). Scalars are mapped through `cmap`. A pixel takes
// a fragment only if its z is below the pixel's depth, so a fragment whose
// weights overflowed to NaN is dropped. Triangles go 8 at a time through a
// reject that drops only those that provably cover no pixel centre. On a CPU
// with AVX2 the reject runs on 8 triangles and the coverage test on 8 pixel
// centres of a row at a time; the image is the same bit for bit.
void rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
               const Camera& camera, const ColorMap& cmap);

// rasterize() as task `task` of a region drawing into `target`.
void rasterize(OrderedTarget& target, std::size_t task,
               const vis::TriangleMesh& mesh, const Camera& camera,
               const ColorMap& cmap);

// Contours `field` of `grid` at `isovalue` over the cell layers
// [k_begin, k_end) (vis::contour_layers) and rasterizes each cell's
// triangles as the contour finishes the cell, as task `task` into `target`.
// Each edge vertex is projected once per cell, its normal normalized only
// for the fragments a pixel takes, and no mesh is built; the image is that
// of vis::isosurface_layers() into a mesh and then rasterize(). Returns the
// number of triangles the contour emitted.
std::size_t rasterize_isosurface(OrderedTarget& target, std::size_t task,
                                 const vis::UniformGrid& grid,
                                 const std::string& field, float isovalue,
                                 const std::string& color_field,
                                 std::uint32_t k_begin, std::uint32_t k_end,
                                 const Camera& camera, const ColorMap& cmap);

namespace detail {
// rasterize() with the reject and coverage paths chosen by the caller: 8
// triangles or pixel centres per AVX2 operation when `avx2` (the CPU must
// have it), else one at a time. Both must write the same bytes for every
// input, NaN included.
void rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
               const Camera& camera, const ColorMap& cmap, bool avx2);

// A vertex as the rasterizer draws it. ok is false behind the near plane or
// when a coordinate is not finite; a triangle with such a vertex draws
// nothing.
struct ProjectedVertex {
  float x = 0, y = 0;  // screen coordinates, in pixels
  float z = 0;         // depth in [0,1]
  vis::Vec3 normal;
  float scalar = 0;
  bool ok = false;
};

// The rasterizer from screen space on, for tests: draws triangle t, the
// vertices v[3t], v[3t + 1] and v[3t + 2], into fb in order, 8 triangles
// per call of the reject as rasterize() batches a mesh, with normals as
// given, through the paths `avx2` selects.
void rasterize_projected(FrameBuffer& fb, std::span<const ProjectedVertex> v,
                         const ColorMap& cmap, bool avx2);
}  // namespace detail

// Volume-renders point field `field` of `grid` into `fb`. Rows render over
// des::parallel_pure; every pixel depends on the grid and camera alone, so
// the image is the same for any pool width.
void raycast(FrameBuffer& fb, const vis::UniformGrid& grid,
             const std::string& field, const Camera& camera,
             const TransferFunction& tf);

}  // namespace colza::render
