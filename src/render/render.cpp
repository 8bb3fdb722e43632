#include "render/render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/hash.hpp"
#include "des/parallel.hpp"

namespace colza::render {

using vis::Vec3;

// ---------------------------------------------------------------- Camera

Camera Camera::framing(const vis::Aabb& bounds) {
  Camera cam;
  if (!bounds.valid()) return cam;
  const Vec3 c = bounds.center();
  const float radius = bounds.extent().norm() * 0.5f;
  const Vec3 dir = Vec3{1.0f, 0.8f, 1.2f}.normalized();
  const float dist = radius / std::tan(cam.fov_deg * 0.5f * 3.14159265f / 180.0f);
  cam.target = c;
  cam.eye = c + dir * (dist * 1.2f + 1e-3f);
  cam.near_plane = std::max(0.01f, dist * 0.05f);
  cam.far_plane = dist * 4.0f + 2 * radius;
  return cam;
}

// ---------------------------------------------------------------- ColorMap

namespace {
// Eight viridis control points.
constexpr std::array<Vec3, 8> kViridis{{{0.267f, 0.005f, 0.329f},
                                        {0.283f, 0.141f, 0.458f},
                                        {0.254f, 0.265f, 0.530f},
                                        {0.207f, 0.372f, 0.553f},
                                        {0.164f, 0.471f, 0.558f},
                                        {0.128f, 0.567f, 0.551f},
                                        {0.135f, 0.659f, 0.518f},
                                        {0.993f, 0.906f, 0.144f}}};
}  // namespace

Vec3 ColorMap::map(float v) const {
  const float range = hi - lo;
  float t = range != 0 ? (v - lo) / range : 0.5f;
  // A NaN scalar (a NaN sample's) maps like the low end: viridis indexes its
  // table with t.
  t = std::isnan(t) ? 0.0f : std::clamp(t, 0.0f, 1.0f);
  switch (kind) {
    case ColorMapKind::grayscale: return {t, t, t};
    case ColorMapKind::cool_warm: {
      // Blue -> white -> red diverging ramp.
      if (t < 0.5f) {
        const float u = t * 2;
        return vis::lerp({0.23f, 0.30f, 0.75f}, {0.87f, 0.87f, 0.87f}, u);
      }
      const float u = (t - 0.5f) * 2;
      return vis::lerp({0.87f, 0.87f, 0.87f}, {0.71f, 0.02f, 0.15f}, u);
    }
    case ColorMapKind::viridis: {
      const float x = t * (kViridis.size() - 1);
      const auto i = static_cast<std::size_t>(x);
      if (i + 1 >= kViridis.size()) return kViridis.back();
      return vis::lerp(kViridis[i], kViridis[i + 1], x - static_cast<float>(i));
    }
  }
  return {t, t, t};
}

// ---------------------------------------------------------------- FrameBuffer

void FrameBuffer::resize(int w, int h) {
  if (w <= 0 || h <= 0)
    throw std::invalid_argument("FrameBuffer: non-positive size");
  width = w;
  height = h;
  rgba.assign(pixel_count() * 4, 0.0f);
  depth.assign(pixel_count(), 1.0f);
}

void FrameBuffer::clear() {
  std::fill(rgba.begin(), rgba.end(), 0.0f);
  std::fill(depth.begin(), depth.end(), 1.0f);
}

void FrameBuffer::write_ppm(const std::string& path, Vec3 background) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("write_ppm: cannot open " + path);
  std::fprintf(f, "P6\n%d %d\n255\n", width, height);
  std::vector<unsigned char> row(static_cast<std::size_t>(width) * 3);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const std::size_t p =
          (static_cast<std::size_t>(y) * static_cast<std::size_t>(width) + static_cast<std::size_t>(x)) * 4;
      const float a = rgba[p + 3];
      for (int c = 0; c < 3; ++c) {
        // rgba is premultiplied: composite over the background.
        const float v = rgba[p + static_cast<std::size_t>(c)] +
                        (1.0f - a) * (&background.x)[c];
        row[static_cast<std::size_t>(x) * 3 + static_cast<std::size_t>(c)] =
            channel_byte(v);
      }
    }
    std::fwrite(row.data(), 1, row.size(), f);
  }
  std::fclose(f);
}

std::uint64_t FrameBuffer::content_hash() const {
  // Quantized-byte FNV over the color planes, seeded with the legacy image
  // basis (common/hash.hpp) so reference hashes recorded by earlier runs
  // stay valid. The viewer tier hashes its delivered RGBA8 frames with the
  // same quantization, so a frame that round-trips the delivery codec hashes
  // identically here and there.
  std::uint64_t h = common::kFnvImageBasis;
  for (float v : rgba) h = common::fnv1a_byte(h, channel_byte(v));
  return h;
}

// ---------------------------------------------------------------- rasterizer

namespace {

struct ProjectedVertex {
  float x = 0, y = 0;  // screen coordinates
  float z = 0;         // depth in [0,1]
  float inv_w = 0;
  Vec3 normal;
  float scalar = 0;
  bool ok = false;  // in front of the near plane
};

struct CameraBasis {
  Vec3 forward, right, up;
  float tan_half_fov;
};

CameraBasis basis_of(const Camera& cam) {
  CameraBasis b;
  b.forward = (cam.target - cam.eye).normalized();
  b.right = b.forward.cross(cam.up).normalized();
  b.up = b.right.cross(b.forward);
  b.tan_half_fov = std::tan(cam.fov_deg * 0.5f * 3.14159265f / 180.0f);
  return b;
}

}  // namespace

void rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
               const Camera& cam, const ColorMap& cmap) {
  if (fb.width == 0 || fb.height == 0)
    throw std::invalid_argument("rasterize: empty framebuffer");
  const CameraBasis basis = basis_of(cam);
  const float aspect =
      static_cast<float>(fb.width) / static_cast<float>(fb.height);
  const Vec3 light = Vec3{0.4f, 0.8f, 0.45f}.normalized();

  auto project = [&](std::size_t idx) {
    ProjectedVertex v;
    const Vec3 rel = mesh.points[idx] - cam.eye;
    const float zc = rel.dot(basis.forward);  // view-space depth
    if (zc <= cam.near_plane) return v;       // behind near plane: cull
    const float xc = rel.dot(basis.right);
    const float yc = rel.dot(basis.up);
    const float px = xc / (zc * basis.tan_half_fov * aspect);
    const float py = yc / (zc * basis.tan_half_fov);
    v.x = (px * 0.5f + 0.5f) * static_cast<float>(fb.width);
    v.y = (0.5f - py * 0.5f) * static_cast<float>(fb.height);
    v.z = std::clamp((zc - cam.near_plane) / (cam.far_plane - cam.near_plane),
                     0.0f, 1.0f);
    v.inv_w = 1.0f / zc;
    v.normal = idx < mesh.normals.size() ? mesh.normals[idx] : Vec3{0, 0, 1};
    v.scalar = idx < mesh.scalars.size() ? mesh.scalars[idx] : 0.0f;
    // A NaN sample contours to NaN points; nothing may cast them to int.
    v.ok = std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
    return v;
  };

  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    const ProjectedVertex v0 = project(mesh.triangles[3 * t]);
    const ProjectedVertex v1 = project(mesh.triangles[3 * t + 1]);
    const ProjectedVertex v2 = project(mesh.triangles[3 * t + 2]);
    if (!v0.ok || !v1.ok || !v2.ok) continue;

    const float area =
        (v1.x - v0.x) * (v2.y - v0.y) - (v2.x - v0.x) * (v1.y - v0.y);
    if (std::abs(area) < 1e-9f) continue;
    const float inv_area = 1.0f / area;

    // The bounding box is clamped to the screen in float: a vertex far off
    // screen lies beyond int's range.
    const float fxmin = std::max(0.0f, std::floor(std::min({v0.x, v1.x, v2.x})));
    const float fxmax = std::min(static_cast<float>(fb.width - 1),
                                 std::ceil(std::max({v0.x, v1.x, v2.x})));
    const float fymin = std::max(0.0f, std::floor(std::min({v0.y, v1.y, v2.y})));
    const float fymax = std::min(static_cast<float>(fb.height - 1),
                                 std::ceil(std::max({v0.y, v1.y, v2.y})));
    if (fxmin > fxmax || fymin > fymax) continue;
    const int xmin = static_cast<int>(fxmin);
    const int xmax = static_cast<int>(fxmax);
    const int ymin = static_cast<int>(fymin);
    const int ymax = static_cast<int>(fymax);

    for (int y = ymin; y <= ymax; ++y) {
      for (int x = xmin; x <= xmax; ++x) {
        const float cx = static_cast<float>(x) + 0.5f;
        const float cy = static_cast<float>(y) + 0.5f;
        const float w0 = ((v1.x - cx) * (v2.y - cy) - (v2.x - cx) * (v1.y - cy)) * inv_area;
        const float w1 = ((v2.x - cx) * (v0.y - cy) - (v0.x - cx) * (v2.y - cy)) * inv_area;
        const float w2 = 1.0f - w0 - w1;
        if (w0 < 0 || w1 < 0 || w2 < 0) continue;
        const float z = w0 * v0.z + w1 * v1.z + w2 * v2.z;
        const std::size_t p = static_cast<std::size_t>(y) *
                                  static_cast<std::size_t>(fb.width) +
                              static_cast<std::size_t>(x);
        if (z >= fb.depth[p]) continue;
        const Vec3 n = (v0.normal * w0 + v1.normal * w1 + v2.normal * w2)
                           .normalized();
        const float scalar = w0 * v0.scalar + w1 * v1.scalar + w2 * v2.scalar;
        const Vec3 base = cmap.map(scalar);
        const float shade = 0.25f + 0.75f * std::abs(n.dot(light));
        fb.depth[p] = z;
        fb.rgba[p * 4 + 0] = base.x * shade;
        fb.rgba[p * 4 + 1] = base.y * shade;
        fb.rgba[p * 4 + 2] = base.z * shade;
        fb.rgba[p * 4 + 3] = 1.0f;
      }
    }
  }
}

// ---------------------------------------------------------------- raycaster

void raycast(FrameBuffer& fb, const vis::UniformGrid& grid,
             const std::string& field, const Camera& cam,
             const TransferFunction& tf) {
  const vis::DataArray* arr = grid.point_data.find(field);
  if (arr == nullptr)
    throw std::runtime_error("raycast: no point field '" + field + "'");
  const auto values = arr->as<float>();
  const CameraBasis basis = basis_of(cam);
  const float aspect =
      static_cast<float>(fb.width) / static_cast<float>(fb.height);
  const vis::Aabb box = grid.bounds();
  const float step =
      0.7f * std::min({grid.spacing.x, grid.spacing.y, grid.spacing.z});

  auto sample = [&](const Vec3& p) -> float {
    const float fx = (p.x - grid.origin.x) / grid.spacing.x;
    const float fy = (p.y - grid.origin.y) / grid.spacing.y;
    const float fz = (p.z - grid.origin.z) / grid.spacing.z;
    if (fx < 0 || fy < 0 || fz < 0) return 0;
    const auto i = static_cast<std::uint32_t>(fx);
    const auto j = static_cast<std::uint32_t>(fy);
    const auto k = static_cast<std::uint32_t>(fz);
    if (i + 1 >= grid.dims[0] || j + 1 >= grid.dims[1] ||
        k + 1 >= grid.dims[2])
      return 0;
    const float tx = fx - static_cast<float>(i);
    const float ty = fy - static_cast<float>(j);
    const float tz = fz - static_cast<float>(k);
    auto at = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c) {
      return values[grid.point_index(a, b, c)];
    };
    const float c00 = at(i, j, k) * (1 - tx) + at(i + 1, j, k) * tx;
    const float c10 = at(i, j + 1, k) * (1 - tx) + at(i + 1, j + 1, k) * tx;
    const float c01 = at(i, j, k + 1) * (1 - tx) + at(i + 1, j, k + 1) * tx;
    const float c11 =
        at(i, j + 1, k + 1) * (1 - tx) + at(i + 1, j + 1, k + 1) * tx;
    const float c0 = c00 * (1 - ty) + c10 * ty;
    const float c1 = c01 * (1 - ty) + c11 * ty;
    return c0 * (1 - tz) + c1 * tz;
  };

  // Each pixel depends on the grid and the camera alone, so rows render in
  // parallel into disjoint parts of fb.
  des::parallel_pure(static_cast<std::size_t>(fb.height), [&](std::size_t row) {
    const int y = static_cast<int>(row);
    for (int x = 0; x < fb.width; ++x) {
      const float px = (2.0f * (static_cast<float>(x) + 0.5f) /
                            static_cast<float>(fb.width) -
                        1.0f) *
                       basis.tan_half_fov * aspect;
      const float py = (1.0f - 2.0f * (static_cast<float>(y) + 0.5f) /
                                   static_cast<float>(fb.height)) *
                       basis.tan_half_fov;
      const Vec3 dir =
          (basis.forward + basis.right * px + basis.up * py).normalized();

      // Slab intersection with the grid bounds.
      float t0 = cam.near_plane, t1 = cam.far_plane;
      bool hit = true;
      for (int axis = 0; axis < 3 && hit; ++axis) {
        const float o = (&cam.eye.x)[axis];
        const float d = (&dir.x)[axis];
        const float lo = (&box.lo.x)[axis];
        const float hi = (&box.hi.x)[axis];
        if (std::abs(d) < 1e-12f) {
          if (o < lo || o > hi) hit = false;
          continue;
        }
        float ta = (lo - o) / d;
        float tb = (hi - o) / d;
        if (ta > tb) std::swap(ta, tb);
        t0 = std::max(t0, ta);
        t1 = std::min(t1, tb);
        if (t0 > t1) hit = false;
      }
      if (!hit) continue;

      float acc_r = 0, acc_g = 0, acc_b = 0, acc_a = 0;
      float first_hit_t = -1;
      for (float t = t0; t <= t1; t += step) {
        const Vec3 p = cam.eye + dir * t;
        const float v = sample(p);
        const float range = tf.color.hi - tf.color.lo;
        const float norm =
            range != 0 ? std::clamp((v - tf.color.lo) / range, 0.0f, 1.0f)
                       : 0.0f;
        const float a = norm * tf.opacity_scale;
        if (a <= 0) continue;
        const Vec3 c = tf.color.map(v);
        const float w = (1.0f - acc_a) * a;
        acc_r += w * c.x;
        acc_g += w * c.y;
        acc_b += w * c.z;
        acc_a += w;
        if (first_hit_t < 0 && acc_a > 0.05f) first_hit_t = t;
        if (acc_a > 0.98f) break;
      }
      if (acc_a <= 0) continue;
      const std::size_t p = static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(fb.width) +
                            static_cast<std::size_t>(x);
      fb.rgba[p * 4 + 0] = acc_r;
      fb.rgba[p * 4 + 1] = acc_g;
      fb.rgba[p * 4 + 2] = acc_b;
      fb.rgba[p * 4 + 3] = acc_a;
      const float ht = first_hit_t > 0 ? first_hit_t : t0;
      fb.depth[p] = std::clamp(
          (ht - cam.near_plane) / (cam.far_plane - cam.near_plane), 0.0f,
          1.0f);
    }
  });
}

}  // namespace colza::render
