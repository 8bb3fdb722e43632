// Tests for the software renderer: framebuffers, color maps, cameras,
// rasterization, and volume raycasting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "render/render.hpp"
#include "vis/filters.hpp"

namespace colza::render {
namespace {

using vis::Vec3;

vis::UniformGrid sphere_grid(std::uint32_t n, Vec3 center) {
  vis::UniformGrid g;
  g.dims = {n, n, n};
  std::vector<float> f(g.point_count());
  for (std::uint32_t k = 0; k < n; ++k)
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t i = 0; i < n; ++i)
        f[g.point_index(i, j, k)] = (g.point(i, j, k) - center).norm();
  g.point_data.add(vis::DataArray::make<float>("dist", f));
  return g;
}

int active_pixels(const FrameBuffer& fb) {
  int n = 0;
  for (std::size_t p = 0; p < fb.pixel_count(); ++p)
    n += fb.rgba[p * 4 + 3] > 0 ? 1 : 0;
  return n;
}

TEST(FrameBuffer, ResizeAndClear) {
  FrameBuffer fb(8, 4);
  EXPECT_EQ(fb.pixel_count(), 32u);
  EXPECT_EQ(fb.rgba.size(), 128u);
  fb.rgba[5] = 0.5f;
  fb.depth[3] = 0.2f;
  fb.clear();
  EXPECT_EQ(fb.rgba[5], 0.0f);
  EXPECT_EQ(fb.depth[3], 1.0f);
  EXPECT_THROW(FrameBuffer(0, 5), std::invalid_argument);
}

TEST(ColorMap, EndpointsAndClamping) {
  ColorMap cm{ColorMapKind::grayscale, 0.0f, 10.0f};
  EXPECT_EQ(cm.map(0.0f), (Vec3{0, 0, 0}));
  EXPECT_EQ(cm.map(10.0f), (Vec3{1, 1, 1}));
  EXPECT_EQ(cm.map(-5.0f), (Vec3{0, 0, 0}));
  EXPECT_EQ(cm.map(20.0f), (Vec3{1, 1, 1}));
}

TEST(ColorMap, CoolWarmDiverges) {
  ColorMap cm{ColorMapKind::cool_warm, 0.0f, 1.0f};
  const Vec3 lo = cm.map(0.0f);
  const Vec3 mid = cm.map(0.5f);
  const Vec3 hi = cm.map(1.0f);
  EXPECT_GT(lo.z, lo.x);  // blue end
  EXPECT_GT(hi.x, hi.z);  // red end
  EXPECT_GT(mid.x, 0.8f);  // near-white middle
}

TEST(ColorMap, ViridisMonotoneBrightness) {
  ColorMap cm{ColorMapKind::viridis, 0.0f, 1.0f};
  float prev = -1;
  for (int i = 0; i <= 10; ++i) {
    const Vec3 c = cm.map(static_cast<float>(i) / 10.0f);
    const float luma = 0.2f * c.x + 0.7f * c.y + 0.1f * c.z;
    EXPECT_GE(luma, prev - 0.02f);
    prev = luma;
  }
}

TEST(Camera, FramingContainsBounds) {
  vis::Aabb box;
  box.extend({0, 0, 0});
  box.extend({10, 10, 10});
  Camera cam = Camera::framing(box);
  EXPECT_GT((cam.eye - box.center()).norm(), 5.0f);
  EXPECT_EQ(cam.target, box.center());
  EXPECT_GT(cam.far_plane, cam.near_plane);
}

TEST(Rasterize, SingleTriangleCoversExpectedPixels) {
  FrameBuffer fb(64, 64);
  vis::TriangleMesh m;
  m.points = {{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}};
  m.normals = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1}};
  m.scalars = {0.5f, 0.5f, 0.5f};
  m.triangles = {0, 1, 2};
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  rasterize(fb, m, cam, ColorMap{ColorMapKind::grayscale, 0, 1});
  const int n = active_pixels(fb);
  EXPECT_GT(n, 200);          // triangle visibly covers the screen center
  EXPECT_LT(n, 64 * 64 / 2);  // but not the whole screen
}

TEST(Rasterize, DepthTestKeepsNearTriangle) {
  FrameBuffer fb(32, 32);
  vis::TriangleMesh far_tri, near_tri;
  for (auto* m : {&far_tri, &near_tri}) {
    m->normals = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1}};
    m->triangles = {0, 1, 2};
  }
  far_tri.points = {{-2, -2, 0}, {2, -2, 0}, {0, 2, 0}};
  far_tri.scalars = {0.0f, 0.0f, 0.0f};  // dark
  near_tri.points = {{-2, -2, 2}, {2, -2, 2}, {0, 2, 2}};
  near_tri.scalars = {1.0f, 1.0f, 1.0f};  // bright
  Camera cam;
  cam.eye = {0, 0, 6};
  cam.target = {0, 0, 0};
  const ColorMap cm{ColorMapKind::grayscale, 0, 1};
  // Draw far first, then near: near must win; then the reverse order must
  // produce the identical image (z-buffer, not painter's algorithm).
  rasterize(fb, far_tri, cam, cm);
  rasterize(fb, near_tri, cam, cm);
  const auto hash1 = fb.content_hash();
  const std::size_t center =
      (16u * 32u + 16u) * 4u;
  EXPECT_GT(fb.rgba[center], 0.5f);  // bright (near) triangle visible
  fb.clear();
  rasterize(fb, near_tri, cam, cm);
  rasterize(fb, far_tri, cam, cm);
  EXPECT_EQ(fb.content_hash(), hash1);
}

TEST(Rasterize, BehindCameraCulled) {
  FrameBuffer fb(32, 32);
  vis::TriangleMesh m;
  m.points = {{-1, -1, 10}, {1, -1, 10}, {0, 1, 10}};  // behind the eye
  m.triangles = {0, 1, 2};
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  rasterize(fb, m, cam, ColorMap{});
  EXPECT_EQ(active_pixels(fb), 0);
}

// A staged block with a NaN sample contours to NaN points, and a hostile
// mesh can put a vertex beyond int's range on screen: such triangles are
// skipped or clipped in float, never cast to int (UBSan's
// float-cast-overflow check covers this), and the rest of the mesh renders
// as if they were absent.
TEST(Rasterize, NonFiniteVerticesAreSkipped) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  vis::TriangleMesh good;
  good.points = {{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}};
  good.triangles = {0, 1, 2};
  vis::TriangleMesh mixed = good;
  mixed.points.insert(mixed.points.end(),
                      {{nan, 0, 0}, {1, 0, 0}, {0, 1, 0},        // NaN
                       {-1, 0, 0}, {1, inf, 0}, {0, 1, 0},       // +inf
                       {1e12f, 1e12f, 0}, {2e12f, 1e12f, 0},     // far off
                       {1e12f, 2e12f, 0}});                      // screen
  for (std::uint32_t i = 3; i < 12; ++i) mixed.triangles.push_back(i);
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  const ColorMap cm{ColorMapKind::grayscale, 0, 1};
  FrameBuffer want(32, 32), got(32, 32);
  rasterize(want, good, cam, cm);
  rasterize(got, mixed, cam, cm);
  EXPECT_GT(active_pixels(want), 0);
  EXPECT_EQ(got.rgba, want.rgba);
  EXPECT_EQ(got.depth, want.depth);
}

// A triangle with finite vertices about 1e19 world units off-axis: the
// products in its weights overflow to infinity, the weights become NaN, and
// every pixel of its clamped box -- here the whole frame -- gets a fragment
// of NaN depth. The depth test drops them: depth never holds NaN, and
// drawing the triangle before or after a normal one gives the same bytes.
TEST(Rasterize, NanWeightFragmentsAreDropped) {
  vis::TriangleMesh far, good;
  far.points = {{-1e19f, -1e19f, 0}, {1e19f, 0, 0}, {0, 1e19f, 0}};
  far.triangles = {0, 1, 2};
  good.points = {{-1, -1, 0.5f}, {1, -1, 0.5f}, {0, 1, 0.5f}};
  good.scalars = {0.2f, 0.6f, 0.9f};
  good.triangles = {0, 1, 2};
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  const ColorMap cm{ColorMapKind::grayscale, 0, 1};
  auto same = [](const FrameBuffer& a, const FrameBuffer& b) {
    return std::memcmp(a.rgba.data(), b.rgba.data(),
                       a.rgba.size() * sizeof(float)) == 0 &&
           std::memcmp(a.depth.data(), b.depth.data(),
                       a.depth.size() * sizeof(float)) == 0;
  };
  for (const bool avx2 : {false, common::simd::avx2()}) {
    FrameBuffer alone(32, 32), want(32, 32), before(32, 32), after(32, 32);
    detail::rasterize(alone, far, cam, cm, avx2);
    EXPECT_TRUE(same(alone, FrameBuffer(32, 32))) << "avx2 " << avx2;
    detail::rasterize(want, good, cam, cm, avx2);
    EXPECT_GT(active_pixels(want), 0);
    detail::rasterize(before, far, cam, cm, avx2);
    detail::rasterize(before, good, cam, cm, avx2);
    detail::rasterize(after, good, cam, cm, avx2);
    detail::rasterize(after, far, cam, cm, avx2);
    EXPECT_TRUE(same(before, want)) << "avx2 " << avx2;
    EXPECT_TRUE(same(after, want)) << "avx2 " << avx2;
    for (const FrameBuffer* fb : {&alone, &before, &after}) {
      EXPECT_EQ(std::count_if(fb->depth.begin(), fb->depth.end(),
                              [](float d) { return std::isnan(d); }),
                0);
    }
  }
}

// Within one task a pixel keeps the first of equally deep fragments, as the
// serial z-buffer does, and what the framebuffer held before counts as drawn
// before task 0: the same triangle drawn a second time, brighter, in the
// same task or over earlier content, leaves the first one's bytes.
TEST(OrderedTarget, EqualDepthKeepsTheEarlierFragment) {
  vis::TriangleMesh dark, twice;
  dark.points = {{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}};
  dark.scalars = {0.2f, 0.2f, 0.2f};
  dark.triangles = {0, 1, 2};
  twice = dark;
  twice.points.insert(twice.points.end(), dark.points.begin(),
                      dark.points.end());
  twice.scalars.insert(twice.scalars.end(), {0.9f, 0.9f, 0.9f});
  twice.triangles.insert(twice.triangles.end(), {3, 4, 5});
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  const ColorMap cm{ColorMapKind::grayscale, 0, 1};
  FrameBuffer want(32, 32);
  rasterize(want, dark, cam, cm);
  ASSERT_GT(active_pixels(want), 0);

  FrameBuffer same_task(32, 32);
  {
    OrderedTarget target(same_task);
    rasterize(target, 0, twice, cam, cm);
  }
  FrameBuffer over_earlier(32, 32);
  rasterize(over_earlier, dark, cam, cm);
  {
    OrderedTarget target(over_earlier);
    rasterize(target, 0, twice, cam, cm);
  }
  for (const FrameBuffer* got : {&same_task, &over_earlier}) {
    EXPECT_EQ(std::memcmp(got->rgba.data(), want.rgba.data(),
                          want.rgba.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(got->depth.data(), want.depth.data(),
                          want.depth.size() * sizeof(float)),
              0);
  }
}

// ---- AVX2 coverage vs the scalar test
//
// The test camera looks down -z from (0, 0, 4): its basis is exact, so a
// point (x, y, 0) projects with view depth exactly 4 and these two
// functions are the rasterizer's projection.
constexpr int kCoverW = 64, kCoverH = 48;

Camera cover_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  return cam;
}

float screen_x(float x) {
  const float t = std::tan(45.0f * 0.5f * 3.14159265f / 180.0f);
  const float aspect =
      static_cast<float>(kCoverW) / static_cast<float>(kCoverH);
  const float px = x / (4.0f * t * aspect);
  return (px * 0.5f + 0.5f) * static_cast<float>(kCoverW);
}

float screen_y(float y) {
  const float t = std::tan(45.0f * 0.5f * 3.14159265f / 180.0f);
  const float py = y / (4.0f * t);
  return (0.5f - py * 0.5f) * static_cast<float>(kCoverH);
}

// The world coordinate whose projection is exactly `target`, found by
// bisection over the floats (the projection is monotone and steps finer
// than the screen's ulp); NaN when no float lands on it.
float world_for(float target, float (*project)(float), float lo, float hi) {
  const bool rising = project(hi) > project(lo);
  for (int i = 0; i < 200 && std::nextafter(lo, hi) != hi; ++i) {
    const float mid = lo + (hi - lo) * 0.5f;
    if ((project(mid) < target) == rising) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (project(lo) == target) return lo;
  if (project(hi) == target) return hi;
  return std::numeric_limits<float>::quiet_NaN();
}

// A world point near screen position (sx, sy) at depth z.
Vec3 near_screen(float sx, float sy, float z) {
  const float t = std::tan(45.0f * 0.5f * 3.14159265f / 180.0f);
  const float aspect =
      static_cast<float>(kCoverW) / static_cast<float>(kCoverH);
  const float zc = 4.0f - z;
  return {(sx / kCoverW - 0.5f) * 2.0f * zc * t * aspect,
          (0.5f - sy / kCoverH) * 2.0f * zc * t, z};
}

// The AVX2 coverage path writes the scalar path's rgba and depth bytes:
// boxes 1-20 px wide, both windings, vertices exactly on pixel centres
// (weights exactly 0) and edges along a centre row or column, slivers,
// boxes clamped at every screen edge, NaN weights, NaN normals and scalars.
TEST(Rasterize, Avx2CoverageMatchesScalar) {
  if (!common::simd::avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(7);
  auto uni = [&](double lo, double hi) {
    return static_cast<float>(rng.uniform(lo, hi));
  };
  // Exact pixel centres, as world points on the z = 0 plane.
  auto centre = [&](int px, int py) {
    return Vec3{world_for(static_cast<float>(px) + 0.5f, screen_x, -8, 8),
                world_for(static_cast<float>(py) + 0.5f, screen_y, -8, 8),
                0.0f};
  };
  int exact = 0;
  for (int px = 0; px < kCoverW; ++px)
    exact += std::isnan(centre(px, 5).x) ? 0 : 1;
  EXPECT_GT(exact, kCoverW / 2) << "few pixel centres are reachable";

  std::vector<vis::TriangleMesh> meshes(8);
  for (std::size_t m = 0; m < meshes.size(); ++m) {
    vis::TriangleMesh& mesh = meshes[m];
    auto add = [&](Vec3 a, Vec3 b, Vec3 c) {
      if (rng.below(2) == 1) std::swap(b, c);  // the other winding
      for (const Vec3& p : {a, b, c}) {
        const auto idx = static_cast<std::uint32_t>(mesh.points.size());
        mesh.points.push_back(p);
        mesh.normals.push_back(rng.below(16) == 0
                                   ? Vec3{nan, 0, 1}
                                   : Vec3{uni(-1, 1), uni(-1, 1), 1.0f});
        mesh.scalars.push_back(rng.below(16) == 0 ? nan : uni(0, 1));
        mesh.triangles.push_back(idx);
      }
    };
    for (int t = 0; t < 300; ++t) {
      const float w = uni(1, 20);  // box width in pixels
      const float x = uni(-10, kCoverW + 10), y = uni(-10, kCoverH + 10);
      switch (rng.below(5)) {
        case 0:  // free triangle at random depths
          add(near_screen(x, y, uni(-1, 1)),
              near_screen(x + w, y + uni(-w, w), uni(-1, 1)),
              near_screen(x + uni(0, w), y + uni(1, 20), uni(-1, 1)));
          break;
        case 1: {  // every vertex on a pixel centre
          const int cx = static_cast<int>(rng.below(kCoverW));
          const int cy = static_cast<int>(rng.below(kCoverH));
          const int dx = 1 + static_cast<int>(rng.below(19));
          add(centre(cx, cy), centre(std::min(cx + dx, kCoverW - 1), cy),
              centre(cx + static_cast<int>(rng.below(3)),
                     std::min(cy + dx, kCoverH - 1)));
          break;
        }
        case 2: {  // one vertex on a pixel centre
          const int cx = static_cast<int>(rng.below(kCoverW));
          const int cy = static_cast<int>(rng.below(kCoverH));
          const Vec3 c = centre(cx, cy);
          const float sx = static_cast<float>(cx), sy = static_cast<float>(cy);
          add(c, near_screen(sx + w, sy + uni(-3, 3), 0.3f),
              near_screen(sx + uni(-w, w), sy - uni(1, 20), -0.3f));
          break;
        }
        case 3: {  // a sliver: the third vertex almost on the first edge
          const Vec3 a = near_screen(x, y, 0.2f);
          const Vec3 b = near_screen(x + w, y + w * 0.5f, -0.2f);
          const float s = uni(0, 1);
          Vec3 c = a + (b - a) * s;
          c.y += uni(-1e-4, 1e-4);
          add(a, b, c);
          break;
        }
        default: {  // straddles a screen edge: a clamped box
          const float ex = rng.below(2) == 0 ? uni(-25, 2) : uni(kCoverW - 2, kCoverW + 25);
          const float ey = rng.below(2) == 0 ? uni(-25, 2) : uni(kCoverH - 2, kCoverH + 25);
          add(near_screen(ex, ey, 0.0f), near_screen(x, y, 0.5f),
              near_screen(x + w, y + uni(-w, w), -0.5f));
          break;
        }
      }
    }
  }
  // A vertex so far off screen that the area's products overflow: the area
  // and every weight are NaN, so each pixel of the clamped box passes the
  // coverage test, and the depth test drops its NaN depth.
  const std::size_t first_overflowing = meshes.size();
  for (float far : {1e21f, -3e21f}) {
    vis::TriangleMesh mesh;
    mesh.points = {near_screen(far, far, 0.0f), near_screen(20, 10, 0.5f),
                   near_screen(30, 25, -0.5f)};
    mesh.normals = {{0, 0, 1}, {0, 1, 1}, {1, 0, 1}};
    mesh.scalars = {0.1f, 0.5f, 0.9f};
    mesh.triangles = {0, 1, 2};
    meshes.push_back(mesh);
  }
  const Camera cam = cover_camera();
  for (const ColorMap cmap : {ColorMap{ColorMapKind::viridis, 0, 1},
                              ColorMap{ColorMapKind::cool_warm, 0.2f, 0.7f}}) {
    FrameBuffer all_scalar(kCoverW, kCoverH), all_avx2(kCoverW, kCoverH);
    for (std::size_t m = 0; m < meshes.size(); ++m) {
      FrameBuffer scalar(kCoverW, kCoverH), avx2(kCoverW, kCoverH);
      detail::rasterize(scalar, meshes[m], cam, cmap, false);
      detail::rasterize(avx2, meshes[m], cam, cmap, true);
      if (m < first_overflowing) {
        EXPECT_GT(active_pixels(scalar), 0) << "mesh " << m;
      } else {
        EXPECT_EQ(active_pixels(scalar), 0) << "mesh " << m;
      }
      EXPECT_EQ(std::memcmp(avx2.rgba.data(), scalar.rgba.data(),
                            scalar.rgba.size() * sizeof(float)),
                0)
          << "mesh " << m << ": rgba";
      EXPECT_EQ(std::memcmp(avx2.depth.data(), scalar.depth.data(),
                            scalar.depth.size() * sizeof(float)),
                0)
          << "mesh " << m << ": depth";
      // Overlapping meshes: the depth test sees the other path's writes.
      detail::rasterize(all_scalar, meshes[m], cam, cmap, false);
      detail::rasterize(all_avx2, meshes[m], cam, cmap, true);
    }
    EXPECT_EQ(std::memcmp(all_avx2.rgba.data(), all_scalar.rgba.data(),
                          all_scalar.rgba.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(all_avx2.depth.data(), all_scalar.depth.data(),
                          all_scalar.depth.size() * sizeof(float)),
              0);
  }
}

// ---- The conservative reject vs the pre-change rasterizer

namespace reference {

const Vec3 kLight = Vec3{0.4f, 0.8f, 0.45f}.normalized();

// The pre-change per-triangle routine (Raster::triangle), kept as the
// reference: every triangle sets up its area, its clamped box and the
// coverage test of each centre in it, and shades what the z-buffer
// (z < depth) takes. Returns how many covered centres lie outside the
// vertices' float box: the reason a reject needs a margin.
int triangle(FrameBuffer& fb, const ColorMap& cmap,
             const detail::ProjectedVertex& v0,
             const detail::ProjectedVertex& v1,
             const detail::ProjectedVertex& v2) {
  if (!v0.ok || !v1.ok || !v2.ok) return 0;
  const float area =
      (v1.x - v0.x) * (v2.y - v0.y) - (v2.x - v0.x) * (v1.y - v0.y);
  if (std::abs(area) < 1e-9f) return 0;
  const float inv_area = 1.0f / area;
  const float xlo = std::min({v0.x, v1.x, v2.x});
  const float xhi = std::max({v0.x, v1.x, v2.x});
  const float ylo = std::min({v0.y, v1.y, v2.y});
  const float yhi = std::max({v0.y, v1.y, v2.y});
  const float fxmin = std::max(0.0f, std::floor(xlo));
  const float fxmax = std::min(static_cast<float>(fb.width - 1), std::ceil(xhi));
  const float fymin = std::max(0.0f, std::floor(ylo));
  const float fymax = std::min(static_cast<float>(fb.height - 1), std::ceil(yhi));
  if (fxmin > fxmax || fymin > fymax) return 0;
  int outside = 0;
  for (int y = static_cast<int>(fymin); y <= static_cast<int>(fymax); ++y) {
    for (int x = static_cast<int>(fxmin); x <= static_cast<int>(fxmax); ++x) {
      const float cx = static_cast<float>(x) + 0.5f;
      const float cy = static_cast<float>(y) + 0.5f;
      const float w0 = ((v1.x - cx) * (v2.y - cy) - (v2.x - cx) * (v1.y - cy)) * inv_area;
      const float w1 = ((v2.x - cx) * (v0.y - cy) - (v0.x - cx) * (v2.y - cy)) * inv_area;
      const float w2 = 1.0f - w0 - w1;
      if (w0 < 0 || w1 < 0 || w2 < 0) continue;
      if (cx < xlo || cx > xhi || cy < ylo || cy > yhi) ++outside;
      const float z = w0 * v0.z + w1 * v1.z + w2 * v2.z;
      const std::size_t p = static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(fb.width) +
                            static_cast<std::size_t>(x);
      if (!(z < fb.depth[p])) continue;
      const Vec3 n =
          (v0.normal * w0 + v1.normal * w1 + v2.normal * w2).normalized();
      const float scalar = w0 * v0.scalar + w1 * v1.scalar + w2 * v2.scalar;
      const float shade = 0.25f + 0.75f * std::abs(n.dot(kLight));
      fb.put(p, z, cmap.map(scalar) * shade);
    }
  }
  return outside;
}

// The pre-change projection (Raster::project).
detail::ProjectedVertex project(const FrameBuffer& fb, const Camera& cam,
                                const Vec3& pos, const Vec3& normal,
                                float scalar) {
  const Vec3 forward = (cam.target - cam.eye).normalized();
  const Vec3 right = forward.cross(cam.up).normalized();
  const Vec3 up = right.cross(forward);
  const float tan_half_fov =
      std::tan(cam.fov_deg * 0.5f * 3.14159265f / 180.0f);
  const float aspect =
      static_cast<float>(fb.width) / static_cast<float>(fb.height);
  detail::ProjectedVertex v;
  const Vec3 rel = pos - cam.eye;
  const float zc = rel.dot(forward);
  if (zc <= cam.near_plane) return v;
  const float px = rel.dot(right) / (zc * tan_half_fov * aspect);
  const float py = rel.dot(up) / (zc * tan_half_fov);
  v.x = (px * 0.5f + 0.5f) * static_cast<float>(fb.width);
  v.y = (0.5f - py * 0.5f) * static_cast<float>(fb.height);
  v.z = std::clamp((zc - cam.near_plane) / (cam.far_plane - cam.near_plane),
                   0.0f, 1.0f);
  v.normal = normal;
  v.scalar = scalar;
  v.ok = std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
  return v;
}

// A mesh through the pre-change projection and triangle routine.
void mesh(FrameBuffer& fb, const vis::TriangleMesh& m, const Camera& cam,
          const ColorMap& cmap) {
  auto vertex = [&](std::uint32_t i) {
    return project(fb, cam, m.points[i],
                   i < m.normals.size() ? m.normals[i] : Vec3{0, 0, 1},
                   i < m.scalars.size() ? m.scalars[i] : 0.0f);
  };
  for (std::size_t t = 0; t < m.triangle_count(); ++t)
    (void)triangle(fb, cmap, vertex(m.triangles[3 * t]),
                   vertex(m.triangles[3 * t + 1]),
                   vertex(m.triangles[3 * t + 2]));
}

}  // namespace reference

// Seeded screen-space triangles (consecutive vertex triples) for a w x h
// screen that a reject is most likely to get wrong: slivers along a ray
// from a pixel centre whose nearest vertex lies a few ulps to 0.1 px from
// it (their rounded weights often cover that centre from outside the
// vertices' float box), with areas down to 1e-9 and centres just off
// screen too; vertices a few ulps around a centre; small free triangles;
// and vertices at +-1e19 or 3e38, infinite or NaN, or collinear. Both
// windings.
std::vector<detail::ProjectedVertex> adversarial_triangles(
    std::size_t count, int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  auto uni = [&](double lo, double hi) { return rng.uniform(lo, hi); };
  // 10^[lo, hi), with a random sign when `signed_`.
  auto log_uni = [&](double lo, double hi, bool signed_ = false) {
    const double v = std::pow(10.0, uni(lo, hi));
    return signed_ && rng.below(2) == 0 ? -v : v;
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<detail::ProjectedVertex> out;
  out.reserve(3 * count);
  auto add = [&](double x, double y) {
    detail::ProjectedVertex v;
    v.x = static_cast<float>(x);
    v.y = static_cast<float>(y);
    v.z = static_cast<float>(uni(0, 1));
    v.normal = {static_cast<float>(uni(-1, 1)),
                static_cast<float>(uni(-1, 1)), 1.0f};
    v.scalar = static_cast<float>(uni(0, 1));
    v.ok = std::isfinite(v.x) && std::isfinite(v.y);
    out.push_back(v);
  };
  for (std::size_t t = 0; t < count; ++t) {
    // A pixel centre, one row or column off screen at most.
    const double cx = static_cast<double>(rng.below(static_cast<std::uint64_t>(w) + 2)) - 0.5;
    const double cy = static_cast<double>(rng.below(static_cast<std::uint64_t>(h) + 2)) - 0.5;
    const double theta = uni(0, 2 * 3.14159265358979);
    const double dx = std::cos(theta), dy = std::sin(theta);
    const std::size_t first = out.size();
    switch (rng.below(10)) {
      case 0: case 1: {  // a sliver fanning out from near c
        const double r0 = log_uni(-7, -1);
        const double r1 = log_uni(-2, 1), e1 = log_uni(-9, -1, true);
        const double r2 = log_uni(-2, 1), e2 = log_uni(-9, -1, true);
        add(cx + r0 * dx, cy + r0 * dy);
        add(cx + r1 * std::cos(theta + e1), cy + r1 * std::sin(theta + e1));
        add(cx + r2 * std::cos(theta + e2), cy + r2 * std::sin(theta + e2));
        break;
      }
      case 2: case 3: case 4: case 5: case 6: {  // along the ray through c
        const double r0 = log_uni(-7, -2);
        const double r1 = log_uni(0, 1), h1 = log_uni(-8, -3, true);
        const double r2 = log_uni(0, 1), h2 = log_uni(-8, -3, true);
        add(cx + r0 * dx, cy + r0 * dy);
        add(cx + r1 * dx - h1 * dy, cy + r1 * dy + h1 * dx);
        add(cx + r2 * dx - h2 * dy, cy + r2 * dy + h2 * dx);
        break;
      }
      case 7: {  // every vertex a few ulps from c
        for (int k = 0; k < 3; ++k) {
          float x = static_cast<float>(cx), y = static_cast<float>(cy);
          for (auto n = rng.below(9); n-- > 0;) x = std::nextafter(x, dx > 0 ? inf : -inf);
          for (auto n = rng.below(9); n-- > 0;) y = std::nextafter(y, k == 1 ? inf : -inf);
          add(x, y);
        }
        break;
      }
      case 8: {  // a free triangle, 0.05 to 10 px
        const double s = log_uni(-1.3, 1);
        add(cx + uni(-s, s), cy + uni(-s, s));
        add(cx + uni(-s, s), cy + uni(-s, s));
        add(cx + uni(-s, s), cy + uni(-s, s));
        break;
      }
      default: {  // a vertex far off, not finite, or a degenerate triangle
        const double far[] = {1e19, -1e19, 3e38, -3e38, inf, nan};
        const double s = log_uni(-1, 1);
        add(cx + uni(-s, s), cy + uni(-s, s));
        add(cx + uni(-s, s), cy + uni(-s, s));
        switch (rng.below(4)) {
          case 0: add(far[rng.below(6)], cy); break;
          case 1: add(cx, far[rng.below(6)]); break;
          case 2: add(far[rng.below(4)], far[rng.below(4)]); break;
          default: {  // on the line through the first two, or on one
            const detail::ProjectedVertex a = out[first], b = out[first + 1];
            const double s2 = rng.below(4) == 0 ? 0.0 : uni(-2, 3);
            add(a.x + (b.x - a.x) * s2, a.y + (b.y - a.y) * s2);
          }
        }
      }
    }
    if (rng.below(2) == 0) std::swap(out[first + 1], out[first + 2]);
  }
  return out;
}

// The reject in front of the per-triangle routine drops only triangles that
// cover no pixel centre, so the image is the pre-change rasterizer's byte
// for byte. 400,000 adversarial screen-space triangles go through both
// reject paths (scalar and, with AVX2, 8-lane), one framebuffer per 20
// triangles, so every round ends on a batch of 4; the generator must
// produce covered centres outside the vertices' box, which an unmargined
// box reject would lose. Then contours and meshes from world space:
// rasterize_isosurface() per cell layer and rasterize(mesh) on both paths,
// against the pre-change projection and routine.
TEST(Rasterize, ConservativeRejectMatchesThePreChangeRasterizer) {
  constexpr int kW = 40, kH = 24;
  constexpr std::size_t kTriangles = 400000, kRound = 20;
  const ColorMap cmap{ColorMapKind::viridis, 0, 1};
  const std::vector<detail::ProjectedVertex> v =
      adversarial_triangles(kTriangles, kW, kH, 30);
  struct Path {
    bool avx2;
    int mismatched_rounds = 0;
  };
  std::vector<Path> paths{{false}};
  if (common::simd::avx2()) paths.push_back({true});
  auto same = [](const FrameBuffer& a, const FrameBuffer& b) {
    return std::memcmp(a.rgba.data(), b.rgba.data(),
                       a.rgba.size() * sizeof(float)) == 0 &&
           std::memcmp(a.depth.data(), b.depth.data(),
                       a.depth.size() * sizeof(float)) == 0;
  };
  FrameBuffer want(kW, kH), got(kW, kH);
  int outside = 0, drawn_rounds = 0;
  for (std::size_t t0 = 0; t0 < kTriangles; t0 += kRound) {
    want.clear();
    for (std::size_t t = t0; t < t0 + kRound; ++t)
      outside += reference::triangle(want, cmap, v[3 * t], v[3 * t + 1],
                                     v[3 * t + 2]);
    drawn_rounds += active_pixels(want) > 0 ? 1 : 0;
    const std::span<const detail::ProjectedVertex> round(&v[3 * t0],
                                                         3 * kRound);
    for (Path& path : paths) {
      got.clear();
      detail::rasterize_projected(got, round, cmap, path.avx2);
      if (!same(got, want)) {
        if (path.mismatched_rounds++ == 0)
          ADD_FAILURE() << "avx2 " << path.avx2
                        << ": first mismatch in triangles " << t0 << "-"
                        << t0 + kRound - 1;
      }
    }
  }
  for (const Path& path : paths)
    EXPECT_EQ(path.mismatched_rounds, 0) << "avx2 " << path.avx2;
  EXPECT_GT(outside, 1000) << "covered centres outside the vertices' box";
  EXPECT_GT(drawn_rounds, static_cast<int>(kTriangles / kRound) / 2);

  // World space: contours cell layer by cell layer into an OrderedTarget,
  // and whole meshes, at a size where most triangles cover no centre.
  vis::UniformGrid waves = sphere_grid(21, {10, 10, 10});
  {
    auto d = waves.point_data.find("dist")->as_mutable<float>();
    for (std::uint32_t k = 0; k < 21; ++k)
      for (std::uint32_t j = 0; j < 21; ++j)
        for (std::uint32_t i = 0; i < 21; ++i) {
          const Vec3 p = waves.point(i, j, k);
          d[waves.point_index(i, j, k)] +=
              1.5f * std::sin(0.9f * p.x) * std::cos(0.7f * p.y + 0.4f * p.z);
        }
    for (std::size_t p = 11; p < d.size(); p += 211)
      d[p] = std::numeric_limits<float>::quiet_NaN();
  }
  const ColorMap world_cmap{ColorMapKind::cool_warm, 0, 12};
  for (const vis::UniformGrid& g : {sphere_grid(17, {8, 8, 8}), waves}) {
    for (const float iso : {5.0f, 7.5f}) {
      const Camera cam = Camera::framing(g.bounds());
      FrameBuffer ref(kCoverW, kCoverH), contour(kCoverW, kCoverH);
      {
        OrderedTarget target(contour);
        for (std::uint32_t k = 0; k + 1 < g.dims[2]; ++k) {
          vis::TriangleMesh layer;
          vis::isosurface_layers(g, "dist", iso, "", k, k + 1, layer);
          reference::mesh(ref, layer, cam, world_cmap);
          EXPECT_EQ(rasterize_isosurface(target, k, g, "dist", iso, "", k,
                                         k + 1, cam, world_cmap),
                    layer.triangle_count());
        }
      }
      EXPECT_GT(active_pixels(ref), 100) << "iso " << iso;
      EXPECT_TRUE(same(contour, ref)) << "contour, iso " << iso;
      const vis::TriangleMesh m = vis::isosurface(g, "dist", iso);
      for (const bool avx2 : {false, common::simd::avx2()}) {
        FrameBuffer mesh_ref(kCoverW, kCoverH), mesh_got(kCoverW, kCoverH);
        reference::mesh(mesh_ref, m, cam, world_cmap);
        detail::rasterize(mesh_got, m, cam, world_cmap, avx2);
        EXPECT_TRUE(same(mesh_got, mesh_ref))
            << "mesh, iso " << iso << ", avx2 " << avx2;
      }
    }
  }
}

TEST(Rasterize, IsosurfaceSphereLooksRound) {
  vis::UniformGrid g = sphere_grid(17, {8, 8, 8});
  vis::TriangleMesh m = vis::isosurface(g, "dist", 5.0f);
  FrameBuffer fb(64, 64);
  Camera cam = Camera::framing(m.bounds());
  rasterize(fb, m, cam, ColorMap{ColorMapKind::viridis, 0, 8});
  const int n = active_pixels(fb);
  EXPECT_GT(n, 300);
  // Depth buffer must vary across the sphere (it is curved).
  float dmin = 1, dmax = 0;
  for (std::size_t p = 0; p < fb.pixel_count(); ++p) {
    if (fb.rgba[p * 4 + 3] > 0) {
      dmin = std::min(dmin, fb.depth[p]);
      dmax = std::max(dmax, fb.depth[p]);
    }
  }
  EXPECT_GT(dmax - dmin, 0.01f);
}

TEST(Raycast, VolumeProducesActivePixelsAndDepth) {
  vis::UniformGrid g = sphere_grid(17, {8, 8, 8});
  // Invert so the sphere interior has high values.
  auto vals = g.point_data.find("dist")->as_mutable<float>();
  for (auto& v : vals) v = std::max(0.0f, 8.0f - v);
  FrameBuffer fb(48, 48);
  Camera cam = Camera::framing(g.bounds());
  TransferFunction tf;
  tf.color = ColorMap{ColorMapKind::cool_warm, 0.0f, 8.0f};
  tf.opacity_scale = 0.2f;
  raycast(fb, g, "dist", cam, tf);
  const int n = active_pixels(fb);
  EXPECT_GT(n, 100);
  // Central pixel should have accumulated noticeable opacity and a depth
  // strictly in front of the background.
  const std::size_t c = (24u * 48u + 24u);
  EXPECT_GT(fb.rgba[c * 4 + 3], 0.2f);
  EXPECT_LT(fb.depth[c], 1.0f);
}

TEST(Raycast, EmptyVolumeLeavesBackground) {
  vis::UniformGrid g;
  g.dims = {8, 8, 8};
  g.point_data.add(vis::DataArray::make<float>(
      "f", std::vector<float>(g.point_count(), 0.0f)));
  FrameBuffer fb(16, 16);
  Camera cam = Camera::framing(g.bounds());
  TransferFunction tf;
  tf.color = ColorMap{ColorMapKind::grayscale, 0, 1};
  raycast(fb, g, "f", cam, tf);
  EXPECT_EQ(active_pixels(fb), 0);
}

TEST(FrameBuffer, PpmRoundTripOnDisk) {
  FrameBuffer fb(8, 8);
  fb.rgba[0] = 1.0f;
  fb.rgba[3] = 1.0f;
  const std::string path = "/tmp/colza_render_test.ppm";
  fb.write_ppm(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  EXPECT_EQ(std::string(magic), "P6");
  std::fclose(f);
  std::remove(path.c_str());
}

// /dev/full opens but takes no byte: the write fails, and write_ppm throws
// as it does for a path it cannot open.
TEST(FrameBuffer, PpmWriteToFullDeviceThrows) {
  std::FILE* probe = std::fopen("/dev/full", "wb");
  ASSERT_NE(probe, nullptr) << "the write, not the open, must fail";
  std::fclose(probe);
  FrameBuffer fb(8, 8);
  try {
    fb.write_ppm("/dev/full");
    ADD_FAILURE() << "write_ppm reported success on /dev/full";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot write"), std::string::npos)
        << e.what();
  }
}

// A NaN sample's neighbours shade with a NaN normal: such a channel
// quantizes to 0, with no float-to-int conversion of NaN.
TEST(FrameBuffer, NanChannelsQuantizeToZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(channel_byte(nan), 0);
  EXPECT_EQ(channel_byte(-1.0f), 0);
  EXPECT_EQ(channel_byte(0.5f), 127);
  EXPECT_EQ(channel_byte(7.0f), 255);
  FrameBuffer with_nan(2, 2), zero(2, 2);
  with_nan.rgba[1] = nan;
  EXPECT_EQ(with_nan.content_hash(), zero.content_hash());
}

TEST(FrameBuffer, ContentHashDetectsChanges) {
  FrameBuffer a(16, 16), b(16, 16);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.rgba[40] = 0.7f;
  EXPECT_NE(a.content_hash(), b.content_hash());
}

}  // namespace
}  // namespace colza::render
