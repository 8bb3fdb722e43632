// Tests for the software renderer: framebuffers, color maps, cameras,
// rasterization, and volume raycasting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
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
