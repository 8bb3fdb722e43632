// Tests for the software renderer: framebuffers, color maps, cameras,
// rasterization, and volume raycasting.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <vector>

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
