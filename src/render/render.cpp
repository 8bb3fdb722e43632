#include "render/render.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/hash.hpp"
#include "common/simd.hpp"
#include "des/parallel.hpp"
#include "vis/contour.hpp"

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
  std::vector<unsigned char> row(static_cast<std::size_t>(width) * 3);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("write_ppm: cannot open " + path);
  bool ok = std::fprintf(f, "P6\n%d %d\n255\n", width, height) > 0;
  for (int y = 0; y < height && ok; ++y) {
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
    ok = std::fwrite(row.data(), 1, row.size(), f) == row.size();
  }
  // fclose flushes what is still buffered, so it can fail too.
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("write_ppm: cannot write " + path);
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

using detail::ProjectedVertex;

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

// The barycentric weights of up to 8 consecutive pixel centres of one box
// row, and which of them the triangle covers.
struct Coverage8 {
  float w0[8], w1[8], w2[8];
  unsigned covered = 0;  // bit l: pixel x0 + l
};

// The coverage test, one pixel centre at a time: the reference for the AVX2
// path, and the path on CPUs without AVX2.
void cover8_scalar(const ProjectedVertex& v0, const ProjectedVertex& v1,
                   const ProjectedVertex& v2, float inv_area, int x0, int y,
                   int lanes, Coverage8& c) {
  c.covered = 0;
  for (int l = 0; l < lanes; ++l) {
    const float cx = static_cast<float>(x0 + l) + 0.5f;
    const float cy = static_cast<float>(y) + 0.5f;
    const float w0 = ((v1.x - cx) * (v2.y - cy) - (v2.x - cx) * (v1.y - cy)) * inv_area;
    const float w1 = ((v2.x - cx) * (v0.y - cy) - (v0.x - cx) * (v2.y - cy)) * inv_area;
    const float w2 = 1.0f - w0 - w1;
    if (w0 < 0 || w1 < 0 || w2 < 0) continue;
    c.w0[l] = w0;
    c.w1[l] = w1;
    c.w2[l] = w2;
    c.covered |= 1u << l;
  }
}

#if defined(__x86_64__)
// cover8_scalar over 8 lanes per operation. Each lane evaluates the scalar
// expression tree -- the same differences and products in the same order,
// w2 = (1 - w0) - w1, and target("avx2") emits no fused multiply-add -- so
// its weights are bit-identical, and an ordered `< 0` compare lets a NaN
// weight pass as the scalar test does.
__attribute__((target("avx2"))) void cover8_avx2(
    const ProjectedVertex& v0, const ProjectedVertex& v1,
    const ProjectedVertex& v2, float inv_area, int x0, int y, int lanes,
    Coverage8& c) {
  const __m256 cx = _mm256_add_ps(
      _mm256_cvtepi32_ps(_mm256_add_epi32(
          _mm256_set1_epi32(x0), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))),
      _mm256_set1_ps(0.5f));
  const float cy = static_cast<float>(y) + 0.5f;
  const __m256 d0x = _mm256_sub_ps(_mm256_set1_ps(v0.x), cx);
  const __m256 d1x = _mm256_sub_ps(_mm256_set1_ps(v1.x), cx);
  const __m256 d2x = _mm256_sub_ps(_mm256_set1_ps(v2.x), cx);
  const __m256 d0y = _mm256_set1_ps(v0.y - cy);
  const __m256 d1y = _mm256_set1_ps(v1.y - cy);
  const __m256 d2y = _mm256_set1_ps(v2.y - cy);
  const __m256 inv = _mm256_set1_ps(inv_area);
  const __m256 w0 = _mm256_mul_ps(
      _mm256_sub_ps(_mm256_mul_ps(d1x, d2y), _mm256_mul_ps(d2x, d1y)), inv);
  const __m256 w1 = _mm256_mul_ps(
      _mm256_sub_ps(_mm256_mul_ps(d2x, d0y), _mm256_mul_ps(d0x, d2y)), inv);
  const __m256 w2 = _mm256_sub_ps(_mm256_sub_ps(_mm256_set1_ps(1.0f), w0), w1);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 outside =
      _mm256_or_ps(_mm256_or_ps(_mm256_cmp_ps(w0, zero, _CMP_LT_OQ),
                                _mm256_cmp_ps(w1, zero, _CMP_LT_OQ)),
                   _mm256_cmp_ps(w2, zero, _CMP_LT_OQ));
  _mm256_storeu_ps(c.w0, w0);
  _mm256_storeu_ps(c.w1, w1);
  _mm256_storeu_ps(c.w2, w2);
  c.covered = ~static_cast<unsigned>(_mm256_movemask_ps(outside)) &
              ((1u << lanes) - 1);
}
#endif  // __x86_64__

void cover8(bool avx2, const ProjectedVertex& v0, const ProjectedVertex& v1,
            const ProjectedVertex& v2, float inv_area, int x0, int y,
            int lanes, Coverage8& c) {
#if defined(__x86_64__)
  if (avx2) return cover8_avx2(v0, v1, v2, inv_area, x0, y, lanes, c);
#endif
  (void)avx2;
  cover8_scalar(v0, v1, v2, inv_area, x0, y, lanes, c);
}

// ---- The reject
//
// Most small triangles cover no pixel centre, so before triangle() sets one
// up, triangles go 8 at a time through a reject that drops only those it
// proves draw nothing: on some axis, no pixel centre lies within a margin m
// of the vertices' range,
//
//   m = K u D^2 diam / |area|,   u = 2^-24, D = diam + 2 px, K = 64,
//
// with diam the range's larger side and area triangle()'s own. A margin is
// needed: triangle() covers a centre when its rounded weights there are all
// >= 0, and they can be at a centre just outside the vertices' float box (a
// sliver with a vertex a few ulps from a centre). No fixed margin holds,
// since the weights' error grows as u D^2 / |area|.
//
// Why K = 64 suffices. triangle() tests only centres c within 1.5 px of the
// range, so each difference v - c it forms is at most D: a weight's numerator
// (two products of such differences, subtracted) is off by at most 8uD^2,
// and the area (differences at most diam) by at most 8u diam^2. Let P be the
// point whose weights are the rounded ones; if they are all >= 0, P is in the
// triangle (to u diam). The numerators share one rounded 1 / area, so P is
// Q scaled about v2 by A / (area (1 + u)), where Q has the rounded numerators
// over the exact area A: |P - Q| <= (u + 8uD^2 / |A|) diam, and Q's weights
// are each off by at most 10uD^2 / |A|, so |Q - c| <= 20uD^2 diam / |A| per
// axis. Since |A| <= 2 diam^2, the u diam terms fit under 4uD^2 diam / |A|,
// and c lies within 32uD^2 diam / |A| of the range. If |A| >= 16u diam^2,
// then |area| <= 1.5 |A| and m >= 42uD^2 diam / |A| covers that, with slack
// for the rounding of m itself. Otherwise |area| < 24u diam^2 and
// m >= 2.6 D^2 / diam >= 21 px, beyond every centre triangle() tests.
// The bound is loose, but it is a bound: on the adversarial slivers of
// render_test's Rasterize.ConservativeRejectMatchesThePreChangeRasterizer,
// K = 1/8 already loses a covered centre and K = 1/4 does not.
//
// A triangle whose area is below triangle()'s 1e-9 is dropped, since
// triangle() draws nothing for it either. One with an infinite or NaN area
// is kept, as is one whose margin overflows; one with a vertex that is not
// ok draws nothing whichever way the reject decides.
constexpr float kMarginKu = 0x1p-18f;  // K u = 64 * 2^-24
constexpr float kMinArea = 1e-9f;      // triangle() draws nothing below it

// True when no pixel centre k + 0.5, k in [0, cells), lies in
// [lo - m, hi + m]. Rounding is monotone and centres are floats, so a centre
// inside the exact interval stays inside the rounded one. False for NaN.
bool misses_centres(float lo, float hi, float m, float cells) {
  const float first = std::ceil((lo - m) - 0.5f);
  const float last = std::floor((hi + m) - 0.5f);
  return first > last || first > cells - 1.0f || last < 0.0f;
}

// A triangle as its three vertices, held elsewhere: in a contour cell's
// edge cache, or in a mesh batch's projected vertices.
struct TriangleRef {
  const ProjectedVertex* v[3];
};

// Bit t set unless triangle t of tris[0, n) (n <= 8) provably covers no
// pixel centre of a width x height screen. The reference for the AVX2 path,
// and the path on CPUs without AVX2.
unsigned keep8_scalar(const TriangleRef* tris, int n, float width,
                      float height) {
  unsigned keep = 0;
  for (int t = 0; t < n; ++t) {
    const ProjectedVertex &v0 = *tris[t].v[0], &v1 = *tris[t].v[1],
                          &v2 = *tris[t].v[2];
    const float area =
        (v1.x - v0.x) * (v2.y - v0.y) - (v2.x - v0.x) * (v1.y - v0.y);
    const float xlo = std::min(std::min(v0.x, v1.x), v2.x);
    const float xhi = std::max(std::max(v0.x, v1.x), v2.x);
    const float ylo = std::min(std::min(v0.y, v1.y), v2.y);
    const float yhi = std::max(std::max(v0.y, v1.y), v2.y);
    const float diam = std::max(xhi - xlo, yhi - ylo);
    const float abs_area = std::abs(area);
    bool drop = abs_area < kMinArea;
    if (abs_area >= kMinArea &&
        abs_area < std::numeric_limits<float>::infinity()) {
      const float d = diam + 2.0f;
      const float m = kMarginKu * (d * d) * diam / abs_area;
      drop = misses_centres(xlo, xhi, m, width) ||
             misses_centres(ylo, yhi, m, height);
    }
    if (!drop) keep |= 1u << t;
  }
  return keep;
}

#if defined(__x86_64__)
// misses_centres over 8 lanes.
__attribute__((target("avx2"))) __m256 misses_centres8(__m256 lo, __m256 hi,
                                                       __m256 m,
                                                       float cells) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 first = _mm256_ceil_ps(_mm256_sub_ps(_mm256_sub_ps(lo, m), half));
  const __m256 last = _mm256_floor_ps(_mm256_sub_ps(_mm256_add_ps(hi, m), half));
  return _mm256_or_ps(
      _mm256_or_ps(_mm256_cmp_ps(first, last, _CMP_GT_OQ),
                   _mm256_cmp_ps(first, _mm256_set1_ps(cells - 1.0f),
                                 _CMP_GT_OQ)),
      _mm256_cmp_ps(last, _mm256_setzero_ps(), _CMP_LT_OQ));
}

// keep8_scalar over 8 lanes per operation, each lane the scalar expression
// tree. Lanes past n repeat triangle 0 and are masked off.
__attribute__((target("avx2"))) unsigned keep8_avx2(const TriangleRef* tris,
                                                    int n, float width,
                                                    float height) {
  alignas(32) float xy[6][8];  // x0, y0, x1, y1, x2, y2 per lane
  for (int t = 0; t < 8; ++t) {
    const TriangleRef& tri = tris[t < n ? t : 0];
    for (int k = 0; k < 3; ++k) {
      xy[2 * k][t] = tri.v[k]->x;
      xy[2 * k + 1][t] = tri.v[k]->y;
    }
  }
  const __m256 x0 = _mm256_load_ps(xy[0]), y0 = _mm256_load_ps(xy[1]);
  const __m256 x1 = _mm256_load_ps(xy[2]), y1 = _mm256_load_ps(xy[3]);
  const __m256 x2 = _mm256_load_ps(xy[4]), y2 = _mm256_load_ps(xy[5]);
  const __m256 area = _mm256_sub_ps(
      _mm256_mul_ps(_mm256_sub_ps(x1, x0), _mm256_sub_ps(y2, y0)),
      _mm256_mul_ps(_mm256_sub_ps(x2, x0), _mm256_sub_ps(y1, y0)));
  const __m256 xlo = _mm256_min_ps(_mm256_min_ps(x0, x1), x2);
  const __m256 xhi = _mm256_max_ps(_mm256_max_ps(x0, x1), x2);
  const __m256 ylo = _mm256_min_ps(_mm256_min_ps(y0, y1), y2);
  const __m256 yhi = _mm256_max_ps(_mm256_max_ps(y0, y1), y2);
  const __m256 diam =
      _mm256_max_ps(_mm256_sub_ps(xhi, xlo), _mm256_sub_ps(yhi, ylo));
  const __m256 d = _mm256_add_ps(diam, _mm256_set1_ps(2.0f));
  const __m256 abs_area = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), area);
  const __m256 m = _mm256_div_ps(
      _mm256_mul_ps(
          _mm256_mul_ps(_mm256_set1_ps(kMarginKu), _mm256_mul_ps(d, d)), diam),
      abs_area);
  const __m256 tiny =
      _mm256_cmp_ps(abs_area, _mm256_set1_ps(kMinArea), _CMP_LT_OQ);
  const __m256 finite = _mm256_and_ps(
      _mm256_cmp_ps(abs_area, _mm256_set1_ps(kMinArea), _CMP_GE_OQ),
      _mm256_cmp_ps(abs_area,
                    _mm256_set1_ps(std::numeric_limits<float>::infinity()),
                    _CMP_LT_OQ));
  const __m256 drop = _mm256_or_ps(
      tiny, _mm256_and_ps(finite,
                          _mm256_or_ps(misses_centres8(xlo, xhi, m, width),
                                       misses_centres8(ylo, yhi, m, height))));
  return ~static_cast<unsigned>(_mm256_movemask_ps(drop)) & ((1u << n) - 1);
}
#endif  // __x86_64__

unsigned keep8(bool avx2, const TriangleRef* tris, int n, float width,
               float height) {
#if defined(__x86_64__)
  if (avx2) return keep8_avx2(tris, n, width, height);
#endif
  (void)avx2;
  return keep8_scalar(tris, n, width, height);
}

// How vertex normals reach the shading: as given (a mesh's), or normalized
// first (the contour's lerped gradients, vis::EdgeVertex::normal).
enum class VertexNormals : std::uint8_t { as_given, normalize };

// Where a camera puts world points on a framebuffer.
class Projection {
 public:
  Projection(const FrameBuffer& fb, const Camera& cam)
      : width_(fb.width),
        height_(fb.height),
        aspect_(static_cast<float>(width_) / static_cast<float>(height_)),
        cam_(cam),
        basis_(basis_of(cam)) {}

  [[nodiscard]] ProjectedVertex project(const Vec3& pos, const Vec3& normal,
                                        float scalar) const {
    ProjectedVertex v;
    const Vec3 rel = pos - cam_.eye;
    const float zc = rel.dot(basis_.forward);  // view-space depth
    if (zc <= cam_.near_plane) return v;       // behind near plane: cull
    const float xc = rel.dot(basis_.right);
    const float yc = rel.dot(basis_.up);
    const float px = xc / (zc * basis_.tan_half_fov * aspect_);
    const float py = yc / (zc * basis_.tan_half_fov);
    v.x = (px * 0.5f + 0.5f) * static_cast<float>(width_);
    v.y = (0.5f - py * 0.5f) * static_cast<float>(height_);
    v.z = std::clamp((zc - cam_.near_plane) / (cam_.far_plane - cam_.near_plane),
                     0.0f, 1.0f);
    v.normal = normal;
    v.scalar = scalar;
    // A NaN sample contours to NaN points; nothing may cast them to int.
    v.ok = std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
    return v;
  }

 private:
  const int width_, height_;
  const float aspect_;
  const Camera& cam_;
  const CameraBasis basis_;
};

// One rasterizing call's screen, shading and coverage path. A mesh's
// triangles, a contour cell's and the screen-space entry's all go through
// draw(): the reject, then triangle() for what it keeps.
class Raster {
 public:
  Raster(const FrameBuffer& fb, const ColorMap& cmap, bool avx2,
         VertexNormals normals)
      : width_(nonempty(fb).width),
        height_(fb.height),
        cmap_(cmap),
        avx2_(avx2),
        normalize_(normals == VertexNormals::normalize) {}

  // Draws tris in order: 8 at a time through the reject, and each one it
  // keeps through triangle(). A dropped triangle covers no pixel centre, so
  // the fragments and their order are triangle()'s alone.
  template <class Target>
  void draw(std::span<const TriangleRef> tris, Target& target) const {
    for (std::size_t t0 = 0; t0 < tris.size(); t0 += 8) {
      const int n = static_cast<int>(std::min<std::size_t>(8, tris.size() - t0));
      for (unsigned keep = keep8(avx2_, &tris[t0], n, static_cast<float>(width_),
                                 static_cast<float>(height_));
           keep != 0; keep &= keep - 1) {
        const TriangleRef& t = tris[t0 + static_cast<std::size_t>(std::countr_zero(keep))];
        triangle(*t.v[0], *t.v[1], *t.v[2], target);
      }
    }
  }

  // Offers every pixel centre the triangle covers to
  // target.fragment(p, z, color), in row-major order.
  template <class Target>
  void triangle(const ProjectedVertex& v0, const ProjectedVertex& v1,
                const ProjectedVertex& v2, Target& target) const {
    if (!v0.ok || !v1.ok || !v2.ok) return;
    const float area =
        (v1.x - v0.x) * (v2.y - v0.y) - (v2.x - v0.x) * (v1.y - v0.y);
    if (std::abs(area) < 1e-9f) return;
    const float inv_area = 1.0f / area;

    // The bounding box is clamped to the screen in float: a vertex far off
    // screen lies beyond int's range.
    const float fxmin = std::max(0.0f, std::floor(std::min({v0.x, v1.x, v2.x})));
    const float fxmax = std::min(static_cast<float>(width_ - 1),
                                 std::ceil(std::max({v0.x, v1.x, v2.x})));
    const float fymin = std::max(0.0f, std::floor(std::min({v0.y, v1.y, v2.y})));
    const float fymax = std::min(static_cast<float>(height_ - 1),
                                 std::ceil(std::max({v0.y, v1.y, v2.y})));
    if (fxmin > fxmax || fymin > fymax) return;
    const int xmin = static_cast<int>(fxmin);
    const int xmax = static_cast<int>(fxmax);
    const int ymin = static_cast<int>(fymin);
    const int ymax = static_cast<int>(fymax);

    Coverage8 cov;
    for (int y = ymin; y <= ymax; ++y) {
      for (int x0 = xmin; x0 <= xmax; x0 += 8) {
        cover8(avx2_, v0, v1, v2, inv_area, x0, y, std::min(8, xmax - x0 + 1),
               cov);
        // Covered pixels shade in row-major order, as one at a time.
        for (unsigned m = cov.covered; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          const float w0 = cov.w0[l], w1 = cov.w1[l], w2 = cov.w2[l];
          const float z = w0 * v0.z + w1 * v1.z + w2 * v2.z;
          const std::size_t p = static_cast<std::size_t>(y) *
                                    static_cast<std::size_t>(width_) +
                                static_cast<std::size_t>(x0 + l);
          target.fragment(p, z, [&] {
            const Vec3 n = (normal(v0) * w0 + normal(v1) * w1 +
                            normal(v2) * w2)
                               .normalized();
            const float scalar =
                w0 * v0.scalar + w1 * v1.scalar + w2 * v2.scalar;
            const float shade = 0.25f + 0.75f * std::abs(n.dot(light_));
            return cmap_.map(scalar) * shade;
          });
        }
      }
    }
  }

 private:
  static const FrameBuffer& nonempty(const FrameBuffer& fb) {
    if (fb.width == 0 || fb.height == 0)
      throw std::invalid_argument("rasterize: empty framebuffer");
    return fb;
  }
  // Runs only for a fragment a pixel takes.
  [[nodiscard]] Vec3 normal(const ProjectedVertex& v) const {
    return normalize_ ? v.normal.normalized() : v.normal;
  }

  const int width_, height_;
  const Vec3 light_ = Vec3{0.4f, 0.8f, 0.45f}.normalized();
  const ColorMap& cmap_;
  const bool avx2_;
  const bool normalize_;
};

// Draws a mesh 8 triangles at a time, each batch's vertices projected into
// an array on the stack.
template <class Target>
void draw_mesh(const Projection& projection, const Raster& raster,
               const vis::TriangleMesh& mesh, Target& target) {
  auto vertex = [&](std::uint32_t idx) {
    return projection.project(
        mesh.points[idx],
        idx < mesh.normals.size() ? mesh.normals[idx] : Vec3{0, 0, 1},
        idx < mesh.scalars.size() ? mesh.scalars[idx] : 0.0f);
  };
  std::array<ProjectedVertex, 24> v;
  std::array<TriangleRef, 8> batch{};
  for (std::size_t t = 0; t < batch.size(); ++t)
    batch[t] = {{&v[3 * t], &v[3 * t + 1], &v[3 * t + 2]}};
  for (std::size_t t0 = 0; t0 < mesh.triangle_count(); t0 += batch.size()) {
    const std::size_t n = std::min(batch.size(), mesh.triangle_count() - t0);
    for (std::size_t i = 0; i < 3 * n; ++i)
      v[i] = vertex(mesh.triangles[3 * t0 + i]);
    raster.draw(std::span(batch.data(), n), target);
  }
}

// The serial z-buffer: a pixel takes a fragment only if z < depth, so a
// fragment whose weights overflowed to NaN never lands.
struct DirectTarget {
  FrameBuffer& fb;

  template <class Color>
  void fragment(std::size_t p, float z, const Color& color) {
    if (z < fb.depth[p]) fb.put(p, z, color());
  }
};

// Task `task`'s fragments into an OrderedTarget.
struct TaskTarget {
  OrderedTarget& target;
  std::size_t task;

  template <class Color>
  void fragment(std::size_t p, float z, const Color& color) {
    target.fragment(task, p, z, color);
  }
};

// The contour kernel's sink: projects each edge vertex once per cell and
// draws a cell's triangles, at most 6 tetrahedra x 2, at its end.
struct ContourSink {
  using Vertex = ProjectedVertex;
  const Projection& projection;
  const Raster& raster;
  TaskTarget target;
  std::size_t triangles = 0;  // as emitted, before the reject
  std::array<TriangleRef, 12> cell{};
  std::size_t cell_size = 0;

  [[nodiscard]] Vertex vertex(const vis::EdgeVertex& v) const {
    return projection.project(v.pos, v.normal, v.color);
  }
  void triangle(const Vertex& a, const Vertex& b, const Vertex& c) {
    ++triangles;
    cell[cell_size++] = {{&a, &b, &c}};
  }
  void end_cell() {
    raster.draw(std::span(cell.data(), cell_size), target);
    cell_size = 0;
  }
};

}  // namespace

void rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
               const Camera& cam, const ColorMap& cmap) {
  detail::rasterize(fb, mesh, cam, cmap, common::simd::avx2());
}

void detail::rasterize(FrameBuffer& fb, const vis::TriangleMesh& mesh,
                       const Camera& cam, const ColorMap& cmap, bool avx2) {
  DirectTarget target{fb};
  const Raster raster(fb, cmap, avx2, VertexNormals::as_given);
  draw_mesh(Projection(fb, cam), raster, mesh, target);
}

void detail::rasterize_projected(FrameBuffer& fb,
                                 std::span<const ProjectedVertex> v,
                                 const ColorMap& cmap, bool avx2) {
  std::vector<TriangleRef> refs(v.size() / 3);
  for (std::size_t t = 0; t < refs.size(); ++t)
    refs[t] = {{&v[3 * t], &v[3 * t + 1], &v[3 * t + 2]}};
  DirectTarget target{fb};
  Raster(fb, cmap, avx2, VertexNormals::as_given).draw(refs, target);
}

void rasterize(OrderedTarget& target, std::size_t task,
               const vis::TriangleMesh& mesh, const Camera& cam,
               const ColorMap& cmap) {
  TaskTarget to{target, task};
  const FrameBuffer& fb = target.framebuffer();
  const Raster raster(fb, cmap, common::simd::avx2(), VertexNormals::as_given);
  draw_mesh(Projection(fb, cam), raster, mesh, to);
}

std::size_t rasterize_isosurface(OrderedTarget& target, std::size_t task,
                                 const vis::UniformGrid& grid,
                                 const std::string& field, float isovalue,
                                 const std::string& color_field,
                                 std::uint32_t k_begin, std::uint32_t k_end,
                                 const Camera& cam, const ColorMap& cmap) {
  const FrameBuffer& fb = target.framebuffer();
  const Raster raster(fb, cmap, common::simd::avx2(), VertexNormals::normalize);
  const Projection projection(fb, cam);
  ContourSink sink{projection, raster, {target, task}};
  vis::contour_layers(grid, field, isovalue, color_field, k_begin, k_end,
                      sink);
  return sink.triangles;
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
