// Marching tetrahedra, the one contour kernel. Each hexahedral cell is split
// into 6 tetrahedra around its main diagonal, and every triangle goes to a
// sink as soon as it is found: isosurface() and isosurface_layers()
// (vis/filters.hpp) append to a TriangleMesh, and render::rasterize_isosurface
// draws each one without building a mesh. Which cells of a row straddle the
// isovalue is decided 8 cells per AVX2 operation when the CPU has it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/simd.hpp"
#include "vis/data.hpp"
#include "vis/math.hpp"

namespace colza::vis {

// A contour vertex on a cell edge: position, normal and the interpolated
// color scalar.
struct EdgeVertex {
  Vec3 pos;
  // The corner gradients lerped along the edge, not normalized: a sink makes
  // it a unit vector where it needs one (isosurface()'s mesh as it stores
  // the vertex; the rasterizer only for the fragments it shades). It must be
  // normalized exactly once, since Vec3::normalized() is not idempotent in
  // float.
  Vec3 normal;
  float color = 0;
};

namespace detail {

// Cube corner b: bit0 -> +i, bit1 -> +j, bit2 -> +k.
// Six tetrahedra sharing the main diagonal corner0 -- corner7; the ring
// 1,3,2,6,4,5 walks around that diagonal so consecutive entries share a face.
inline constexpr std::array<std::array<int, 4>, 6> kTets{{{0, 1, 3, 7},
                                                          {0, 3, 2, 7},
                                                          {0, 2, 6, 7},
                                                          {0, 6, 4, 7},
                                                          {0, 4, 5, 7},
                                                          {0, 5, 1, 7}}};

struct Corner {
  Vec3 pos;
  Vec3 gradient;
  float value = 0;
  float color = 0;
};

inline EdgeVertex interpolate(const Corner& a, const Corner& b, float iso) {
  const float denom = b.value - a.value;
  const float t =
      denom != 0 ? std::clamp((iso - a.value) / denom, 0.0f, 1.0f) : 0.5f;
  EdgeVertex v;
  v.pos = lerp(a.pos, b.pos, t);
  v.normal = lerp(a.gradient, b.gradient, t);
  v.color = a.color + (b.color - a.color) * t;
  return v;
}

// A cell's edge vertices, each interpolated and handed to the sink once:
// interpolate(a, b) and interpolate(b, a) round differently, so the key is
// the ordered corner pair. Neighbouring tetrahedra of a cell share its
// diagonal and face edges.
template <class Vertex>
struct EdgeCache {
  std::uint64_t have = 0;  // bit 8a + b: vertex of edge a -> b is in v
  std::array<Vertex, 64> v;
};

// Contours tetrahedron `tet` (four corner indices) of a cell.
template <class Sink>
void march_tet(Sink& sink, const std::array<Corner, 8>& corners,
               const std::array<int, 4>& tet, float iso,
               EdgeCache<typename Sink::Vertex>& cache) {
  int mask = 0;
  for (int i = 0; i < 4; ++i) {
    if (corners[static_cast<std::size_t>(tet[static_cast<std::size_t>(i)])]
            .value > iso)
      mask |= 1 << i;
  }
  if (mask == 0 || mask == 15) return;
  // Normalize to "one or two corners above"; winding is irrelevant, since
  // normals come from the gradient.
  if (__builtin_popcount(static_cast<unsigned>(mask)) > 2) mask = ~mask & 15;

  auto ev = [&](int i, int j) -> const typename Sink::Vertex& {
    const auto a = static_cast<unsigned>(tet[static_cast<std::size_t>(i)]);
    const auto b = static_cast<unsigned>(tet[static_cast<std::size_t>(j)]);
    const unsigned slot = 8 * a + b;
    if ((cache.have >> slot & 1u) == 0) {
      cache.v[slot] = sink.vertex(interpolate(corners[a], corners[b], iso));
      cache.have |= std::uint64_t{1} << slot;
    }
    return cache.v[slot];
  };

  switch (mask) {
    // One corner isolated: one triangle on the three edges leaving it.
    case 1: sink.triangle(ev(0, 1), ev(0, 2), ev(0, 3)); break;
    case 2: sink.triangle(ev(1, 0), ev(1, 2), ev(1, 3)); break;
    case 4: sink.triangle(ev(2, 0), ev(2, 1), ev(2, 3)); break;
    case 8: sink.triangle(ev(3, 0), ev(3, 1), ev(3, 2)); break;
    // Two corners vs two corners: a quad split into two triangles.
    case 3: {  // {0,1} above
      const auto &a = ev(0, 2), &b = ev(0, 3), &d = ev(1, 3), &e = ev(1, 2);
      sink.triangle(a, b, d);
      sink.triangle(a, d, e);
      break;
    }
    case 5: {  // {0,2}
      const auto &a = ev(0, 1), &b = ev(0, 3), &d = ev(2, 3), &e = ev(2, 1);
      sink.triangle(a, b, d);
      sink.triangle(a, d, e);
      break;
    }
    case 6: {  // {1,2}
      const auto &a = ev(1, 0), &b = ev(1, 3), &d = ev(2, 3), &e = ev(2, 0);
      sink.triangle(a, b, d);
      sink.triangle(a, d, e);
      break;
    }
    case 9: {  // {0,3}
      const auto &a = ev(0, 1), &b = ev(0, 2), &d = ev(3, 2), &e = ev(3, 1);
      sink.triangle(a, b, d);
      sink.triangle(a, d, e);
      break;
    }
    case 10: {  // {1,3}
      const auto &a = ev(1, 0), &b = ev(1, 2), &d = ev(3, 2), &e = ev(3, 0);
      sink.triangle(a, b, d);
      sink.triangle(a, d, e);
      break;
    }
    case 12: {  // {2,3}
      const auto &a = ev(2, 0), &b = ev(2, 1), &d = ev(3, 1), &e = ev(3, 0);
      sink.triangle(a, b, d);
      sink.triangle(a, d, e);
      break;
    }
    default: throw std::logic_error("march_tet: unreachable case");
  }
}

// A cell row's four point rows, (j, k), (j + 1, k), (j, k + 1) and
// (j + 1, k + 1): cell i of the row spans points i and i + 1 of each.
using PointRows = std::array<const float*, 4>;

// Which of the cells i0 .. i0 + lanes - 1 (lanes in [1, 8]) of a row straddle
// `iso`: bit l is set when a corner of cell i0 + l is above it (v > iso) and
// another is not (v <= iso). A NaN corner is neither. The reference for the
// AVX2 path, and the path on CPUs without AVX2.
inline unsigned straddle8_scalar(const PointRows& rows, std::size_t i0,
                                 int lanes, float iso) {
  unsigned mask = 0;
  for (int l = 0; l < lanes; ++l) {
    const std::size_t i = i0 + static_cast<std::size_t>(l);
    bool above = false, below = false;
    for (const float* row : rows) {
      for (const float v : {row[i], row[i + 1]}) {
        above |= v > iso;
        below |= v <= iso;
      }
    }
    if (above && below) mask |= 1u << l;
  }
  return mask;
}

#if defined(__x86_64__)
// straddle8_scalar over 8 cells per operation: ordered compares (_GT_OQ,
// _LE_OQ) are false for NaN as the scalar ones are. The loads are masked to
// the live lanes, so none reads past the row's last point.
__attribute__((target("avx2"))) inline unsigned straddle8_avx2(
    const PointRows& rows, std::size_t i0, int lanes, float iso) {
  const __m256i live = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(lanes), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 t = _mm256_set1_ps(iso);
  __m256 above = _mm256_setzero_ps(), below = _mm256_setzero_ps();
  for (const float* row : rows) {
    for (const float* p : {row + i0, row + i0 + 1}) {
      const __m256 v = _mm256_maskload_ps(p, live);
      above = _mm256_or_ps(above, _mm256_cmp_ps(v, t, _CMP_GT_OQ));
      below = _mm256_or_ps(below, _mm256_cmp_ps(v, t, _CMP_LE_OQ));
    }
  }
  // A masked-off lane loads 0 at all eight corners, so it never straddles.
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_and_ps(above, below)));
}
#endif  // __x86_64__

inline unsigned straddle8(bool avx2, const PointRows& rows, std::size_t i0,
                          int lanes, float iso) {
#if defined(__x86_64__)
  if (avx2) return straddle8_avx2(rows, i0, lanes, iso);
#endif
  (void)avx2;
  return straddle8_scalar(rows, i0, lanes, iso);
}

}  // namespace detail

// Contours point field `field` of `grid` at `isovalue` over the cell layers k
// in [k_begin, k_end) (a cell layer spans point planes k and k + 1; k_end is
// clamped to the layer count), in increasing k, j, i and tetrahedron order.
// The sink gets each edge vertex once per cell, each triangle as it is
// found, and the end of each cell it contours (each has a triangle):
//   typename Sink::Vertex sink.vertex(const EdgeVertex&);
//   void sink.triangle(const Sink::Vertex&, const Sink::Vertex&,
//                      const Sink::Vertex&);
//   void sink.end_cell();
// A cell's Vertex objects stay in place until its end_cell() returns.
// Vertex colors come from `color_field` when the grid has it, else from
// `field`. Throws std::runtime_error when `field` is missing or mis-sized.
template <class Sink>
void contour_layers(const UniformGrid& grid, const std::string& field,
                    float isovalue, const std::string& color_field,
                    std::uint32_t k_begin, std::uint32_t k_end, Sink& sink);

namespace detail {
// contour_layers() with the straddle scan chosen by the caller: 8 cells per
// AVX2 operation when `avx2` (the CPU must have it), else one at a time.
// Both must make the same sink calls for every field, NaN included.
template <class Sink>
void contour_layers(const UniformGrid& grid, const std::string& field,
                    float isovalue, const std::string& color_field,
                    std::uint32_t k_begin, std::uint32_t k_end, Sink& sink,
                    bool avx2) {
  const DataArray* arr = grid.point_data.find(field);
  if (arr == nullptr)
    throw std::runtime_error("isosurface: no point field '" + field + "'");
  const auto values = arr->as<float>();
  if (values.size() != grid.point_count())
    throw std::runtime_error("isosurface: field size != point count");
  const DataArray* color_arr =
      color_field.empty() ? nullptr : grid.point_data.find(color_field);
  std::span<const float> colors;
  if (color_arr != nullptr) colors = color_arr->as<float>();

  const auto [nx, ny, nz] = grid.dims;
  if (nx < 2 || ny < 2 || nz < 2) return;
  k_end = std::min(k_end, nz - 1);
  if (k_begin >= k_end) return;

  // Gradient of the field at a grid point, by central differences (one-sided
  // at the boundary), in world units.
  auto gradient = [&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    auto sample = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c) {
      return values[grid.point_index(a, b, c)];
    };
    Vec3 g;
    {
      const std::uint32_t i0 = i > 0 ? i - 1 : i;
      const std::uint32_t i1 = i + 1 < nx ? i + 1 : i;
      g.x = (sample(i1, j, k) - sample(i0, j, k)) /
            (grid.spacing.x * static_cast<float>(i1 - i0 == 0 ? 1 : i1 - i0));
    }
    {
      const std::uint32_t j0 = j > 0 ? j - 1 : j;
      const std::uint32_t j1 = j + 1 < ny ? j + 1 : j;
      g.y = (sample(i, j1, k) - sample(i, j0, k)) /
            (grid.spacing.y * static_cast<float>(j1 - j0 == 0 ? 1 : j1 - j0));
    }
    {
      const std::uint32_t k0 = k > 0 ? k - 1 : k;
      const std::uint32_t k1 = k + 1 < nz ? k + 1 : k;
      g.z = (sample(i, j, k1) - sample(i, j, k0)) /
            (grid.spacing.z * static_cast<float>(k1 - k0 == 0 ? 1 : k1 - k0));
    }
    return g;
  };

  // Neighbouring straddling cells share corners: each point's gradient is
  // computed once, on first use, into a cache over the layer's two point
  // planes. Moving up a layer, the upper plane becomes the lower one.
  const std::size_t plane = static_cast<std::size_t>(nx) * ny;
  std::vector<Vec3> grads(2 * plane);
  std::vector<std::uint8_t> have(2 * plane, 0);
  std::size_t lower = 0;  // offset of plane k's half; the other holds k + 1

  // Corner b of a cell (bit0 -> +i, bit1 -> +j, bit2 -> +k) lies this far
  // from corner 0 in the field.
  std::array<std::size_t, 8> offset{};
  for (std::size_t b = 0; b < 8; ++b)
    offset[b] = (b & 1u) + ((b >> 1) & 1u) * nx + ((b >> 2) & 1u) * plane;

  std::array<detail::Corner, 8> corners;
  detail::EdgeCache<typename Sink::Vertex> edges;
  for (std::uint32_t k = k_begin; k < k_end; ++k) {
    if (k != k_begin) {
      // Plane k was the upper plane; plane k + 1 starts with no gradients.
      lower = plane - lower;
      std::fill_n(have.begin() + static_cast<std::ptrdiff_t>(plane - lower),
                  plane, std::uint8_t{0});
    }
    for (std::uint32_t j = 0; j + 1 < ny; ++j) {
      const std::size_t row = grid.point_index(0, j, k);
      const detail::PointRows rows{&values[row], &values[row + nx],
                                   &values[row + plane],
                                   &values[row + plane + nx]};
      // Only the cells with corners on both sides of the isovalue are
      // contoured, in increasing i.
      for (std::uint32_t i0 = 0; i0 + 1 < nx; i0 += 8) {
        const int lanes = static_cast<int>(std::min(8u, nx - 1 - i0));
        for (unsigned m = detail::straddle8(avx2, rows, i0, lanes, isovalue);
             m != 0; m &= m - 1) {
          const std::uint32_t i =
              i0 + static_cast<std::uint32_t>(std::countr_zero(m));
          const std::size_t base = row + i;
          for (std::size_t b = 0; b < 8; ++b) {
            const std::uint32_t ci = i + static_cast<std::uint32_t>(b & 1u);
            const std::uint32_t cj = j + static_cast<std::uint32_t>((b >> 1) & 1u);
            const std::uint32_t ck = k + static_cast<std::uint32_t>((b >> 2) & 1u);
            auto& corner = corners[b];
            corner.pos = grid.point(ci, cj, ck);
            const std::size_t slot =
                (ck == k ? lower : plane - lower) +
                static_cast<std::size_t>(cj) * nx + ci;
            if (have[slot] == 0) {
              grads[slot] = gradient(ci, cj, ck);
              have[slot] = 1;
            }
            corner.gradient = grads[slot];
            corner.value = values[base + offset[b]];
            corner.color =
                colors.empty() ? corner.value : colors[base + offset[b]];
          }
          edges.have = 0;
          for (const auto& tet : detail::kTets)
            detail::march_tet(sink, corners, tet, isovalue, edges);
          sink.end_cell();
        }
      }
    }
  }
}
}  // namespace detail

template <class Sink>
void contour_layers(const UniformGrid& grid, const std::string& field,
                    float isovalue, const std::string& color_field,
                    std::uint32_t k_begin, std::uint32_t k_end, Sink& sink) {
  detail::contour_layers(grid, field, isovalue, color_field, k_begin, k_end,
                         sink, common::simd::avx2());
}

}  // namespace colza::vis
