// Tests for the visualization data model and filters: arrays, grids,
// serialization round trips, isosurface properties, clipping, thresholding,
// merging, and resampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/gray_scott.hpp"
#include "apps/mandelbulb.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "vis/contour.hpp"
#include "vis/data.hpp"
#include "vis/filters.hpp"
#include "vis/vtk_writer.hpp"

namespace colza::vis {
namespace {

// Builds a uniform grid with a radial distance field ||p - c||.
UniformGrid sphere_grid(std::uint32_t n, Vec3 center, float spacing = 1.0f) {
  UniformGrid g;
  g.dims = {n, n, n};
  g.origin = {0, 0, 0};
  g.spacing = {spacing, spacing, spacing};
  std::vector<float> f(g.point_count());
  for (std::uint32_t k = 0; k < n; ++k) {
    for (std::uint32_t j = 0; j < n; ++j) {
      for (std::uint32_t i = 0; i < n; ++i) {
        f[g.point_index(i, j, k)] = (g.point(i, j, k) - center).norm();
      }
    }
  }
  g.point_data.add(DataArray::make<float>("dist", f));
  return g;
}

// ----------------------------------------------------------------- arrays

TEST(DataArray, TypedAccess) {
  std::vector<float> v{1.0f, 2.0f, 3.0f};
  auto a = DataArray::make<float>("temp", v);
  EXPECT_EQ(a.name(), "temp");
  EXPECT_EQ(a.type(), DataType::f32);
  EXPECT_EQ(a.value_count(), 3u);
  EXPECT_EQ(a.tuple_count(), 3u);
  EXPECT_EQ(a.as<float>()[1], 2.0f);
  EXPECT_THROW((void)a.as<double>(), std::runtime_error);
}

TEST(DataArray, MultiComponent) {
  std::vector<double> v(12);
  auto a = DataArray::make<double>("velocity", v, 3);
  EXPECT_EQ(a.value_count(), 12u);
  EXPECT_EQ(a.tuple_count(), 4u);
}

TEST(FieldData, FindByName) {
  FieldData fd;
  fd.add(DataArray::make<float>("a", std::vector<float>{1}));
  fd.add(DataArray::make<float>("b", std::vector<float>{2}));
  ASSERT_NE(fd.find("b"), nullptr);
  EXPECT_EQ(fd.find("b")->as<float>()[0], 2.0f);
  EXPECT_EQ(fd.find("c"), nullptr);
}

// ------------------------------------------------------------------ grids

TEST(UniformGrid, CountsAndIndexing) {
  UniformGrid g;
  g.dims = {4, 3, 2};
  EXPECT_EQ(g.point_count(), 24u);
  EXPECT_EQ(g.cell_count(), 6u);
  EXPECT_EQ(g.point_index(0, 0, 0), 0u);
  EXPECT_EQ(g.point_index(3, 2, 1), 23u);
}

TEST(UniformGrid, PointPositionsAndBounds) {
  UniformGrid g;
  g.dims = {3, 3, 3};
  g.origin = {1, 2, 3};
  g.spacing = {0.5f, 1.0f, 2.0f};
  EXPECT_EQ(g.point(2, 2, 2), (Vec3{2.0f, 4.0f, 7.0f}));
  const Aabb b = g.bounds();
  EXPECT_EQ(b.lo, (Vec3{1, 2, 3}));
  EXPECT_EQ(b.hi, (Vec3{2, 4, 7}));
}

TEST(UnstructuredGrid, AddAndAccessCells) {
  UnstructuredGrid g;
  g.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::uint32_t tet[] = {0, 1, 2, 3};
  g.add_cell(CellType::tetra, tet);
  EXPECT_EQ(g.cell_count(), 1u);
  EXPECT_EQ(g.cell(0).size(), 4u);
  EXPECT_EQ(g.cell(0)[3], 3u);
}

TEST(DataSet, SerializationRoundTrip) {
  UniformGrid g = sphere_grid(5, {2, 2, 2});
  auto bytes = serialize_dataset(g);
  DataSet ds = deserialize_dataset(bytes);
  ASSERT_TRUE(std::holds_alternative<UniformGrid>(ds));
  const auto& g2 = std::get<UniformGrid>(ds);
  EXPECT_EQ(g2.dims, g.dims);
  EXPECT_EQ(g2.point_data.find("dist")->as<float>()[7],
            g.point_data.find("dist")->as<float>()[7]);
}

TEST(DataSet, SerializeUnstructuredAndMesh) {
  UnstructuredGrid u;
  u.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::uint32_t tet[] = {0, 1, 2, 3};
  u.add_cell(CellType::tetra, tet);
  u.cell_data.add(DataArray::make<float>("v", std::vector<float>{3.5f}));
  auto ds = deserialize_dataset(serialize_dataset(u));
  ASSERT_TRUE(std::holds_alternative<UnstructuredGrid>(ds));
  EXPECT_EQ(std::get<UnstructuredGrid>(ds).types[0], CellType::tetra);

  TriangleMesh m;
  m.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  m.triangles = {0, 1, 2};
  auto ds2 = deserialize_dataset(serialize_dataset(m));
  ASSERT_TRUE(std::holds_alternative<TriangleMesh>(ds2));
  EXPECT_EQ(std::get<TriangleMesh>(ds2).triangle_count(), 1u);
}

// -------------------------------------------------------------- isosurface

TEST(Isosurface, SphereVerticesLieOnIsoValue) {
  const Vec3 c{8, 8, 8};
  UniformGrid g = sphere_grid(17, c);
  TriangleMesh m = isosurface(g, "dist", 5.0f);
  ASSERT_GT(m.triangle_count(), 100u);
  // Every generated vertex must sit (approximately) on the r=5 sphere.
  for (const Vec3& p : m.points) {
    EXPECT_NEAR((p - c).norm(), 5.0f, 0.35f);
  }
}

TEST(Isosurface, SphereAreaMatchesAnalytic) {
  const Vec3 c{10, 10, 10};
  UniformGrid g = sphere_grid(21, c);
  const float r = 6.0f;
  TriangleMesh m = isosurface(g, "dist", r);
  double area = 0;
  for (std::size_t t = 0; t < m.triangle_count(); ++t) {
    const Vec3 a = m.points[m.triangles[3 * t]];
    const Vec3 b = m.points[m.triangles[3 * t + 1]];
    const Vec3 d = m.points[m.triangles[3 * t + 2]];
    area += 0.5 * static_cast<double>((b - a).cross(d - a).norm());
  }
  const double expected = 4.0 * M_PI * r * r;
  EXPECT_NEAR(area, expected, expected * 0.1);
}

TEST(Isosurface, NormalsPointRadially) {
  const Vec3 c{8, 8, 8};
  UniformGrid g = sphere_grid(17, c);
  TriangleMesh m = isosurface(g, "dist", 5.0f);
  ASSERT_EQ(m.normals.size(), m.points.size());
  // The gradient of ||p - c|| is the outward radial direction.
  std::size_t good = 0;
  for (std::size_t i = 0; i < m.points.size(); ++i) {
    const Vec3 radial = (m.points[i] - c).normalized();
    if (radial.dot(m.normals[i]) > 0.9f) ++good;
  }
  EXPECT_GT(good, m.points.size() * 9 / 10);
}

TEST(Isosurface, EmptyWhenIsoOutsideRange) {
  UniformGrid g = sphere_grid(9, {4, 4, 4});
  EXPECT_EQ(isosurface(g, "dist", 1000.0f).triangle_count(), 0u);
  EXPECT_EQ(isosurface(g, "dist", -5.0f).triangle_count(), 0u);
}

TEST(Isosurface, ColorFieldInterpolated) {
  UniformGrid g = sphere_grid(9, {4, 4, 4});
  // Secondary field = x coordinate.
  std::vector<float> xs(g.point_count());
  for (std::uint32_t k = 0; k < 9; ++k)
    for (std::uint32_t j = 0; j < 9; ++j)
      for (std::uint32_t i = 0; i < 9; ++i)
        xs[g.point_index(i, j, k)] = static_cast<float>(i);
  g.point_data.add(DataArray::make<float>("x", xs));
  TriangleMesh m = isosurface(g, "dist", 3.0f, "x");
  ASSERT_FALSE(m.points.empty());
  for (std::size_t i = 0; i < m.points.size(); ++i) {
    EXPECT_NEAR(m.scalars[i], m.points[i].x, 0.51f);
  }
}

TEST(Isosurface, MissingFieldThrows) {
  UniformGrid g = sphere_grid(5, {2, 2, 2});
  EXPECT_THROW(isosurface(g, "nope", 1.0f), std::runtime_error);
}

// ---------------------------------------------- contour vs its pre-change form

// The pre-change marching tetrahedra, kept as the reference: every cell's
// corner positions computed before the straddle test, and eight gradients
// per straddling cell, neighbours' shared corners included.
namespace reference {

// Cube corner b: bit0 -> +i, bit1 -> +j, bit2 -> +k.
// Six tetrahedra sharing the main diagonal corner0 -- corner7; the ring
// 1,3,2,6,4,5 walks around that diagonal so consecutive entries share a face.
constexpr std::array<std::array<int, 4>, 6> kTets{{{0, 1, 3, 7},
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

struct EdgeVertex {
  Vec3 pos;
  Vec3 normal;
  float color = 0;
};

EdgeVertex interpolate(const Corner& a, const Corner& b, float iso) {
  const float denom = b.value - a.value;
  const float t =
      denom != 0 ? std::clamp((iso - a.value) / denom, 0.0f, 1.0f) : 0.5f;
  EdgeVertex v;
  v.pos = lerp(a.pos, b.pos, t);
  v.normal = lerp(a.gradient, b.gradient, t).normalized();
  v.color = a.color + (b.color - a.color) * t;
  return v;
}

void emit_triangle(TriangleMesh& out, const EdgeVertex& a, const EdgeVertex& b,
                   const EdgeVertex& c) {
  const auto base = static_cast<std::uint32_t>(out.points.size());
  for (const EdgeVertex* v : {&a, &b, &c}) {
    out.points.push_back(v->pos);
    out.normals.push_back(v->normal);
    out.scalars.push_back(v->color);
  }
  out.triangles.insert(out.triangles.end(), {base, base + 1, base + 2});
}

// Contours one tetrahedron given its four corners.
void march_tet(TriangleMesh& out, const std::array<const Corner*, 4>& c,
               float iso) {
  int mask = 0;
  for (int i = 0; i < 4; ++i) {
    if (c[static_cast<std::size_t>(i)]->value > iso) mask |= 1 << i;
  }
  if (mask == 0 || mask == 15) return;
  // Normalize to "one or two corners above".
  bool flipped = false;
  if (__builtin_popcount(static_cast<unsigned>(mask)) > 2) {
    mask = ~mask & 15;
    flipped = true;
  }
  (void)flipped;  // winding is irrelevant: normals come from the gradient

  auto ev = [&](int i, int j) {
    return interpolate(*c[static_cast<std::size_t>(i)],
                       *c[static_cast<std::size_t>(j)], iso);
  };

  switch (mask) {
    // One corner isolated: one triangle on the three edges leaving it.
    case 1: emit_triangle(out, ev(0, 1), ev(0, 2), ev(0, 3)); break;
    case 2: emit_triangle(out, ev(1, 0), ev(1, 2), ev(1, 3)); break;
    case 4: emit_triangle(out, ev(2, 0), ev(2, 1), ev(2, 3)); break;
    case 8: emit_triangle(out, ev(3, 0), ev(3, 1), ev(3, 2)); break;
    // Two corners vs two corners: a quad split into two triangles.
    case 3: {  // {0,1} above
      const auto a = ev(0, 2), b = ev(0, 3), d = ev(1, 3), e = ev(1, 2);
      emit_triangle(out, a, b, d);
      emit_triangle(out, a, d, e);
      break;
    }
    case 5: {  // {0,2}
      const auto a = ev(0, 1), b = ev(0, 3), d = ev(2, 3), e = ev(2, 1);
      emit_triangle(out, a, b, d);
      emit_triangle(out, a, d, e);
      break;
    }
    case 6: {  // {1,2}
      const auto a = ev(1, 0), b = ev(1, 3), d = ev(2, 3), e = ev(2, 0);
      emit_triangle(out, a, b, d);
      emit_triangle(out, a, d, e);
      break;
    }
    case 9: {  // {0,3}
      const auto a = ev(0, 1), b = ev(0, 2), d = ev(3, 2), e = ev(3, 1);
      emit_triangle(out, a, b, d);
      emit_triangle(out, a, d, e);
      break;
    }
    case 10: {  // {1,3}
      const auto a = ev(1, 0), b = ev(1, 2), d = ev(3, 2), e = ev(3, 0);
      emit_triangle(out, a, b, d);
      emit_triangle(out, a, d, e);
      break;
    }
    case 12: {  // {2,3}
      const auto a = ev(2, 0), b = ev(2, 1), d = ev(3, 1), e = ev(3, 0);
      emit_triangle(out, a, b, d);
      emit_triangle(out, a, d, e);
      break;
    }
    default: throw std::logic_error("march_tet: unreachable case");
  }
}


void reference_layers(const UniformGrid& grid, const std::string& field,
                       float isovalue, const std::string& color_field,
                       std::uint32_t k_begin, std::uint32_t k_end,
                       TriangleMesh& out) {
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

  std::array<Corner, 8> corners;
  for (std::uint32_t k = k_begin; k < k_end; ++k) {
    for (std::uint32_t j = 0; j + 1 < ny; ++j) {
      for (std::uint32_t i = 0; i + 1 < nx; ++i) {
        // Quick reject: all corner values on one side of the isovalue.
        bool any_above = false, any_below = false;
        for (int b = 0; b < 8; ++b) {
          const std::uint32_t ci = i + (static_cast<std::uint32_t>(b) & 1u);
          const std::uint32_t cj = j + ((static_cast<std::uint32_t>(b) >> 1) & 1u);
          const std::uint32_t ck = k + ((static_cast<std::uint32_t>(b) >> 2) & 1u);
          const float v = values[grid.point_index(ci, cj, ck)];
          any_above |= v > isovalue;
          any_below |= v <= isovalue;
          auto& corner = corners[static_cast<std::size_t>(b)];
          corner.value = v;
          corner.pos = grid.point(ci, cj, ck);
        }
        if (!any_above || !any_below) continue;
        for (int b = 0; b < 8; ++b) {
          const std::uint32_t ci = i + (static_cast<std::uint32_t>(b) & 1u);
          const std::uint32_t cj = j + ((static_cast<std::uint32_t>(b) >> 1) & 1u);
          const std::uint32_t ck = k + ((static_cast<std::uint32_t>(b) >> 2) & 1u);
          auto& corner = corners[static_cast<std::size_t>(b)];
          corner.gradient = gradient(ci, cj, ck);
          corner.color = colors.empty()
                             ? corner.value
                             : colors[grid.point_index(ci, cj, ck)];
        }
        for (const auto& tet : kTets) {
          march_tet(out,
                    {&corners[static_cast<std::size_t>(tet[0])],
                     &corners[static_cast<std::size_t>(tet[1])],
                     &corners[static_cast<std::size_t>(tet[2])],
                     &corners[static_cast<std::size_t>(tet[3])]},
                    isovalue);
        }
      }
    }
  }
}


// slice() through the reference contour.
TriangleMesh reference_slice(const UniformGrid& grid, const std::string& field,
                             Vec3 origin, Vec3 normal) {
  const Vec3 n = normal.normalized();
  UniformGrid tmp = grid;
  std::vector<float> dist(grid.point_count());
  for (std::uint32_t k = 0; k < grid.dims[2]; ++k)
    for (std::uint32_t j = 0; j < grid.dims[1]; ++j)
      for (std::uint32_t i = 0; i < grid.dims[0]; ++i)
        dist[grid.point_index(i, j, k)] = (grid.point(i, j, k) - origin).dot(n);
  tmp.point_data.add(DataArray::make<float>("__plane_dist", dist));
  TriangleMesh out;
  reference_layers(tmp, "__plane_dist", 0.0f, field, 0, tmp.dims[2], out);
  return out;
}

}  // namespace reference

bool same_mesh(const TriangleMesh& a, const TriangleMesh& b) {
  auto same = [](const auto& x, const auto& y) {
    // memcmp's pointers must not be null, even for zero bytes.
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(),
                                     x.size() * sizeof(*x.data())) == 0);
  };
  return same(a.points, b.points) && same(a.normals, b.normals) &&
         same(a.scalars, b.scalars) && same(a.triangles, b.triangles);
}

// Contours `field` at `iso` both ways -- the whole grid, one cell layer per
// call as the catalyst pipeline does, and in uneven layer ranges -- and
// expects the reference's bytes each time; with `clip`, after clipping too.
void expect_same_contours(const UniformGrid& g, const std::string& field,
                          float iso, const std::string& color,
                          const char* what, bool clip = false) {
  const std::uint32_t layers = std::max<std::uint32_t>(g.dims[2], 2) - 1;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
      {0, g.dims[2]}, {0, 1}, {1, 4}, {layers / 2, layers}, {2, 3}};
  const Vec3 clip_origin = g.bounds().center();
  const Vec3 clip_normal{0.2f, 0.3f, 1.0f};
  for (const auto& [k0, k1] : ranges) {
    TriangleMesh want, got;
    reference::reference_layers(g, field, iso, color, k0, k1, want);
    isosurface_layers(g, field, iso, color, k0, k1, got);
    EXPECT_TRUE(same_mesh(got, want))
        << what << ", iso " << iso << ", layers " << k0 << "-" << k1;
    if (clip) {
      EXPECT_TRUE(same_mesh(clip_by_plane(got, clip_origin, clip_normal),
                            clip_by_plane(want, clip_origin, clip_normal)))
          << what << " clipped, iso " << iso << ", layers " << k0 << "-" << k1;
    }
  }
  for (std::uint32_t k = 0; k < layers; ++k) {
    TriangleMesh want, got;
    reference::reference_layers(g, field, iso, color, k, k + 1, want);
    isosurface_layers(g, field, iso, color, k, k + 1, got);
    EXPECT_TRUE(same_mesh(got, want))
        << what << ", iso " << iso << ", layer " << k;
  }
  TriangleMesh whole;
  reference::reference_layers(g, field, iso, color, 0, g.dims[2], whole);
  EXPECT_GT(whole.triangle_count(), 0u) << what << ", iso " << iso;
  EXPECT_TRUE(same_mesh(isosurface(g, field, iso, color), whole))
      << what << ", iso " << iso;
}

// The contour computes corner positions only for straddling cells and each
// point's gradient once per call; it emits the reference's points, normals,
// scalars and triangles byte for byte: on the Mandelbulb field, Gray-Scott
// levels with clipping, slices, and grids with NaN samples.
TEST(Isosurface, LeanerContourMatchesThePreChangeContour) {
  apps::MandelbulbParams mb;
  mb.nx = 16;
  mb.ny = 14;
  mb.nz = 12;
  mb.total_blocks = 4;
  for (const std::uint32_t id : {1u, 2u}) {
    const UniformGrid g = apps::mandelbulb_block(mb, id);
    expect_same_contours(g, "iterations", 6.0f, "iterations", "mandelbulb");
    expect_same_contours(g, "iterations", 6.0f, "", "mandelbulb uncolored");
  }

  apps::GrayScott::Params gp;
  gp.n = 20;
  gp.steps_per_iteration = 40;
  apps::GrayScott gs(gp, 0, 1);
  ASSERT_TRUE(gs.step(nullptr).ok());
  const UniformGrid gray = gs.block();
  for (const float level : {0.15f, 0.3f, 0.45f})
    expect_same_contours(gray, "v", level, "", "gray-scott", /*clip=*/true);
  {
    // Gray-Scott's levels cross only a little of its field early on; a
    // field over its whole range crosses all three everywhere.
    UniformGrid waves = gray;
    auto v = waves.point_data.find("v")->as_mutable<float>();
    for (std::uint32_t k = 0; k < waves.dims[2]; ++k)
      for (std::uint32_t j = 0; j < waves.dims[1]; ++j)
        for (std::uint32_t i = 0; i < waves.dims[0]; ++i) {
          const Vec3 p = waves.point(i, j, k);
          v[waves.point_index(i, j, k)] =
              0.25f + 0.25f * std::sin(0.7f * p.x) * std::cos(0.5f * p.y + 0.3f * p.z);
        }
    for (const float level : {0.15f, 0.3f, 0.45f})
      expect_same_contours(waves, "v", level, "u", "waves", /*clip=*/true);

    for (const Vec3 normal :
         {Vec3{1.0f, 0.3f, 0.2f}, Vec3{0, 0, 1}, Vec3{0.5f, -1, 0.25f}}) {
      const Vec3 origin = waves.bounds().center();
      const TriangleMesh want =
          reference::reference_slice(waves, "v", origin, normal);
      EXPECT_GT(want.triangle_count(), 0u);
      EXPECT_TRUE(same_mesh(slice(waves, "v", origin, normal), want))
          << "slice";
    }

    // NaN samples: a scattered few, and a whole row, next to the contour.
    UniformGrid holes = waves;
    auto hv = holes.point_data.find("v")->as_mutable<float>();
    auto hu = holes.point_data.find("u")->as_mutable<float>();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t p = 7; p < hv.size(); p += 97) hv[p] = nan;
    for (std::uint32_t i = 0; i < holes.dims[0]; ++i)
      hv[holes.point_index(i, 5, 6)] = nan;
    for (std::size_t p = 3; p < hu.size(); p += 53) hu[p] = nan;
    for (const float level : {0.15f, 0.3f, 0.45f})
      expect_same_contours(holes, "v", level, "u", "NaN samples",
                           /*clip=*/true);
  }
}

// isosurface()'s sink, for driving detail::contour_layers on either
// straddle-scan path: each triangle appended as three points with unit
// normals.
struct MeshSink {
  using Vertex = EdgeVertex;
  TriangleMesh& out;

  Vertex vertex(const EdgeVertex& v) const {
    return {v.pos, v.normal.normalized(), v.color};
  }
  void end_cell() {}
  void triangle(const Vertex& a, const Vertex& b, const Vertex& c) {
    const auto base = static_cast<std::uint32_t>(out.points.size());
    for (const Vertex* v : {&a, &b, &c}) {
      out.points.push_back(v->pos);
      out.normals.push_back(v->normal);
      out.scalars.push_back(v->color);
    }
    out.triangles.insert(out.triangles.end(), {base, base + 1, base + 2});
  }
};

// The straddle scan decides 8 cells of a row per step, the last step of a
// row masked to the cells left. On rows of 1 to 17 cells, which end on
// every tail length, with samples exactly at the isovalue, one ulp either
// side of it, and NaN: both scan paths give each cell's mask bit as the
// corners' own v > iso / v <= iso tests do, and contour every layer, and
// the whole grid, to the pre-change contour's bytes.
TEST(Isosurface, StraddleScanMatchesThePreChangeContour) {
  constexpr float kIso = 0.5f;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(12);
  auto sample = [&] {
    switch (rng.below(6)) {
      case 0: return kIso;
      case 1: return std::nextafter(kIso, 1.0f);
      case 2: return std::nextafter(kIso, 0.0f);
      case 3: return nan;
      default: return static_cast<float>(rng.uniform(-0.5, 1.5));
    }
  };
  std::vector<bool> paths{false};
  if (common::simd::avx2()) paths.push_back(true);
  std::size_t triangles = 0;  // in the whole grids, over both paths

  for (std::uint32_t cells = 1; cells <= 17; ++cells) {
    // The mask, lane by lane. Past each row's last point lies a sample that
    // would make a cell straddle, so a scan that reads beyond the row sets
    // a bit it must not.
    for (int trial = 0; trial < 64; ++trial) {
      std::array<std::vector<float>, 4> points;
      for (auto& row : points) {
        row.resize(cells + 1);
        for (float& v : row) v = sample();
        row.push_back(&row == &points[0] ? kIso - 1 : kIso + 1);
      }
      const detail::PointRows rows{points[0].data(), points[1].data(),
                                   points[2].data(), points[3].data()};
      for (std::uint32_t i0 = 0; i0 < cells; i0 += 8) {
        const int lanes = static_cast<int>(std::min(8u, cells - i0));
        unsigned want = 0;
        for (int l = 0; l < lanes; ++l) {
          const std::uint32_t i = i0 + static_cast<std::uint32_t>(l);
          bool above = false, below = false;
          for (const auto& row : points) {
            for (const float v : {row[i], row[i + 1]}) {
              above |= v > kIso;
              below |= v <= kIso;
            }
          }
          if (above && below) want |= 1u << l;
        }
        EXPECT_EQ(detail::straddle8_scalar(rows, i0, lanes, kIso), want)
            << cells << " cells, from " << i0 << ", trial " << trial;
#if defined(__x86_64__)
        if (common::simd::avx2()) {
          EXPECT_EQ(detail::straddle8_avx2(rows, i0, lanes, kIso), want)
              << cells << " cells, from " << i0 << ", trial " << trial;
        }
#endif
      }
    }

    // The contour: three cell layers of two rows each.
    for (int trial = 0; trial < 4; ++trial) {
      UniformGrid g;
      g.dims = {cells + 1, 3, 4};
      g.origin = {0.5f, -1.0f, 2.0f};
      g.spacing = {0.75f, 1.0f, 1.25f};
      std::vector<float> f(g.point_count()), color(g.point_count());
      for (float& v : f) v = sample();
      for (float& c : color) c = static_cast<float>(rng.uniform());
      g.point_data.add(DataArray::make<float>("f", f));
      g.point_data.add(DataArray::make<float>("c", color));
      const std::uint32_t layers = g.dims[2] - 1;
      for (const bool avx2 : paths) {
        for (std::uint32_t k = 0; k <= layers; ++k) {
          // k == layers stands for the whole grid.
          const std::uint32_t k0 = k == layers ? 0 : k;
          const std::uint32_t k1 = k == layers ? layers : k + 1;
          TriangleMesh want, got;
          reference::reference_layers(g, "f", kIso, "c", k0, k1, want);
          MeshSink sink{got};
          detail::contour_layers(g, "f", kIso, "c", k0, k1, sink, avx2);
          EXPECT_TRUE(same_mesh(got, want))
              << cells << " cells, trial " << trial << ", layers " << k0
              << "-" << k1 << ", avx2 " << avx2;
          if (k == layers) triangles += want.triangle_count();
        }
      }
    }
  }
  EXPECT_GT(triangles, 1000u);
}

// ------------------------------------------------------------------ clip

TEST(Clip, KeepsCorrectHalfSpace) {
  UniformGrid g = sphere_grid(17, {8, 8, 8});
  TriangleMesh m = isosurface(g, "dist", 5.0f);
  TriangleMesh clipped = clip_by_plane(m, {8, 8, 8}, {1, 0, 0});
  ASSERT_GT(clipped.triangle_count(), 0u);
  ASSERT_LT(clipped.triangle_count(), m.triangle_count() * 0.7);
  for (const Vec3& p : clipped.points) {
    EXPECT_LE(p.x, 8.0f + 1e-3f);
  }
}

TEST(Clip, PlaneMissingMeshKeepsEverything) {
  UniformGrid g = sphere_grid(9, {4, 4, 4});
  TriangleMesh m = isosurface(g, "dist", 2.0f);
  TriangleMesh clipped = clip_by_plane(m, {100, 0, 0}, {1, 0, 0});
  EXPECT_EQ(clipped.triangle_count(), m.triangle_count());
  TriangleMesh gone = clip_by_plane(m, {-100, 0, 0}, {1, 0, 0});
  EXPECT_EQ(gone.triangle_count(), 0u);
}

TEST(Clip, AreaApproximatelyHalved) {
  UniformGrid g = sphere_grid(21, {10, 10, 10});
  TriangleMesh m = isosurface(g, "dist", 6.0f);
  auto area = [](const TriangleMesh& mesh) {
    double a = 0;
    for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
      const Vec3 p0 = mesh.points[mesh.triangles[3 * t]];
      const Vec3 p1 = mesh.points[mesh.triangles[3 * t + 1]];
      const Vec3 p2 = mesh.points[mesh.triangles[3 * t + 2]];
      a += 0.5 * static_cast<double>((p1 - p0).cross(p2 - p0).norm());
    }
    return a;
  };
  TriangleMesh clipped = clip_by_plane(m, {10, 10, 10}, {0, 0, 1});
  EXPECT_NEAR(area(clipped), area(m) / 2, area(m) * 0.05);
}

// ------------------------------------------------------------- threshold

TEST(Threshold, SelectsCellsInRange) {
  UnstructuredGrid g;
  g.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  const std::uint32_t t1[] = {0, 1, 2, 3};
  const std::uint32_t t2[] = {1, 2, 3, 4};
  const std::uint32_t t3[] = {0, 2, 3, 4};
  g.add_cell(CellType::tetra, t1);
  g.add_cell(CellType::tetra, t2);
  g.add_cell(CellType::tetra, t3);
  g.cell_data.add(
      DataArray::make<float>("mass", std::vector<float>{1.0f, 5.0f, 9.0f}));
  UnstructuredGrid out = threshold(g, "mass", 2.0, 8.0);
  ASSERT_EQ(out.cell_count(), 1u);
  EXPECT_EQ(out.cell(0)[0], 1u);
  EXPECT_EQ(out.cell_data.find("mass")->as<float>()[0], 5.0f);
}

// ---------------------------------------------------------------- merge

TEST(Merge, MeshesConcatenateWithIndexFixup) {
  TriangleMesh a, b;
  a.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  a.triangles = {0, 1, 2};
  a.scalars = {1, 1, 1};
  a.normals = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1}};
  b.points = {{5, 0, 0}, {6, 0, 0}, {5, 1, 0}};
  b.triangles = {0, 1, 2};
  b.scalars = {2, 2, 2};
  b.normals = {{0, 0, 1}, {0, 0, 1}, {0, 0, 1}};
  const TriangleMesh meshes[] = {a, b};
  TriangleMesh m = merge_meshes(meshes);
  ASSERT_EQ(m.triangle_count(), 2u);
  EXPECT_EQ(m.triangles[3], 3u);
  EXPECT_EQ(m.points[4], (Vec3{6, 0, 0}));
  EXPECT_EQ(m.scalars[5], 2.0f);
}

TEST(Merge, GridsConcatenateCellsAndFields) {
  UnstructuredGrid a, b;
  a.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::uint32_t t[] = {0, 1, 2, 3};
  a.add_cell(CellType::tetra, t);
  a.cell_data.add(DataArray::make<float>("v", std::vector<float>{1.0f}));
  b.points = {{9, 0, 0}, {10, 0, 0}, {9, 1, 0}, {9, 0, 1}};
  b.add_cell(CellType::tetra, t);
  b.cell_data.add(DataArray::make<float>("v", std::vector<float>{2.0f}));
  const UnstructuredGrid grids[] = {a, b};
  UnstructuredGrid m = merge_grids(grids);
  ASSERT_EQ(m.cell_count(), 2u);
  EXPECT_EQ(m.points.size(), 8u);
  EXPECT_EQ(m.cell(1)[0], 4u);  // shifted by first block's point count
  const auto v = m.cell_data.find("v")->as<float>();
  EXPECT_EQ(v[0], 1.0f);
  EXPECT_EQ(v[1], 2.0f);
}

// -------------------------------------------------------------- resample

TEST(Resample, SplatsCellValuesOntoGrid) {
  UnstructuredGrid g;
  g.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::uint32_t t[] = {0, 1, 2, 3};
  g.add_cell(CellType::tetra, t);
  g.cell_data.add(DataArray::make<float>("v", std::vector<float>{8.0f}));
  Aabb bounds;
  bounds.extend({0, 0, 0});
  bounds.extend({1, 1, 1});
  UniformGrid img = resample_to_grid(g, "v", {4, 4, 4}, bounds);
  const auto vals = img.point_data.find("v")->as<float>();
  float sum = std::accumulate(vals.begin(), vals.end(), 0.0f);
  EXPECT_EQ(sum, 8.0f);  // single splat, value preserved
  EXPECT_EQ(img.point_count(), 64u);
}



// ------------------------------------------------------------------ slice

TEST(Slice, CrossSectionLiesOnPlane) {
  UniformGrid g = sphere_grid(13, {6, 6, 6});
  TriangleMesh m = slice(g, "dist", {6, 6, 6}, {0, 0, 1});
  ASSERT_GT(m.triangle_count(), 50u);
  for (const Vec3& p : m.points) EXPECT_NEAR(p.z, 6.0f, 1e-3f);
}

TEST(Slice, ScalarsInterpolateTheField) {
  UniformGrid g = sphere_grid(13, {6, 6, 6});
  TriangleMesh m = slice(g, "dist", {6, 6, 6}, {0, 0, 1});
  ASSERT_EQ(m.scalars.size(), m.points.size());
  // On the z=6 plane through the center, dist == distance in the plane.
  for (std::size_t i = 0; i < m.points.size(); ++i) {
    const float expect = (m.points[i] - Vec3{6, 6, 6}).norm();
    EXPECT_NEAR(m.scalars[i], expect, 0.3f) << i;
  }
}

TEST(Slice, PlaneOutsideGridIsEmpty) {
  UniformGrid g = sphere_grid(9, {4, 4, 4});
  EXPECT_EQ(slice(g, "dist", {100, 0, 0}, {1, 0, 0}).triangle_count(), 0u);
}

TEST(Slice, MissingFieldThrows) {
  UniformGrid g = sphere_grid(5, {2, 2, 2});
  EXPECT_THROW(slice(g, "nope", {2, 2, 2}, {1, 0, 0}), std::runtime_error);
}

// -------------------------------------------------------------- vtk writer

TEST(VtkWriter, UniformGridFile) {
  UniformGrid g = sphere_grid(4, {2, 2, 2});
  const std::string path = "/tmp/colza_vtk_ug.vtk";
  ASSERT_TRUE(write_legacy_vtk(path, g).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), "# vtk DataFile Version 3.0\n");
  std::string all;
  while (std::fgets(line, sizeof(line), f) != nullptr) all += line;
  std::fclose(f);
  EXPECT_NE(all.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(all.find("DIMENSIONS 4 4 4"), std::string::npos);
  EXPECT_NE(all.find("SCALARS dist float 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(VtkWriter, UnstructuredGridFile) {
  UnstructuredGrid g;
  g.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::uint32_t tet[] = {0, 1, 2, 3};
  g.add_cell(CellType::tetra, tet);
  g.cell_data.add(DataArray::make<float>("v", std::vector<float>{2.5f}));
  const std::string path = "/tmp/colza_vtk_unstructured.vtk";
  ASSERT_TRUE(write_legacy_vtk(path, g).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string all;
  char line[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) all += line;
  std::fclose(f);
  EXPECT_NE(all.find("DATASET UNSTRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(all.find("CELLS 1 5"), std::string::npos);
  EXPECT_NE(all.find("CELL_TYPES 1"), std::string::npos);
  EXPECT_NE(all.find("CELL_DATA 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(VtkWriter, TriangleMeshFile) {
  UniformGrid g = sphere_grid(9, {4, 4, 4});
  TriangleMesh m = isosurface(g, "dist", 2.5f);
  const std::string path = "/tmp/colza_vtk_mesh.vtk";
  ASSERT_TRUE(write_legacy_vtk(path, m).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string all;
  char line[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) all += line;
  std::fclose(f);
  EXPECT_NE(all.find("DATASET POLYDATA"), std::string::npos);
  EXPECT_NE(all.find("POLYGONS"), std::string::npos);
  std::remove(path.c_str());
}

TEST(VtkWriter, UnwritablePathFails) {
  UniformGrid g = sphere_grid(3, {1, 1, 1});
  EXPECT_FALSE(write_legacy_vtk("/no/such/dir/x.vtk", g).ok());
}

// /dev/full opens but takes no byte: every writer returns Internal instead of
// reporting the lost data as written.
TEST(VtkWriter, FullDeviceFails) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  ASSERT_NE(probe, nullptr) << "the write, not the open, must fail";
  std::fclose(probe);
  const UniformGrid g = sphere_grid(9, {4, 4, 4});
  UnstructuredGrid u;
  u.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::uint32_t tet[] = {0, 1, 2, 3};
  u.add_cell(CellType::tetra, tet);
  for (const Status& s : {write_legacy_vtk("/dev/full", g),
                          write_legacy_vtk("/dev/full", u),
                          write_legacy_vtk("/dev/full", isosurface(g, "dist", 2.5f))}) {
    EXPECT_EQ(s.code(), StatusCode::internal) << s.to_string();
    EXPECT_NE(s.to_string().find("cannot write"), std::string::npos)
        << s.to_string();
  }
}

}  // namespace
}  // namespace colza::vis
