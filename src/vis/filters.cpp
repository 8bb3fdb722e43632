#include "vis/filters.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace colza::vis {

namespace {

// ---------------------------------------------------------------------------
// Marching tetrahedra

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

}  // namespace

TriangleMesh isosurface(const UniformGrid& grid, const std::string& field,
                        float isovalue, const std::string& color_field) {
  TriangleMesh out;
  isosurface_layers(grid, field, isovalue, color_field, 0, grid.dims[2], out);
  return out;
}

void isosurface_layers(const UniformGrid& grid, const std::string& field,
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

TriangleMesh slice(const UniformGrid& grid, const std::string& field,
                   Vec3 origin, Vec3 normal) {
  if (grid.point_data.find(field) == nullptr)
    throw std::runtime_error("slice: no point field '" + field + "'");
  const Vec3 n = normal.normalized();
  // Signed distance to the plane at every grid point; its zero level set is
  // the cut surface, colored by `field`.
  UniformGrid tmp = grid;
  std::vector<float> dist(grid.point_count());
  for (std::uint32_t k = 0; k < grid.dims[2]; ++k) {
    for (std::uint32_t j = 0; j < grid.dims[1]; ++j) {
      for (std::uint32_t i = 0; i < grid.dims[0]; ++i) {
        dist[grid.point_index(i, j, k)] = (grid.point(i, j, k) - origin).dot(n);
      }
    }
  }
  tmp.point_data.add(DataArray::make<float>("__plane_dist", dist));
  return isosurface(tmp, "__plane_dist", 0.0f, field);
}

// ---------------------------------------------------------------------------
// Clip

TriangleMesh clip_by_plane(const TriangleMesh& mesh, Vec3 origin,
                           Vec3 normal) {
  const Vec3 n = normal.normalized();
  TriangleMesh out;

  struct V {
    Vec3 pos, normal;
    float scalar, dist;
  };

  auto vertex = [&](std::uint32_t idx) {
    V v;
    v.pos = mesh.points[idx];
    v.normal = idx < mesh.normals.size() ? mesh.normals[idx] : Vec3{0, 0, 1};
    v.scalar = idx < mesh.scalars.size() ? mesh.scalars[idx] : 0.0f;
    v.dist = (v.pos - origin).dot(n);
    return v;
  };

  auto cut = [&](const V& a, const V& b) {
    const float t = a.dist / (a.dist - b.dist);
    V v;
    v.pos = lerp(a.pos, b.pos, t);
    v.normal = lerp(a.normal, b.normal, t).normalized();
    v.scalar = a.scalar + (b.scalar - a.scalar) * t;
    v.dist = 0;
    return v;
  };

  auto push = [&](const V& a, const V& b, const V& c) {
    const auto base = static_cast<std::uint32_t>(out.points.size());
    for (const V* v : {&a, &b, &c}) {
      out.points.push_back(v->pos);
      out.normals.push_back(v->normal);
      out.scalars.push_back(v->scalar);
    }
    out.triangles.insert(out.triangles.end(), {base, base + 1, base + 2});
  };

  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    std::array<V, 3> v{vertex(mesh.triangles[3 * t]),
                       vertex(mesh.triangles[3 * t + 1]),
                       vertex(mesh.triangles[3 * t + 2])};
    // Keep the dist <= 0 side.
    std::array<bool, 3> keep{v[0].dist <= 0, v[1].dist <= 0, v[2].dist <= 0};
    const int kept = static_cast<int>(keep[0]) + keep[1] + keep[2];
    if (kept == 0) continue;
    if (kept == 3) {
      push(v[0], v[1], v[2]);
      continue;
    }
    // Rotate so the odd vertex is v[0].
    auto rotate_to_front = [&](int idx) {
      std::rotate(v.begin(), v.begin() + idx, v.end());
    };
    if (kept == 1) {
      if (keep[1]) rotate_to_front(1);
      else if (keep[2]) rotate_to_front(2);
      const V a = cut(v[0], v[1]);
      const V b = cut(v[0], v[2]);
      push(v[0], a, b);
    } else {  // kept == 2: the discarded vertex goes to front
      if (!keep[1]) rotate_to_front(1);
      else if (!keep[2]) rotate_to_front(2);
      const V a = cut(v[0], v[1]);
      const V b = cut(v[0], v[2]);
      push(a, v[1], v[2]);
      push(a, v[2], b);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Threshold

UnstructuredGrid threshold(const UnstructuredGrid& grid,
                           const std::string& cell_field, double lo,
                           double hi) {
  const DataArray* arr = grid.cell_data.find(cell_field);
  if (arr == nullptr)
    throw std::runtime_error("threshold: no cell field '" + cell_field + "'");
  const auto values = arr->as<float>();
  if (values.size() != grid.cell_count())
    throw std::runtime_error("threshold: field size != cell count");

  UnstructuredGrid out;
  out.points = grid.points;  // keep all points; compact cells only
  out.point_data = grid.point_data;
  std::vector<float> kept_values;
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const float v = values[c];
    if (v < lo || v > hi) continue;
    out.add_cell(grid.types[c], grid.cell(c));
    kept_values.push_back(v);
  }
  out.cell_data.add(DataArray::make<float>(cell_field, kept_values));
  return out;
}

// ---------------------------------------------------------------------------
// Merging

TriangleMesh merge_meshes(std::span<const TriangleMesh> meshes) {
  TriangleMesh out;
  for (const TriangleMesh& m : meshes) {
    const auto base = static_cast<std::uint32_t>(out.points.size());
    out.points.insert(out.points.end(), m.points.begin(), m.points.end());
    out.normals.insert(out.normals.end(), m.normals.begin(), m.normals.end());
    out.scalars.insert(out.scalars.end(), m.scalars.begin(), m.scalars.end());
    for (std::uint32_t idx : m.triangles) out.triangles.push_back(base + idx);
  }
  return out;
}

UnstructuredGrid merge_grids(std::span<const UnstructuredGrid> grids) {
  UnstructuredGrid out;
  // Merge cell arrays that exist in every block; concatenate values.
  std::vector<std::vector<float>> merged_cell_fields;
  std::vector<std::string> field_names;
  if (!grids.empty()) {
    for (const auto& a : grids.front().cell_data.arrays()) {
      field_names.push_back(a.name());
      merged_cell_fields.emplace_back();
    }
  }
  for (const UnstructuredGrid& g : grids) {
    const auto base = static_cast<std::uint32_t>(out.points.size());
    out.points.insert(out.points.end(), g.points.begin(), g.points.end());
    for (std::size_t c = 0; c < g.cell_count(); ++c) {
      auto cell = g.cell(c);
      std::vector<std::uint32_t> shifted(cell.begin(), cell.end());
      for (auto& idx : shifted) idx += base;
      out.add_cell(g.types[c], shifted);
    }
    for (std::size_t f = 0; f < field_names.size(); ++f) {
      const DataArray* a = g.cell_data.find(field_names[f]);
      if (a == nullptr) continue;
      const auto vals = a->as<float>();
      merged_cell_fields[f].insert(merged_cell_fields[f].end(), vals.begin(),
                                   vals.end());
    }
  }
  for (std::size_t f = 0; f < field_names.size(); ++f) {
    out.cell_data.add(
        DataArray::make<float>(field_names[f], merged_cell_fields[f]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Resampling (unstructured -> uniform, for volume rendering)

UniformGrid resample_to_grid(const UnstructuredGrid& grid,
                             const std::string& cell_field,
                             std::array<std::uint32_t, 3> dims,
                             const Aabb& bounds) {
  const DataArray* arr = grid.cell_data.find(cell_field);
  if (arr == nullptr)
    throw std::runtime_error("resample: no cell field '" + cell_field + "'");
  const auto values = arr->as<float>();

  UniformGrid out;
  out.dims = dims;
  out.origin = bounds.lo;
  const Vec3 ext = bounds.extent();
  out.spacing = {ext.x / static_cast<float>(dims[0] - 1),
                 ext.y / static_cast<float>(dims[1] - 1),
                 ext.z / static_cast<float>(dims[2] - 1)};

  std::vector<float> acc(out.point_count(), 0.0f);
  std::vector<float> weight(out.point_count(), 0.0f);

  // Splat each cell's value at its centroid onto the nearest grid point.
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    auto cell = grid.cell(c);
    Vec3 centroid{};
    for (std::uint32_t idx : cell) centroid += grid.points[idx];
    centroid = centroid / static_cast<float>(cell.size());
    const auto gi = static_cast<std::int64_t>(
        std::lround((centroid.x - out.origin.x) / out.spacing.x));
    const auto gj = static_cast<std::int64_t>(
        std::lround((centroid.y - out.origin.y) / out.spacing.y));
    const auto gk = static_cast<std::int64_t>(
        std::lround((centroid.z - out.origin.z) / out.spacing.z));
    if (gi < 0 || gj < 0 || gk < 0 || gi >= dims[0] || gj >= dims[1] ||
        gk >= dims[2])
      continue;
    const std::size_t p =
        out.point_index(static_cast<std::uint32_t>(gi),
                        static_cast<std::uint32_t>(gj),
                        static_cast<std::uint32_t>(gk));
    acc[p] += values[c];
    weight[p] += 1.0f;
  }
  for (std::size_t p = 0; p < acc.size(); ++p) {
    if (weight[p] > 0) acc[p] /= weight[p];
  }
  out.point_data.add(DataArray::make<float>(cell_field, acc));
  return out;
}

}  // namespace colza::vis
