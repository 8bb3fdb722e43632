#include "vis/filters.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "vis/contour.hpp"

namespace colza::vis {

namespace {

// Appends each contour triangle to a mesh as three new points, with unit
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
    for (const EdgeVertex* v : {&a, &b, &c}) {
      out.points.push_back(v->pos);
      out.normals.push_back(v->normal);
      out.scalars.push_back(v->color);
    }
    for (std::uint32_t i = 0; i < 3; ++i) out.triangles.push_back(base + i);
  }
};

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
  MeshSink sink{out};
  contour_layers(grid, field, isovalue, color_field, k_begin, k_end, sink);
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
