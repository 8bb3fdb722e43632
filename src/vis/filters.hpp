// Visualization filters (the mini-VTK filter set used by the Catalyst-style
// pipelines):
//   * isosurface(): iso-contour of a scalar field on a uniform grid, via
//     marching tetrahedra (each hexahedral cell is split into 6 tetrahedra
//     around its main diagonal). Produces a triangle soup with gradient
//     normals and an interpolated color scalar; isosurface_layers() contours
//     a range of cell layers into a caller-owned mesh.
//   * clip_by_plane(): keeps the half-space dot(p - origin, normal) <= 0,
//     re-triangulating intersected triangles (the paper's Gray-Scott
//     pipeline combines isosurfaces with clipping, Fig 3a).
//   * threshold(): cell subset of an unstructured grid by cell-data range.
//   * merge_meshes()/merge_grids(): block merging (the DWI pipeline's first
//     stage, S III-A).
//   * resample_to_grid(): splat an unstructured grid's cell field onto a
//     uniform grid, used to volume-render unstructured data.
#pragma once

#include <span>
#include <string>

#include "vis/data.hpp"

namespace colza::vis {

[[nodiscard]] TriangleMesh isosurface(const UniformGrid& grid,
                                      const std::string& field, float isovalue,
                                      const std::string& color_field = "");

// isosurface() restricted to the cell layers k in [k_begin, k_end) (a cell
// layer spans point planes k and k + 1; k_end is clamped to the layer
// count), appended to `out`. Contouring layer by layer in increasing k emits
// exactly isosurface()'s triangles in its order, while holding only one
// layer's mesh at a time.
void isosurface_layers(const UniformGrid& grid, const std::string& field,
                       float isovalue, const std::string& color_field,
                       std::uint32_t k_begin, std::uint32_t k_end,
                       TriangleMesh& out);

[[nodiscard]] TriangleMesh clip_by_plane(const TriangleMesh& mesh, Vec3 origin,
                                         Vec3 normal);

// Plane cross-section of a uniform grid: a triangulated cut surface whose
// scalars are the interpolated values of `field` on the plane (implemented
// as the zero-isosurface of the plane's signed-distance function, reusing
// the tetrahedral mesher).
[[nodiscard]] TriangleMesh slice(const UniformGrid& grid,
                                 const std::string& field, Vec3 origin,
                                 Vec3 normal);

[[nodiscard]] UnstructuredGrid threshold(const UnstructuredGrid& grid,
                                         const std::string& cell_field,
                                         double lo, double hi);

[[nodiscard]] TriangleMesh merge_meshes(std::span<const TriangleMesh> meshes);

[[nodiscard]] UnstructuredGrid merge_grids(
    std::span<const UnstructuredGrid> grids);

[[nodiscard]] UniformGrid resample_to_grid(const UnstructuredGrid& grid,
                                           const std::string& cell_field,
                                           std::array<std::uint32_t, 3> dims,
                                           const Aabb& bounds);

}  // namespace colza::vis
