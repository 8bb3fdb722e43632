#include "vis/vtk_writer.hpp"

#include <cstdio>
#include <memory>
#include <utility>

namespace colza::vis {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

Expected<File> open(const std::string& path) {
  File f(std::fopen(path.c_str(), "w"));
  if (f == nullptr)
    return Status::Internal("cannot open '" + path + "' for writing");
  return f;
}

// Closes a written file: Internal if any write to it failed, or the flush
// that fclose does.
Status finish(File f, const std::string& path) {
  const bool failed = std::ferror(f.get()) != 0;
  if (std::fclose(f.release()) != 0 || failed)
    return Status::Internal("cannot write '" + path + "'");
  return Status::Ok();
}

void header(std::FILE* f, const char* dataset) {
  std::fprintf(f, "# vtk DataFile Version 3.0\n");
  std::fprintf(f, "colza reproduction output\n");
  std::fprintf(f, "ASCII\n");
  std::fprintf(f, "DATASET %s\n", dataset);
}

void write_float_field(std::FILE* f, const DataArray& a) {
  std::fprintf(f, "SCALARS %s float %u\n", a.name().c_str(), a.components());
  std::fprintf(f, "LOOKUP_TABLE default\n");
  for (float v : a.as<float>()) std::fprintf(f, "%g\n", static_cast<double>(v));
}

}  // namespace

Status write_legacy_vtk(const std::string& path, const UniformGrid& grid) {
  auto f = open(path);
  if (!f.has_value()) return f.status();
  header(f->get(), "STRUCTURED_POINTS");
  std::fprintf(f->get(), "DIMENSIONS %u %u %u\n", grid.dims[0], grid.dims[1],
               grid.dims[2]);
  std::fprintf(f->get(), "ORIGIN %g %g %g\n",
               static_cast<double>(grid.origin.x),
               static_cast<double>(grid.origin.y),
               static_cast<double>(grid.origin.z));
  std::fprintf(f->get(), "SPACING %g %g %g\n",
               static_cast<double>(grid.spacing.x),
               static_cast<double>(grid.spacing.y),
               static_cast<double>(grid.spacing.z));
  std::fprintf(f->get(), "POINT_DATA %zu\n", grid.point_count());
  for (const auto& a : grid.point_data.arrays()) {
    if (a.type() == DataType::f32) write_float_field(f->get(), a);
  }
  return finish(std::move(*f), path);
}

Status write_legacy_vtk(const std::string& path,
                        const UnstructuredGrid& grid) {
  auto f = open(path);
  if (!f.has_value()) return f.status();
  header(f->get(), "UNSTRUCTURED_GRID");
  std::fprintf(f->get(), "POINTS %zu float\n", grid.points.size());
  for (const Vec3& p : grid.points) {
    std::fprintf(f->get(), "%g %g %g\n", static_cast<double>(p.x),
                 static_cast<double>(p.y), static_cast<double>(p.z));
  }
  std::fprintf(f->get(), "CELLS %zu %zu\n", grid.cell_count(),
               grid.cell_count() + grid.connectivity.size());
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    auto cell = grid.cell(c);
    std::fprintf(f->get(), "%zu", cell.size());
    for (std::uint32_t idx : cell) std::fprintf(f->get(), " %u", idx);
    std::fprintf(f->get(), "\n");
  }
  std::fprintf(f->get(), "CELL_TYPES %zu\n", grid.cell_count());
  for (CellType t : grid.types) {
    std::fprintf(f->get(), "%u\n", static_cast<unsigned>(t));
  }
  if (grid.cell_data.count() > 0) {
    std::fprintf(f->get(), "CELL_DATA %zu\n", grid.cell_count());
    for (const auto& a : grid.cell_data.arrays()) {
      if (a.type() == DataType::f32) write_float_field(f->get(), a);
    }
  }
  return finish(std::move(*f), path);
}

Status write_legacy_vtk(const std::string& path, const TriangleMesh& mesh) {
  auto f = open(path);
  if (!f.has_value()) return f.status();
  header(f->get(), "POLYDATA");
  std::fprintf(f->get(), "POINTS %zu float\n", mesh.points.size());
  for (const Vec3& p : mesh.points) {
    std::fprintf(f->get(), "%g %g %g\n", static_cast<double>(p.x),
                 static_cast<double>(p.y), static_cast<double>(p.z));
  }
  std::fprintf(f->get(), "POLYGONS %zu %zu\n", mesh.triangle_count(),
               mesh.triangle_count() * 4);
  for (std::size_t t = 0; t < mesh.triangle_count(); ++t) {
    std::fprintf(f->get(), "3 %u %u %u\n", mesh.triangles[3 * t],
                 mesh.triangles[3 * t + 1], mesh.triangles[3 * t + 2]);
  }
  if (!mesh.scalars.empty()) {
    std::fprintf(f->get(), "POINT_DATA %zu\n", mesh.points.size());
    std::fprintf(f->get(), "SCALARS scalar float 1\nLOOKUP_TABLE default\n");
    for (float v : mesh.scalars)
      std::fprintf(f->get(), "%g\n", static_cast<double>(v));
  }
  return finish(std::move(*f), path);
}

}  // namespace colza::vis
