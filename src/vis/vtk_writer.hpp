// Legacy-VTK ASCII writer: saves grids in the classic "# vtk DataFile
// Version 3.0" format that ParaView/VisIt open directly. Used by examples
// and by anyone who wants to inspect staged data offline (the real Colza
// workflow writes VTU; the legacy format keeps this repo dependency-free).
#pragma once

#include <string>

#include "common/status.hpp"
#include "vis/data.hpp"

namespace colza::vis {

// Each writer returns Internal when the file cannot be opened or any write
// to it fails (a full disk included).

// STRUCTURED_POINTS with every point field of the grid.
Status write_legacy_vtk(const std::string& path, const UniformGrid& grid);

// UNSTRUCTURED_GRID with points, cells, and cell fields.
Status write_legacy_vtk(const std::string& path, const UnstructuredGrid& grid);

// POLYDATA with the triangle surface and its point scalars.
Status write_legacy_vtk(const std::string& path, const TriangleMesh& mesh);

}  // namespace colza::vis
