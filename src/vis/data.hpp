// The visualization data model: typed named arrays, uniform grids,
// unstructured grids, and triangle meshes (the working set of the mini-VTK
// substrate). All types serialize through the common archive so simulation
// blocks can be staged to Colza servers as flat byte buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/archive.hpp"
#include "vis/math.hpp"

namespace colza::vis {

enum class DataType : std::uint8_t { f32, f64, i32, i64, u8 };

[[nodiscard]] constexpr std::size_t size_of(DataType t) noexcept {
  switch (t) {
    case DataType::f32: return 4;
    case DataType::f64: return 8;
    case DataType::i32: return 4;
    case DataType::i64: return 8;
    case DataType::u8: return 1;
  }
  return 0;
}

template <typename T>
constexpr DataType data_type_of() {
  if constexpr (std::is_same_v<T, float>) return DataType::f32;
  else if constexpr (std::is_same_v<T, double>) return DataType::f64;
  else if constexpr (std::is_same_v<T, std::int32_t>) return DataType::i32;
  else if constexpr (std::is_same_v<T, std::int64_t>) return DataType::i64;
  else if constexpr (std::is_same_v<T, std::uint8_t>) return DataType::u8;
  else static_assert(sizeof(T) == 0, "unsupported data type");
}

// A named, typed, multi-component array (vtkDataArray).
class DataArray {
 public:
  DataArray() = default;
  DataArray(std::string name, DataType type, std::uint32_t components = 1)
      : name_(std::move(name)), type_(type), components_(components) {}

  template <typename T>
  static DataArray make(std::string name, std::span<const T> values,
                        std::uint32_t components = 1) {
    DataArray a(std::move(name), data_type_of<T>(), components);
    const auto* src = reinterpret_cast<const std::byte*>(values.data());
    a.bytes_.assign(src, src + values.size_bytes());
    return a;
  }

  template <typename T>
  static DataArray make(std::string name, const std::vector<T>& values,
                        std::uint32_t components = 1) {
    return make<T>(std::move(name), std::span<const T>(values), components);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] DataType type() const noexcept { return type_; }
  [[nodiscard]] std::uint32_t components() const noexcept {
    return components_;
  }
  [[nodiscard]] std::size_t value_count() const noexcept {
    return bytes_.size() / size_of(type_);
  }
  [[nodiscard]] std::size_t tuple_count() const noexcept {
    return components_ == 0 ? 0 : value_count() / components_;
  }
  [[nodiscard]] std::size_t byte_size() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return bytes_;
  }

  template <typename T>
  [[nodiscard]] std::span<const T> as() const {
    if (data_type_of<T>() != type_)
      throw std::runtime_error("DataArray '" + name_ + "': type mismatch");
    return {reinterpret_cast<const T*>(bytes_.data()), value_count()};
  }

  template <typename T>
  [[nodiscard]] std::span<T> as_mutable() {
    if (data_type_of<T>() != type_)
      throw std::runtime_error("DataArray '" + name_ + "': type mismatch");
    return {reinterpret_cast<T*>(bytes_.data()), value_count()};
  }

  template <typename T>
  void resize(std::size_t values) {
    if (data_type_of<T>() != type_)
      throw std::runtime_error("DataArray '" + name_ + "': type mismatch");
    bytes_.resize(values * sizeof(T));
  }

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & name_ & type_ & components_ & bytes_;
  }

 private:
  std::string name_;
  DataType type_ = DataType::f32;
  std::uint32_t components_ = 1;
  std::vector<std::byte> bytes_;
};

// Collection of arrays attached to points or cells (vtkFieldData).
class FieldData {
 public:
  void add(DataArray array) { arrays_.push_back(std::move(array)); }
  [[nodiscard]] const DataArray* find(const std::string& name) const {
    for (const auto& a : arrays_) {
      if (a.name() == name) return &a;
    }
    return nullptr;
  }
  [[nodiscard]] DataArray* find(const std::string& name) {
    for (auto& a : arrays_) {
      if (a.name() == name) return &a;
    }
    return nullptr;
  }
  [[nodiscard]] std::size_t count() const noexcept { return arrays_.size(); }
  [[nodiscard]] const std::vector<DataArray>& arrays() const noexcept {
    return arrays_;
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    std::size_t n = 0;
    for (const auto& a : arrays_) n += a.byte_size();
    return n;
  }

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & arrays_;
  }

 private:
  std::vector<DataArray> arrays_;
};

// Regular grid (vtkImageData): dims are POINT counts per axis.
struct UniformGrid {
  std::array<std::uint32_t, 3> dims{2, 2, 2};
  Vec3 origin{0, 0, 0};
  Vec3 spacing{1, 1, 1};
  FieldData point_data;

  [[nodiscard]] std::size_t point_count() const noexcept {
    return static_cast<std::size_t>(dims[0]) * dims[1] * dims[2];
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    if (dims[0] < 2 || dims[1] < 2 || dims[2] < 2) return 0;
    return static_cast<std::size_t>(dims[0] - 1) * (dims[1] - 1) *
           (dims[2] - 1);
  }
  [[nodiscard]] std::size_t point_index(std::uint32_t i, std::uint32_t j,
                                        std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(k) * dims[0] * dims[1] +
           static_cast<std::size_t>(j) * dims[0] + i;
  }
  [[nodiscard]] Vec3 point(std::uint32_t i, std::uint32_t j,
                           std::uint32_t k) const noexcept {
    return {origin.x + spacing.x * static_cast<float>(i),
            origin.y + spacing.y * static_cast<float>(j),
            origin.z + spacing.z * static_cast<float>(k)};
  }
  [[nodiscard]] Aabb bounds() const noexcept {
    Aabb b;
    b.extend(origin);
    b.extend(point(dims[0] - 1, dims[1] - 1, dims[2] - 1));
    return b;
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return point_data.byte_size();
  }

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & dims[0] & dims[1] & dims[2] & origin & spacing & point_data;
  }
};

// VTK cell type subset used by this codebase.
enum class CellType : std::uint8_t { triangle = 5, tetra = 10, hexahedron = 12 };

[[nodiscard]] constexpr std::uint32_t vertex_count(CellType t) noexcept {
  switch (t) {
    case CellType::triangle: return 3;
    case CellType::tetra: return 4;
    case CellType::hexahedron: return 8;
  }
  return 0;
}

// Unstructured mesh (vtkUnstructuredGrid).
struct UnstructuredGrid {
  std::vector<Vec3> points;
  std::vector<std::uint32_t> connectivity;
  std::vector<std::uint32_t> offsets;  // offsets[i] = start of cell i; has
                                       // cell_count()+1 entries
  std::vector<CellType> types;
  FieldData point_data;
  FieldData cell_data;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return types.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> cell(std::size_t i) const {
    return {connectivity.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  void add_cell(CellType type, std::span<const std::uint32_t> verts) {
    if (offsets.empty()) offsets.push_back(0);
    connectivity.insert(connectivity.end(), verts.begin(), verts.end());
    offsets.push_back(static_cast<std::uint32_t>(connectivity.size()));
    types.push_back(type);
  }
  [[nodiscard]] Aabb bounds() const noexcept {
    Aabb b;
    for (const Vec3& p : points) b.extend(p);
    return b;
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return points.size() * sizeof(Vec3) +
           connectivity.size() * sizeof(std::uint32_t) +
           offsets.size() * sizeof(std::uint32_t) + types.size() +
           point_data.byte_size() + cell_data.byte_size();
  }

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & points & connectivity & offsets;
    if constexpr (Ar::is_output) {
      std::vector<std::uint8_t> t(types.size());
      for (std::size_t i = 0; i < types.size(); ++i)
        t[i] = static_cast<std::uint8_t>(types[i]);
      ar & t;
    } else {
      std::vector<std::uint8_t> t;
      ar & t;
      types.resize(t.size());
      for (std::size_t i = 0; i < t.size(); ++i)
        types[i] = static_cast<CellType>(t[i]);
    }
    ar & point_data & cell_data;
  }
};

// Lean triangle surface used as the output of contouring and the input of
// rasterization. `scalars` color the surface through a color map.
struct TriangleMesh {
  std::vector<Vec3> points;
  std::vector<Vec3> normals;          // per point (may be empty)
  std::vector<float> scalars;         // per point (may be empty)
  std::vector<std::uint32_t> triangles;  // 3 indices per triangle

  [[nodiscard]] std::size_t triangle_count() const noexcept {
    return triangles.size() / 3;
  }
  // Empties the mesh and keeps its capacity for the next fill.
  void clear() noexcept {
    points.clear();
    normals.clear();
    scalars.clear();
    triangles.clear();
  }
  [[nodiscard]] Aabb bounds() const noexcept {
    Aabb b;
    for (const Vec3& p : points) b.extend(p);
    return b;
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return points.size() * sizeof(Vec3) + normals.size() * sizeof(Vec3) +
           scalars.size() * sizeof(float) +
           triangles.size() * sizeof(std::uint32_t);
  }

  template <typename Ar>
  void serialize(Ar& ar) {
    ar & points & normals & scalars & triangles;
  }
};

// Any dataset that can be staged or filtered.
using DataSet = std::variant<UniformGrid, UnstructuredGrid, TriangleMesh>;

[[nodiscard]] std::vector<std::byte> serialize_dataset(const DataSet& ds);
[[nodiscard]] DataSet deserialize_dataset(std::span<const std::byte> bytes);
[[nodiscard]] std::size_t dataset_byte_size(const DataSet& ds);
[[nodiscard]] Aabb dataset_bounds(const DataSet& ds);

}  // namespace colza::vis
