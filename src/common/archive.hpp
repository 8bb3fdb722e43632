// Byte-oriented serialization used by the RPC layer (Mercury equivalent).
//
// Supports arithmetic types and enums, std::string, std::vector<T>, fixed
// arrays, optional, pair/tuple-free simple aggregates via a user-provided
// `serialize(Ar&)` member (same archive for read and write, cereal-style).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace colza {

class OutArchive;
class InArchive;

template <typename T, typename Ar>
concept HasSerialize = requires(T t, Ar& ar) { t.serialize(ar); };

// ---------------------------------------------------------------------------
class OutArchive {
 public:
  static constexpr bool is_output = true;

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::byte> release() noexcept {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  template <typename T>
  OutArchive& operator&(const T& v) {
    save(v);
    return *this;
  }

  template <typename T>
  void save(const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      write_raw(&v, sizeof(T));
    } else if constexpr (HasSerialize<T&, OutArchive>) {
      // serialize() is logically const for output but declared non-const so
      // the same member works for input; cast is confined here.
      const_cast<T&>(v).serialize(*this);
    } else {
      static_assert(sizeof(T) == 0, "type is not serializable");
    }
  }

  void save(const std::string& s) {
    save(static_cast<std::uint64_t>(s.size()));
    write_raw(s.data(), s.size());
  }

  template <typename T>
  void save(const std::vector<T>& v) {
    save(static_cast<std::uint64_t>(v.size()));
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      write_raw(v.data(), v.size() * sizeof(T));
    } else {
      for (const auto& e : v) save(e);
    }
  }

  template <typename T>
  void save(const std::optional<T>& v) {
    save(static_cast<std::uint8_t>(v.has_value()));
    if (v) save(*v);
  }

  template <typename K, typename V>
  void save(const std::map<K, V>& m) {
    save(static_cast<std::uint64_t>(m.size()));
    for (const auto& [k, v] : m) {
      save(k);
      save(v);
    }
  }

  template <typename A, typename B>
  void save(const std::pair<A, B>& p) {
    save(p.first);
    save(p.second);
  }

 private:
  std::vector<std::byte> buffer_;
};

// ---------------------------------------------------------------------------
class InArchive {
 public:
  static constexpr bool is_output = false;

  explicit InArchive(std::span<const std::byte> bytes) : data_(bytes) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - cursor_;
  }

  void read_raw(void* out, std::size_t n) {
    if (n > remaining())
      throw std::runtime_error("InArchive: truncated input");
    if (n == 0) return;  // `out` may be null (an empty vector's data())
    std::memcpy(out, data_.data() + cursor_, n);
    cursor_ += n;
  }

  template <typename T>
  InArchive& operator&(T& v) {
    load(v);
    return *this;
  }

  template <typename T>
  void load(T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      read_raw(&v, sizeof(T));
    } else if constexpr (HasSerialize<T&, InArchive>) {
      v.serialize(*this);
    } else {
      static_assert(sizeof(T) == 0, "type is not deserializable");
    }
  }

  void load(std::string& s) {
    std::uint64_t n = 0;
    load(n);
    if (n > remaining()) throw std::runtime_error("InArchive: bad string size");
    s.resize(n);
    read_raw(s.data(), n);
  }

  template <typename T>
  void load(std::vector<T>& v) {
    std::uint64_t n = 0;
    load(n);
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      if (n * sizeof(T) > remaining())
        throw std::runtime_error("InArchive: bad vector size");
      v.resize(n);
      read_raw(v.data(), n * sizeof(T));
    } else {
      v.clear();
      v.reserve(std::min<std::uint64_t>(n, remaining()));
      for (std::uint64_t i = 0; i < n; ++i) {
        v.emplace_back();
        load(v.back());
      }
    }
  }

  template <typename T>
  void load(std::optional<T>& v) {
    std::uint8_t has = 0;
    load(has);
    if (has) {
      v.emplace();
      load(*v);
    } else {
      v.reset();
    }
  }

  template <typename K, typename V>
  void load(std::map<K, V>& m) {
    std::uint64_t n = 0;
    load(n);
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      load(k);
      load(v);
      m.emplace(std::move(k), std::move(v));
    }
  }

  template <typename A, typename B>
  void load(std::pair<A, B>& p) {
    load(p.first);
    load(p.second);
  }

 private:
  std::span<const std::byte> data_;
  std::size_t cursor_ = 0;
};

// Convenience: serialize a pack of values into a byte vector and back.
template <typename... Ts>
[[nodiscard]] std::vector<std::byte> pack(const Ts&... vs) {
  OutArchive ar;
  (ar.save(vs), ...);
  return ar.release();
}

template <typename... Ts>
void unpack(std::span<const std::byte> bytes, Ts&... vs) {
  InArchive ar(bytes);
  (ar.load(vs), ...);
}

}  // namespace colza
