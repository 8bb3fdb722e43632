// A byte vector whose growth does not zero-fill.
//
// std::vector<std::byte>::resize(n) value-initializes the new bytes, i.e.
// writes zeros that a landing buffer (an RDMA pull's destination, an archive
// load) overwrites at once. On a 2 MiB pull that fill costs about as much as
// a fifth of the copy, and it leaves every line dirty in the caller's cache
// for the worker pool's threads to pull across. Bytes is the same vector
// with an allocator whose construct(p) default-initializes: for std::byte
// that leaves the storage as it is. Everything else -- copies, insert,
// construction from a value -- behaves as std::vector<std::byte>, and a
// Bytes serializes to the same wire bytes (common/archive.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace colza::common {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  // What resize() calls for each new element: no initializer, so a
  // std::byte keeps what the storage held. Construction from a value
  // (copies, insert) matches no overload here, and std::allocator_traits
  // falls back to std::construct_at.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

using Bytes = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

}  // namespace colza::common
