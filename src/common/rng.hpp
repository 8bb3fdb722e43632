// Deterministic PRNG for the simulation: xoshiro256** seeded via splitmix64.
//
// Every component that needs randomness owns an Rng seeded from its context,
// so a fixed top-level seed reproduces the entire virtual timeline.
#pragma once

#include <array>
#include <cstdint>

namespace colza {

namespace common {

// One step of the splitmix64 generator: a cheap, well-spread 64-bit mix of
// `x`. It seeds Rng and derives the deterministic picks that need no stream
// of their own (chaos victims, corrupted bits, viewer churn coins).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace common

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    // splitmix64 expansion of the seed into the xoshiro state.
    for (auto& s : state_) {
      s = common::splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    while (true) {
      const std::uint64_t x = (*this)();
      const auto m = static_cast<unsigned __int128>(x) * n;
      const auto lo = static_cast<std::uint64_t>(m);
      if (lo >= n || lo >= (-n) % n) return static_cast<std::uint64_t>(m >> 64);
    }
  }

  // Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  // Derive an independent child generator (for per-process streams).
  Rng fork() noexcept { return Rng((*this)() ^ 0xa5a5a5a5deadbeefULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace colza
