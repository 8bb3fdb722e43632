// Runtime SIMD dispatch.
//
// Kernels that have a vector path (icet run-length encoding, Gray-Scott
// stencils, the rasterizer's pixel-coverage test) ship both an AVX2 and a
// scalar implementation and take the AVX2 one whenever the CPU has it. The choice never affects results: every vector
// path is required to evaluate the exact scalar operation tree per lane (same
// association order, no FMA contraction -- the AVX2 functions are compiled
// with target("avx2") only, which cannot emit fused multiply-adds), so images
// and timelines are bit-identical either way. The tests call both paths
// directly and compare their outputs bit for bit.
//
// Kernels dominated by libm transcendentals (the Mandelbulb distance
// estimator: pow/acos/atan2) stay scalar by policy -- a vector math library
// would change ulps and break render-hash determinism.
#pragma once

namespace colza::common::simd {

// True when the CPU supports AVX2 (probed once, then cached).
inline bool avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

}  // namespace colza::common::simd
