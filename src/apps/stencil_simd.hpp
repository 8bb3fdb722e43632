// Shared Gray-Scott row kernels: one scalar and one AVX2 implementation of
// the 7-point reaction-diffusion update over a contiguous run of cells.
//
// Both the 2D (periodic) and 3D (halo-exchanged) solvers reduce their inner
// loop to this shape: the center row and its six neighbour rows are each
// contiguous in the fastest index, only the row base pointers differ. The
// callers handle wrap columns / ghost layout and hand the kernel plain
// pointers.
//
// Bit-identity contract (see common/simd.hpp): the AVX2 path evaluates the
// EXACT scalar operation tree per lane -- additions in the same left-to-
// right order, multiplications un-fused (target("avx2") does not enable FMA,
// so the compiler cannot contract them). A result differing in even one ulp
// from the scalar path is a bug; apps_test runs both kernels on the same
// rows, every tail length included, and compares their outputs bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace colza::apps::detail {

// Row base pointers for one contiguous run: center, -x, +x, -y, +y, -z, +z
// for both species, plus the output rows.
struct GsRow {
  const double* uc;
  const double* ul;
  const double* ur;
  const double* uym;
  const double* uyp;
  const double* uzm;
  const double* uzp;
  const double* vc;
  const double* vl;
  const double* vr;
  const double* vym;
  const double* vyp;
  const double* vzm;
  const double* vzp;
  double* u2;
  double* v2;

  [[nodiscard]] GsRow advanced(std::size_t i) const noexcept {
    return GsRow{uc + i,  ul + i,  ur + i,  uym + i, uyp + i, uzm + i,
                 uzp + i, vc + i,  vl + i,  vr + i,  vym + i, vyp + i,
                 vzm + i, vzp + i, u2 + i,  v2 + i};
  }
};

inline void gs_row_scalar(const GsRow& r, std::uint32_t count, double du,
                          double dv, double f, double k, double dt) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const double lap_u = r.ul[i] + r.ur[i] + r.uym[i] + r.uyp[i] + r.uzm[i] +
                         r.uzp[i] - 6.0 * r.uc[i];
    const double lap_v = r.vl[i] + r.vr[i] + r.vym[i] + r.vyp[i] + r.vzm[i] +
                         r.vzp[i] - 6.0 * r.vc[i];
    const double uvv = r.uc[i] * r.vc[i] * r.vc[i];
    r.u2[i] = r.uc[i] + dt * (du * lap_u - uvv + f * (1.0 - r.uc[i]));
    r.v2[i] = r.vc[i] + dt * (dv * lap_v + uvv - (f + k) * r.vc[i]);
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) inline void gs_row_avx2(const GsRow& r,
                                                        std::uint32_t count,
                                                        double du, double dv,
                                                        double f, double k,
                                                        double dt) {
  const __m256d vdu = _mm256_set1_pd(du);
  const __m256d vdv = _mm256_set1_pd(dv);
  const __m256d vf = _mm256_set1_pd(f);
  const __m256d vfk = _mm256_set1_pd(f + k);
  const __m256d vdt = _mm256_set1_pd(dt);
  const __m256d six = _mm256_set1_pd(6.0);
  const __m256d one = _mm256_set1_pd(1.0);
  std::uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d up = _mm256_loadu_pd(r.uc + i);
    const __m256d vp = _mm256_loadu_pd(r.vc + i);
    // lap = ((((l + r) + ym) + yp) + zm) + zp - 6*c, exactly as the scalar
    // expression associates.
    __m256d lap_u =
        _mm256_add_pd(_mm256_loadu_pd(r.ul + i), _mm256_loadu_pd(r.ur + i));
    lap_u = _mm256_add_pd(lap_u, _mm256_loadu_pd(r.uym + i));
    lap_u = _mm256_add_pd(lap_u, _mm256_loadu_pd(r.uyp + i));
    lap_u = _mm256_add_pd(lap_u, _mm256_loadu_pd(r.uzm + i));
    lap_u = _mm256_add_pd(lap_u, _mm256_loadu_pd(r.uzp + i));
    lap_u = _mm256_sub_pd(lap_u, _mm256_mul_pd(six, up));
    __m256d lap_v =
        _mm256_add_pd(_mm256_loadu_pd(r.vl + i), _mm256_loadu_pd(r.vr + i));
    lap_v = _mm256_add_pd(lap_v, _mm256_loadu_pd(r.vym + i));
    lap_v = _mm256_add_pd(lap_v, _mm256_loadu_pd(r.vyp + i));
    lap_v = _mm256_add_pd(lap_v, _mm256_loadu_pd(r.vzm + i));
    lap_v = _mm256_sub_pd(_mm256_add_pd(lap_v, _mm256_loadu_pd(r.vzp + i)),
                          _mm256_mul_pd(six, vp));
    const __m256d uvv = _mm256_mul_pd(_mm256_mul_pd(up, vp), vp);
    // u2 = u + dt * ((du*lap_u - uvv) + f*(1 - u))
    const __m256d tu =
        _mm256_add_pd(_mm256_sub_pd(_mm256_mul_pd(vdu, lap_u), uvv),
                      _mm256_mul_pd(vf, _mm256_sub_pd(one, up)));
    _mm256_storeu_pd(r.u2 + i, _mm256_add_pd(up, _mm256_mul_pd(vdt, tu)));
    // v2 = v + dt * ((dv*lap_v + uvv) - (f+k)*v)
    const __m256d tv =
        _mm256_sub_pd(_mm256_add_pd(_mm256_mul_pd(vdv, lap_v), uvv),
                      _mm256_mul_pd(vfk, vp));
    _mm256_storeu_pd(r.v2 + i, _mm256_add_pd(vp, _mm256_mul_pd(vdt, tv)));
  }
  if (i < count) gs_row_scalar(r.advanced(i), count - i, du, dv, f, k, dt);
}
#endif  // __x86_64__

inline void gs_row(const GsRow& r, std::uint32_t count, double du, double dv,
                   double f, double k, double dt) {
#if defined(__x86_64__)
  if (common::simd::avx2()) {
    gs_row_avx2(r, count, du, dv, f, k, dt);
    return;
  }
#endif
  gs_row_scalar(r, count, du, dv, f, k, dt);
}

}  // namespace colza::apps::detail
