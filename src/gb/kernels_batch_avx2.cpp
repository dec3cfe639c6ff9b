// kernels_batch_avx2.cpp -- 4-wide AVX2+FMA row kernels for the batched
// GB engine. This TU is the only one compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); everything else reaches it through the
// raw-pointer functions in kernels_batch_simd.h, and the dispatcher
// only calls them after __builtin_cpu_supports confirms the ISA.
//
// The approximate-math vector routines reimplement util/fastmath.h
// *operation for operation*: every lane performs the same bit tricks,
// Newton steps and polynomial the scalar functions do, so per-element
// results agree with the scalar engine to the last few ulps and the
// only systematic difference between engines is the 4-way summation
// order (verified < 1e-10 relative by tests/kernels_batch_test).
#include "src/gb/kernels_batch_simd.h"

#ifdef OCTGB_SIMD_AVX2

#include <immintrin.h>

#include <cmath>

#include "src/gb/kernel_primitives.h"

namespace octgb::gb::simd {

namespace {

// All-ones in the first `n` (1..3) lanes, for maskload-based remainder
// passes. Rows here are typically one leaf (~8 elements), so pushing
// the remainder through the vector unit instead of a scalar loop is
// worth real time -- inactive lanes are loaded as 0 and blended to
// benign operands so they contribute exactly 0 to the accumulator.
inline __m256i tail_mask(std::uint32_t n) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(n)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

// util::fast_rsqrt, lane-vectorized: magic-constant seed + one Newton
// step (y <- y * (1.5 - 0.5 x y^2)).
inline __m256d fast_rsqrt_pd(__m256d x) {
  const __m256d half_x = _mm256_mul_pd(_mm256_set1_pd(0.5), x);
  __m256i i = _mm256_castpd_si256(x);
  i = _mm256_sub_epi64(_mm256_set1_epi64x(0x5fe6eb50c7b537a9LL),
                       _mm256_srli_epi64(i, 1));
  const __m256d y = _mm256_castsi256_pd(i);
  const __m256d yy = _mm256_mul_pd(y, y);
  return _mm256_mul_pd(
      y, _mm256_fnmadd_pd(half_x, yy, _mm256_set1_pd(1.5)));
}

// util::fast_exp, lane-vectorized: x = k ln2 + r split with a
// truncating-cast k (cvttpd mirrors the scalar static_cast), 4th-order
// polynomial for e^r, exponent field built with integer shifts.
inline __m256d fast_exp_pd(__m256d x) {
  const __m256d underflow =
      _mm256_cmp_pd(x, _mm256_set1_pd(-700.0), _CMP_LT_OQ);
  x = _mm256_min_pd(x, _mm256_set1_pd(700.0));
  const __m256d t = _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634));
  const __m256d half = _mm256_blendv_pd(
      _mm256_set1_pd(-0.5), _mm256_set1_pd(0.5),
      _mm256_cmp_pd(t, _mm256_setzero_pd(), _CMP_GE_OQ));
  const __m256d kd = _mm256_round_pd(
      _mm256_add_pd(t, half), _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d r =
      _mm256_fnmadd_pd(kd, _mm256_set1_pd(0.6931471805598953), x);
  __m256d p = _mm256_fmadd_pd(r, _mm256_set1_pd(0.041666666666666664),
                              _mm256_set1_pd(0.16666666666666666));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(1.0));
  const __m256i k64 = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(kd));
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  const __m256d result = _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
  return _mm256_andnot_pd(underflow, result);
}

// exp for the ExactMath policy: there is no correctly-rounded vector
// libm here, so spill the 4 arguments and call std::exp per lane. The
// surrounding arithmetic stays vectorized; only this call is scalar.
inline __m256d exact_exp_pd(__m256d x) {
  alignas(32) double a[4];
  _mm256_store_pd(a, x);
  for (double& v : a) v = std::exp(v);  // lint:allow(fastmath) ExactMath lane spill, must match libm
  return _mm256_load_pd(a);
}

inline __m256d exact_rsqrt_pd(__m256d x) {
  return _mm256_div_pd(_mm256_set1_pd(1.0), _mm256_sqrt_pd(x));
}

// f_GB vector core: qu * qv * rsqrt(r2 + rr * exp(-r2 / (4 rr))).
template <bool kApprox>
inline __m256d fgb_pd(__m256d quqv, __m256d r2, __m256d rr) {
  const __m256d arg = _mm256_div_pd(
      _mm256_sub_pd(_mm256_setzero_pd(), r2),
      _mm256_mul_pd(_mm256_set1_pd(4.0), rr));
  const __m256d e = kApprox ? fast_exp_pd(arg) : exact_exp_pd(arg);
  const __m256d f2 = _mm256_fmadd_pd(rr, e, r2);
  return _mm256_mul_pd(quqv,
                       kApprox ? fast_rsqrt_pd(f2) : exact_rsqrt_pd(f2));
}

template <bool kApprox>
double epol_row_impl(const double* ux, const double* uy, const double* uz,
                     const double* uq, const double* uborn,
                     std::uint32_t ub, std::uint32_t ue, double px,
                     double py, double pz, double qv, double rv) {
  const __m256d pxv = _mm256_set1_pd(px);
  const __m256d pyv = _mm256_set1_pd(py);
  const __m256d pzv = _mm256_set1_pd(pz);
  const __m256d qvv = _mm256_set1_pd(qv);
  const __m256d rvv = _mm256_set1_pd(rv);
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t i = ub;
  for (; i + 4 <= ue; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(ux + i), pxv);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(uy + i), pyv);
    const __m256d dz = _mm256_sub_pd(_mm256_loadu_pd(uz + i), pzv);
    const __m256d r2 = _mm256_fmadd_pd(
        dx, dx, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dz, dz)));
    const __m256d rr = _mm256_mul_pd(_mm256_loadu_pd(uborn + i), rvv);
    const __m256d quqv = _mm256_mul_pd(_mm256_loadu_pd(uq + i), qvv);
    acc = _mm256_add_pd(acc, fgb_pd<kApprox>(quqv, r2, rr));
  }
  if (i < ue) {
    const __m256i m = tail_mask(ue - i);
    const __m256d md = _mm256_castsi256_pd(m);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d dx = _mm256_sub_pd(_mm256_maskload_pd(ux + i, m), pxv);
    const __m256d dy = _mm256_sub_pd(_mm256_maskload_pd(uy + i, m), pyv);
    const __m256d dz = _mm256_sub_pd(_mm256_maskload_pd(uz + i, m), pzv);
    __m256d r2 = _mm256_fmadd_pd(
        dx, dx, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dz, dz)));
    __m256d rr = _mm256_mul_pd(_mm256_maskload_pd(uborn + i, m), rvv);
    // Inactive lanes get (r2, rr) = (1, 1) so fgb stays finite; their
    // quqv is 0 from the masked load, so they contribute exactly 0.
    r2 = _mm256_blendv_pd(one, r2, md);
    rr = _mm256_blendv_pd(one, rr, md);
    const __m256d quqv =
        _mm256_mul_pd(_mm256_maskload_pd(uq + i, m), qvv);
    acc = _mm256_add_pd(acc, fgb_pd<kApprox>(quqv, r2, rr));
  }
  return hsum(acc);
}

template <bool kApprox>
double epol_near_block_impl(const double* ux, const double* uy,
                            const double* uz, const double* uq,
                            const double* uborn, std::uint32_t ub,
                            std::uint32_t ue, std::uint32_t vb,
                            std::uint32_t ve, bool diagonal) {
  double acc = 0.0;
  for (std::uint32_t vi = vb; vi < ve; ++vi) {
    const double qv = uq[vi];
    const double rv = uborn[vi];
    if (diagonal) {
      acc += epol_row_impl<kApprox>(ux, uy, uz, uq, uborn, ub, vi,
                                    ux[vi], uy[vi], uz[vi], qv, rv);
      acc += fgb_self_term(qv, rv);
      acc += epol_row_impl<kApprox>(ux, uy, uz, uq, uborn, vi + 1, ue,
                                    ux[vi], uy[vi], uz[vi], qv, rv);
    } else {
      acc += epol_row_impl<kApprox>(ux, uy, uz, uq, uborn, ub, ue,
                                    ux[vi], uy[vi], uz[vi], qv, rv);
    }
  }
  return acc;
}

template <bool kApprox>
double epol_far_row_impl(const double* qv, const double* rv,
                         std::uint32_t n, double qu, double ru, double d2) {
  const __m256d quv = _mm256_set1_pd(qu);
  const __m256d ruv = _mm256_set1_pd(ru);
  const __m256d d2v = _mm256_set1_pd(d2);
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d rr = _mm256_mul_pd(ruv, _mm256_loadu_pd(rv + j));
    const __m256d quqv = _mm256_mul_pd(quv, _mm256_loadu_pd(qv + j));
    acc = _mm256_add_pd(acc, fgb_pd<kApprox>(quqv, d2v, rr));
  }
  if (j < n) {
    const __m256i m = tail_mask(n - j);
    const __m256d md = _mm256_castsi256_pd(m);
    __m256d rr = _mm256_mul_pd(ruv, _mm256_maskload_pd(rv + j, m));
    rr = _mm256_blendv_pd(_mm256_set1_pd(1.0), rr, md);
    const __m256d quqv =
        _mm256_mul_pd(quv, _mm256_maskload_pd(qv + j, m));
    acc = _mm256_add_pd(acc, fgb_pd<kApprox>(quqv, d2v, rr));
  }
  return hsum(acc);
}

}  // namespace

double born_row_avx2(const double* qx, const double* qy, const double* qz,
                     const double* nx, const double* ny, const double* nz,
                     const double* w, std::uint32_t qb, std::uint32_t qe,
                     double x, double y, double z) {
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d yv = _mm256_set1_pd(y);
  const __m256d zv = _mm256_set1_pd(z);
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t qi = qb;
  for (; qi + 4 <= qe; qi += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(qx + qi), xv);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(qy + qi), yv);
    const __m256d dz = _mm256_sub_pd(_mm256_loadu_pd(qz + qi), zv);
    const __m256d r2 = _mm256_fmadd_pd(
        dx, dx, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dz, dz)));
    const __m256d dot = _mm256_fmadd_pd(
        dx, _mm256_loadu_pd(nx + qi),
        _mm256_fmadd_pd(dy, _mm256_loadu_pd(ny + qi),
                        _mm256_mul_pd(dz, _mm256_loadu_pd(nz + qi))));
    const __m256d inv =
        _mm256_div_pd(one, _mm256_mul_pd(_mm256_mul_pd(r2, r2), r2));
    acc = _mm256_fmadd_pd(
        _mm256_mul_pd(_mm256_loadu_pd(w + qi), dot), inv, acc);
  }
  if (qi < qe) {
    const __m256i m = tail_mask(qe - qi);
    const __m256d md = _mm256_castsi256_pd(m);
    const __m256d dx = _mm256_sub_pd(_mm256_maskload_pd(qx + qi, m), xv);
    const __m256d dy = _mm256_sub_pd(_mm256_maskload_pd(qy + qi, m), yv);
    const __m256d dz = _mm256_sub_pd(_mm256_maskload_pd(qz + qi, m), zv);
    __m256d r2 = _mm256_fmadd_pd(
        dx, dx, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dz, dz)));
    // Inactive lanes: r2 = 1 keeps inv finite; w = 0 from the masked
    // load zeroes their contribution.
    r2 = _mm256_blendv_pd(one, r2, md);
    const __m256d dot = _mm256_fmadd_pd(
        dx, _mm256_maskload_pd(nx + qi, m),
        _mm256_fmadd_pd(dy, _mm256_maskload_pd(ny + qi, m),
                        _mm256_mul_pd(dz, _mm256_maskload_pd(nz + qi, m))));
    const __m256d inv =
        _mm256_div_pd(one, _mm256_mul_pd(_mm256_mul_pd(r2, r2), r2));
    acc = _mm256_fmadd_pd(
        _mm256_mul_pd(_mm256_maskload_pd(w + qi, m), dot), inv, acc);
  }
  return hsum(acc);
}

std::uint32_t born_far_run_avx2(const std::uint32_t* pairs,
                                std::uint32_t n, const double* acx,
                                const double* acy, const double* acz,
                                double qcx, double qcy, double qcz,
                                double qwx, double qwy, double qwz,
                                double* node_s, bool atomic) {
  // Every float op below is an explicit mul/add/div intrinsic in the
  // same association order as far_deposit's scalar expression -- no
  // FMA, so each lane's deposit is bit-identical to the scalar engine's
  // and only the (per-target) deposit *order* matters. Targets within
  // a run are unique (the traversal visits each atom node once per
  // q-leaf), so the in-order lane scatter cannot alias.
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d qx = _mm256_set1_pd(qcx);
  const __m256d qy = _mm256_set1_pd(qcy);
  const __m256d qz = _mm256_set1_pd(qcz);
  const __m256d wx = _mm256_set1_pd(qwx);
  const __m256d wy = _mm256_set1_pd(qwy);
  const __m256d wz = _mm256_set1_pd(qwz);
  alignas(32) double terms[4];
  const std::uint32_t quads = n & ~3u;
  for (std::uint32_t i = 0; i < quads; i += 4) {
    const std::uint32_t t0 = pairs[2 * i + 0];
    const std::uint32_t t1 = pairs[2 * i + 2];
    const std::uint32_t t2 = pairs[2 * i + 4];
    const std::uint32_t t3 = pairs[2 * i + 6];
    const __m256d dx = _mm256_sub_pd(
        qx, _mm256_setr_pd(acx[t0], acx[t1], acx[t2], acx[t3]));
    const __m256d dy = _mm256_sub_pd(
        qy, _mm256_setr_pd(acy[t0], acy[t1], acy[t2], acy[t3]));
    const __m256d dz = _mm256_sub_pd(
        qz, _mm256_setr_pd(acz[t0], acz[t1], acz[t2], acz[t3]));
    const __m256d d2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
        _mm256_mul_pd(dz, dz));
    const __m256d dot = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(wx, dx), _mm256_mul_pd(wy, dy)),
        _mm256_mul_pd(wz, dz));
    const __m256d inv = _mm256_div_pd(
        one, _mm256_mul_pd(_mm256_mul_pd(d2, d2), d2));
    _mm256_store_pd(terms, _mm256_mul_pd(dot, inv));
    kernel_add(node_s[t0], terms[0], atomic);
    kernel_add(node_s[t1], terms[1], atomic);
    kernel_add(node_s[t2], terms[2], atomic);
    kernel_add(node_s[t3], terms[3], atomic);
  }
  return quads;
}

double epol_row_avx2(const double* ux, const double* uy, const double* uz,
                     const double* uq, const double* uborn,
                     std::uint32_t ub, std::uint32_t ue, double px,
                     double py, double pz, double qv, double rv,
                     bool approx_math) {
  return approx_math
             ? epol_row_impl<true>(ux, uy, uz, uq, uborn, ub, ue, px, py,
                                   pz, qv, rv)
             : epol_row_impl<false>(ux, uy, uz, uq, uborn, ub, ue, px, py,
                                    pz, qv, rv);
}

double epol_near_block_avx2(const double* ux, const double* uy,
                            const double* uz, const double* uq,
                            const double* uborn, std::uint32_t ub,
                            std::uint32_t ue, std::uint32_t vb,
                            std::uint32_t ve, bool diagonal,
                            bool approx_math) {
  return approx_math
             ? epol_near_block_impl<true>(ux, uy, uz, uq, uborn, ub, ue,
                                          vb, ve, diagonal)
             : epol_near_block_impl<false>(ux, uy, uz, uq, uborn, ub, ue,
                                           vb, ve, diagonal);
}

double epol_far_row_avx2(const double* qv, const double* rv,
                         std::uint32_t n, double qu, double ru, double d2,
                         bool approx_math) {
  return approx_math ? epol_far_row_impl<true>(qv, rv, n, qu, ru, d2)
                     : epol_far_row_impl<false>(qv, rv, n, qu, ru, d2);
}

}  // namespace octgb::gb::simd

#endif  // OCTGB_SIMD_AVX2
