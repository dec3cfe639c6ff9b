// kernels_batch_simd.h -- internal contract between the dispatch TU
// (kernels_batch.cpp, compiled with the project's baseline flags) and
// the AVX2 TU (kernels_batch_avx2.cpp, compiled with -mavx2 -mfma).
// Only raw-pointer signatures cross the boundary so the AVX2 TU stays
// independent of the library's data structures; nothing here is part of
// the public API.
#pragma once

#include <cstdint>

#ifdef OCTGB_SIMD_AVX2

namespace octgb::gb::simd {

/// Born r^6 row over q-points [qb, qe): sum of
/// w_q * (p_q - x) . n_q / |p_q - x|^6 for the atom at (x, y, z).
double born_row_avx2(const double* qx, const double* qy, const double* qz,
                     const double* nx, const double* ny, const double* nz,
                     const double* w, std::uint32_t qb, std::uint32_t qe,
                     double x, double y, double z);

/// f_GB row over atoms [ub, ue): sum of q_u * qv / f_GB for the atom at
/// (px, py, pz) with charge qv, Born radius rv. `approx_math` selects
/// the lane-vectorized fastmath algorithms vs. exact sqrt/exp.
double epol_row_avx2(const double* ux, const double* uy, const double* uz,
                     const double* uq, const double* uborn,
                     std::uint32_t ub, std::uint32_t ue, double px,
                     double py, double pz, double qv, double rv,
                     bool approx_math);

/// Whole near-field block U x V: one f_GB row per v atom in [vb, ve)
/// against the u atoms [ub, ue), all from the same SoA arrays (one
/// octree). `diagonal` marks U == V blocks, where each row is split
/// around the self pair and the exact q_v^2 / R_v self term is added
/// instead (matching the scalar engine's fgb_self_term). Keeping the
/// v loop on this side of the TU boundary saves one call + broadcast
/// setup per v atom, which adds up over millions of ~leaf-sized rows.
double epol_near_block_avx2(const double* ux, const double* uy,
                            const double* uz, const double* uq,
                            const double* uborn, std::uint32_t ub,
                            std::uint32_t ue, std::uint32_t vb,
                            std::uint32_t ve, bool diagonal,
                            bool approx_math);

/// Far-field inner row: sum over j of qu * qv[j] / f_GB(d2, ru * rv[j])
/// for `n` packed non-empty bins of the v node.
double epol_far_row_avx2(const double* qv, const double* rv,
                         std::uint32_t n, double qu, double ru, double d2,
                         bool approx_math);

}  // namespace octgb::gb::simd

#endif  // OCTGB_SIMD_AVX2
