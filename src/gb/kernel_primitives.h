// kernel_primitives.h -- the per-pair arithmetic of the GB hot kernels.
//
// These inline functions are the single source of truth for the floating-
// point expression trees of the r^6/r^4 Born integrand, the Born-radius
// map and the STILL f_GB pair term. The plan executor
// (src/gb/kernels_batch.cpp, both engines and the AVX2 TU), the dual-tree
// walkers and the atom-division ablation (src/runtime/drivers.cpp) all
// include them; the naive O(N^2) reference (src/gb/naive.cpp) keeps its
// own copies on purpose, so it stays an independent oracle.
//
// Sharing the expression *tree* (not just the formula) is what keeps
// results reproducible across callers under a fixed reduction order: the
// compiler contracts multiplies and adds into FMAs per expression shape,
// so two textually different implementations of the same formula may
// round differently. Do not duplicate these bodies.
#pragma once

#include <algorithm>
#include <atomic>
#include <numbers>

#include "src/geom/vec3.h"

namespace octgb::gb {

/// Relaxed atomic accumulation into a shared double. Bitwise identical to
/// a plain `target += value` when only one thread touches the slot, so
/// serial plan execution is unaffected. Only the Born phase uses it: its
/// lists are source-major, so workers share target slots.
inline void kernel_atomic_add(double& target, double value) {
  // Deposits land in completion order, so the last ulp of a shared
  // slot can differ across worker counts; serial plan execution is the
  // bit-exact configuration (DESIGN.md section 17).
  // detlint:allow(shared-float-accum): serial execution is the oracle
  std::atomic_ref<double>(target).fetch_add(value,
                                            std::memory_order_relaxed);
}

/// Accumulation with a runtime atomicity switch: atomic when workers
/// share the slot (pooled execution), a plain `+=` when the caller runs
/// serially. Both orderings produce bitwise identical sums; the switch
/// only buys back the lock-prefix cost on the serial path, where the
/// batched engine spends millions of deposits per evaluation.
inline void kernel_add(double& target, double value, bool atomic) {
  if (atomic) {
    kernel_atomic_add(target, value);
  } else {
    target += value;
  }
}

/// Inverse kernel denominator: 1/d^Power given d^2, for the r^6 (Eq. 4)
/// and r^4 (Eq. 3, Coulomb-field) Born integrals.
template <int Power>
inline double inv_pow(double d2) {
  static_assert(Power == 4 || Power == 6);
  if constexpr (Power == 4) {
    return 1.0 / (d2 * d2);
  } else {
    return 1.0 / (d2 * d2 * d2);
  }
}

/// One q-point's contribution to the Born integral of the atom at `x`:
/// w_q (d . n_q) / |d|^Power with d = p_q - x.
template <int Power>
inline double born_term(const geom::Vec3& q_point, const geom::Vec3& q_normal,
                        double q_weight, const geom::Vec3& x) {
  const geom::Vec3 d = q_point - x;
  const double r2 = d.norm2();
  return q_weight * d.dot(q_normal) * inv_pow<Power>(r2);
}

/// Born radius of an atom with intrinsic radius `r_a` from its integral
/// sum over the surface: Eq. 4 for r^6, R = max(r_a, (s/4pi)^(-1/3)),
/// Eq. 3 for r^4, R = max(r_a, 4pi/s). Non-positive sums map to r_a.
template <int Power, typename Math>
inline double born_radius(double integral_sum, double r_a) {
  static_assert(Power == 4 || Power == 6);
  const double s = integral_sum / (4.0 * std::numbers::pi);
  double r_eff;
  if constexpr (Power == 4) {
    r_eff = s > 0.0 ? 1.0 / s : r_a;
  } else {
    r_eff = s > 0.0 ? Math::invcbrt(s) : r_a;
  }
  return std::max(r_a, r_eff);
}

/// STILL pair term q_u q_v / f_GB(u, v) given r^2 and R_u R_v.
template <typename Math>
inline double fgb_term(double qu, double qv, double r2, double rr) {
  const double f2 = r2 + rr * Math::exp(-r2 / (4.0 * rr));
  return qu * qv * Math::rsqrt(f2);
}

/// Born self-energy term f_GB(i, i) = R_i.
inline double fgb_self_term(double q, double born) { return q * q / born; }

}  // namespace octgb::gb
