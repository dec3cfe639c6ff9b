// types.h -- shared types and physical constants for the GB solver.
#pragma once

#include <cstddef>
#include <vector>

namespace octgb::gb {

/// Physical constants used by the Generalized Born energy.
struct Physics {
  /// Solvent dielectric (water).
  double eps_solvent = 80.0;
  /// Coulomb constant in kcal/mol * Angstrom / e^2.
  double coulomb_k = 332.0636;

  /// tau = 1 - 1/eps_solvent (the GB prefactor of Eq. 2).
  double tau() const { return 1.0 - 1.0 / eps_solvent; }
};

/// Tunable approximation parameters (the paper's two epsilons). The
/// paper's headline configuration is 0.9 / 0.9.
struct ApproxParams {
  double eps_born = 0.9;  // Born-radius far-field tolerance
  double eps_epol = 0.9;  // E_pol far-field tolerance and bin growth
  bool approx_math = false;  // fast sqrt/exp/cbrt kernels (Section V-C)
  /// Far-field criterion for the Born phase. The paper's Figure 2
  /// pseudo-code prints "(r+s)/(r-s) > (1+eps)^(1/6)" -- which as
  /// printed would approximate *near* pairs, and with the inequality
  /// flipped would demand ~19x separation at eps = 0.9, implying errors
  /// ~30x below what the paper's own Figure 10 reports. The E_pol
  /// criterion (Figure 3) "r > (r_U + r_V)(1 + 2/eps)" is algebraically
  /// identical to (r+s)/(r-s) <= 1+eps; the default here applies that
  /// same test to the Born phase, which lands both speed and error in
  /// the paper's reported regime. Set true for the literal sixth-root
  /// reading (near-exact results, little pruning).
  bool strict_born_criterion = false;
};

/// Born-radius integral kernel. The paper uses the surface r^6 form
/// (Eq. 4, better for globular solutes); the r^4 Coulomb-field form
/// (Eq. 3) is provided for comparison.
enum class BornKernel {
  kSurfaceR6,
  kSurfaceR4,
};

/// Traversal strategy for the octree solver.
enum class Traversal {
  kSingleTree,  // this paper's algorithm (Figures 2-4)
  kDualTree,    // prior shared-memory algorithm [6], used by OCT_CILK
};

/// Result of a Born-radius computation.
struct BornRadiiResult {
  std::vector<double> radii;  // per atom, Angstrom
};

/// Result of a polarization-energy computation.
struct EpolResult {
  double energy = 0.0;  // kcal/mol
};

}  // namespace octgb::gb
