// diagnostics.h -- traversal statistics and complexity accounting.
//
// The paper's complexity analysis (Section IV-C) predicts
//   T_comp = O( (1/eps^3) (M/(P p) + log M) )      per phase,
// driven by how the far-field criterion partitions node pairs into
// *pruned* far boxes and *exact* near blocks. This module instruments
// that partition without touching the hot kernels: it builds the
// interaction plan over the trees (the traversal, no kernel math) and
// counts its lists, so the numbers describe exactly the work the plan
// executor runs:
//
//   * far deposits / exact blocks / exact pair-interactions counted,
//   * the pruning ratio (exact pairs vs the naive M*m or M^2 total),
//   * the worst kernel spread accepted by the far criterion
//     ((d+s)/(d-s) maximized over the far boxes actually taken), which
//     upper-bounds the per-box relative kernel error.
//
// Benchmarks print these so a reader can see *why* a configuration is
// fast or slow; tests pin the invariants (pruning grows with eps and
// with molecule size; the accepted spread respects the criterion).
#pragma once

#include <cstddef>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/types.h"

namespace octgb::gb {

/// Counters from one traversal, plus derived ratios.
struct TraversalStats {
  std::size_t far_boxes = 0;       // pruned far-field deposits
  std::size_t exact_blocks = 0;    // near leaf-block evaluations
  std::size_t exact_pairs = 0;     // pairwise kernel evaluations inside them
  std::size_t naive_pairs = 0;     // what the quadratic method would do
  double max_kernel_spread = 0.0;  // max (d+s)/(d-s) over far boxes taken

  /// Fraction of naive pairwise work avoided (0 = none, 1 = all).
  double pruning_ratio() const {
    if (naive_pairs == 0) return 0.0;
    return 1.0 - static_cast<double>(exact_pairs) /
                     static_cast<double>(naive_pairs);
  }
};

/// Statistics of the Born-radius traversal (APPROX-INTEGRALS) for the
/// given trees and parameters: the Born lists of the plan. Pure
/// analysis: no accumulators touched. Throws std::invalid_argument for
/// a non-positive eps_born, as the plan builder does.
TraversalStats born_traversal_stats(const BornOctrees& trees,
                                    const ApproxParams& params);

/// Statistics of the E_pol leaf-vs-tree traversal: the E_pol lists of
/// the plan. Throws std::invalid_argument for a non-positive eps_epol.
TraversalStats epol_traversal_stats(const octree::Octree& atoms_tree,
                                    const ApproxParams& params);

}  // namespace octgb::gb
