// epol.h -- octree-accelerated GB polarization energy (Figure 3).
//
// APPROX-EPOL(U, V) evaluates the interaction of the atoms under a leaf V
// of the atoms octree against the whole tree (U starts at the root):
//
//  * LEAF(U): exact STILL kernel over all ordered pairs (u, v), including
//    u == v (the Born self-energy, f_GB(i,i) = R_i);
//  * far (r_UV > (r_U + r_V)(1 + 2/eps)): the pair kernel depends on
//    atoms only through their charges and Born radii, so each node keeps
//    a charge histogram over geometric Born-radius bins
//      q_U[k] = sum of q_u with R_u in [R_min (1+eps)^k, R_min (1+eps)^{k+1})
//    and the far field is the bin-by-bin kernel with the bin-center radii
//    (this is the paper's "approximation scheme different from [6]");
//  * otherwise recurse into U's children.
//
// Summing over all leaves V yields exactly the ordered double sum of
// Eq. 2; the driver multiplies by -tau/2 * k_coulomb. approx_epol and
// epol_octree build the E_pol plan of their leaf range
// (src/gb/interaction_lists.h) and evaluate it with the plan executor
// (src/gb/kernels_batch.h); epol_dualtree walks both trees at once and
// evaluates through the executor's scalar blocks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"

namespace octgb::gb {

/// Per-node charge histograms over Born-radius bins.
struct ChargeBins {
  double r_min = 1.0;   // smallest Born radius in the molecule
  int num_bins = 1;     // M_eps = ceil(log_{1+eps}(R_max / R_min))
  double inv_log1p = 1.0;  // 1 / log(1 + eps), cached for binning
  std::vector<double> q;   // [node * num_bins + k]
  std::vector<double> bin_radius;  // representative radius per bin

  /// CSR lists of the *non-empty* bin indices of each node, ascending.
  /// Node n's non-empty bins are nz_bin[nz_offset[n] .. nz_offset[n+1]).
  /// Most rows are nearly empty (a node holds atoms from a handful of
  /// radius bins), so the far-field kernel iterates these lists instead
  /// of scanning all num_bins^2 (i, j) combinations.
  std::vector<std::uint32_t> nz_offset;  // [num_nodes + 1]
  std::vector<std::uint16_t> nz_bin;

  double at(std::size_t node, int k) const {
    return q[node * static_cast<std::size_t>(num_bins) +
             static_cast<std::size_t>(k)];
  }

  /// Bin index of Born radius R: floor(log_{1+eps}(R / R_min)), clamped
  /// to [0, num_bins).
  int bin_of(double born) const;
};

/// Builds the per-node histograms for `tree` (the atoms octree) from the
/// original-indexed charges and Born radii. `max_bins` caps M_eps for
/// tiny eps (the bin width then exceeds (1+eps), costing accuracy that
/// the near field re-absorbs; 256 is far above any practical setting).
ChargeBins build_charge_bins(const octree::Octree& tree,
                             std::span<const double> charges,
                             std::span<const double> born_radii,
                             double eps, int max_bins = 256);

/// Raw kernel sum (no -tau/2 k prefactor) of the leaves
/// [leaf_begin, leaf_end) of `tree.leaves()` against the whole tree,
/// with prebuilt charge bins. Both passes run on `pool` when given; the
/// sum is bit-identical at any worker count.
double approx_epol(const octree::Octree& tree,
                   const molecule::Molecule& mol, const ChargeBins& bins,
                   std::span<const double> born_radii,
                   std::size_t leaf_begin, std::size_t leaf_end,
                   const ApproxParams& params,
                   parallel::WorkStealingPool* pool = nullptr);

/// Full approximate E_pol in kcal/mol (all leaves, with prefactor).
EpolResult epol_octree(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii,
                       const ApproxParams& params,
                       const Physics& physics = {},
                       parallel::WorkStealingPool* pool = nullptr);

/// Dual-tree variant used by OCT_CILK: simultaneous traversal starting
/// from (root, root); ordered pairs partitioned into far boxes and
/// leaf-leaf blocks. Same result class, different traversal order; the
/// energy's bits do not depend on the pool or its worker count.
EpolResult epol_dualtree(const octree::Octree& tree,
                         const molecule::Molecule& mol,
                         std::span<const double> born_radii,
                         const ApproxParams& params,
                         const Physics& physics = {},
                         parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::gb
