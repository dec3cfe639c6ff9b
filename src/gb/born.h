// born.h -- octree-accelerated Born radii (Figure 2 of the paper).
//
// Two traversal strategies are provided:
//
//  * approx_integrals / push_integrals_to_atoms: the *single-tree* scheme
//    of this paper's distributed algorithms -- each leaf Q of the q-point
//    octree is pushed through the atoms octree; far (A, Q) pairs deposit a
//    monopole contribution into the node accumulator s_A, near leaf pairs
//    compute exactly into per-atom accumulators s_a; a final top-down pass
//    sums ancestor contributions and applies
//        R_a = max(r_a, ((s_a + sum_ancestors s_A) / 4pi)^(-1/3)).
//    Each call builds an InteractionPlan over its q-leaf range
//    (src/gb/interaction_lists.h) and evaluates it with the plan
//    executor (src/gb/kernels_batch.h).
//
//  * born_radii_dualtree: the *simultaneous* two-octree traversal of the
//    prior shared-memory work [Chowdhury & Bajaj 2010], used by the
//    OCT_CILK driver (Section IV: "The major difference of our approach
//    from [6] is that we only traverse one octree instead of two"). It
//    is a visit order of the plan builder (Traversal::kDualTree), so it
//    evaluates on the same executor.
//
// Far-field criterion: by default (A, Q) is far when
//     r_AQ > (r_A + r_Q) * (1 + 2/eps),
// the same geometric test the paper's Figure 3 uses for E_pol (and
// algebraically the bound (d_max/d_min) <= 1 + eps). The literal
// sixth-root reading of Figure 2's pseudo-code is available behind
// ApproxParams::strict_born_criterion; see that flag and DESIGN.md
// section 5 for why the looser test is the faithful default.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {

/// The two octrees plus the q-point node aggregates (ñ_Q = sum w_q n_q
/// and the weighted centroid) the far-field needs.
struct BornOctrees {
  octree::Octree atoms;    // T_A over atom centers
  octree::Octree qpoints;  // T_Q over quadrature points
  /// Per-T_Q-node sum of w_q * n_q (the pseudo-q-point normal).
  std::vector<geom::Vec3> q_weighted_normal;
};

/// Builds T_A, T_Q and the q-node aggregates. With a pool, the octree
/// builds (Morton sort + level sweeps) and the per-level normal sums
/// run on it; results are bit-identical to the serial build.
BornOctrees build_born_octrees(const molecule::Molecule& mol,
                               const surface::QuadratureSurface& surf,
                               const octree::OctreeParams& params = {},
                               parallel::WorkStealingPool* pool = nullptr);

/// The q-node aggregates ñ_Q = sum w_q n_q of `qtree` (built over
/// surf.points), one per node: a bottom-up sweep, one level at a time,
/// parallel within a level when a pool is given. Bit-identical at any
/// worker count; build_born_octrees uses it for T_Q.
std::vector<geom::Vec3> q_weighted_normals(
    const octree::Octree& qtree, const surface::QuadratureSurface& surf,
    parallel::WorkStealingPool* pool = nullptr);

/// Squared Born far-field factor: (A, Q) is far iff
/// d^2 > (r_A + r_Q)^2 * born_far_factor2(params). Shared by the plan
/// builder (both visits) and validate_plan. Throws
/// std::invalid_argument for eps <= 0.
double born_far_factor2(const ApproxParams& params);

/// Mutable accumulators for one Born-radius computation. node_s is
/// indexed by T_A node id, atom_s by *original* atom id. Pooled
/// executors give each slot one owning chunk (plain stores); in the
/// distributed drivers each rank owns a private workspace that is later
/// merged with MPI_Allreduce.
struct BornWorkspace {
  std::vector<double> node_s;
  std::vector<double> atom_s;

  explicit BornWorkspace(const BornOctrees& trees)
      : node_s(trees.atoms.num_nodes(), 0.0),
        atom_s(trees.atoms.num_points(), 0.0) {}

  /// For cross-tree runs (docking): sized by an arbitrary atoms octree.
  explicit BornWorkspace(const octree::Octree& atoms_tree)
      : node_s(atoms_tree.num_nodes(), 0.0),
        atom_s(atoms_tree.num_points(), 0.0) {}
};

/// APPROX-INTEGRALS for the q-point leaves [qleaf_begin, qleaf_end) of
/// T_Q (indices into trees.qpoints.leaves()): builds the Born plan of
/// that range and evaluates it into `ws`. If `pool` is non-null both
/// passes run on it.
void approx_integrals(const BornOctrees& trees,
                      const molecule::Molecule& mol,
                      const surface::QuadratureSurface& surf,
                      std::size_t qleaf_begin, std::size_t qleaf_end,
                      const ApproxParams& params, BornWorkspace& ws,
                      parallel::WorkStealingPool* pool = nullptr);

/// PUSH-INTEGRALS-TO-ATOMS for the *sorted* atom positions
/// [atom_begin, atom_end) of T_A (the paper's [s_id, e_id] segment).
/// Writes R into out_radii[original_atom_id]; entries outside the segment
/// are left untouched.
void push_integrals_to_atoms(const BornOctrees& trees,
                             const molecule::Molecule& mol,
                             const BornWorkspace& ws,
                             std::size_t atom_begin, std::size_t atom_end,
                             const ApproxParams& params,
                             std::span<double> out_radii,
                             parallel::WorkStealingPool* pool = nullptr);

/// PUSH-INTEGRALS-TO-ATOMS with the radius map of `kernel` (Eq. 4 for
/// r^6, Eq. 3 for r^4; see born_radius in kernel_primitives.h).
void push_integrals_to_atoms(const BornOctrees& trees,
                             const molecule::Molecule& mol,
                             const BornWorkspace& ws,
                             std::size_t atom_begin, std::size_t atom_end,
                             const ApproxParams& params, BornKernel kernel,
                             std::span<double> out_radii,
                             parallel::WorkStealingPool* pool = nullptr);

/// Cross-tree APPROX-INTEGRALS: deposits the contributions of the
/// q-point octree `q_tree` (over `surf`, with per-node aggregates
/// `q_node_normals`) into the accumulators of `atoms_tree` (over
/// `atoms_mol`). This is the primitive behind pose re-scoring: the
/// receptor's self-integrals are cached and only the receptor-vs-ligand
/// cross terms are recomputed per pose (Section IV-C step 1). Builds a
/// Born-only cross-tree plan and evaluates it.
void approx_integrals_cross(const octree::Octree& atoms_tree,
                            const molecule::Molecule& atoms_mol,
                            const octree::Octree& q_tree,
                            std::span<const geom::Vec3> q_node_normals,
                            const surface::QuadratureSurface& surf,
                            const ApproxParams& params, BornWorkspace& ws,
                            parallel::WorkStealingPool* pool = nullptr);

/// Flattens a workspace: out[a] = atom_s[a] + sum of node_s over the
/// ancestors of atom a (the raw integral sums, before the Born-radius
/// map). Used to cache pose-invariant self-integrals.
void collect_integrals_to_atoms(const octree::Octree& atoms_tree,
                                const BornWorkspace& ws,
                                std::span<double> out_sums);

/// Convenience: full single-tree r^6 computation (all q-leaves, all
/// atoms) on a Born-only plan.
BornRadiiResult born_radii_octree(const BornOctrees& trees,
                                  const molecule::Molecule& mol,
                                  const surface::QuadratureSurface& surf,
                                  const ApproxParams& params,
                                  parallel::WorkStealingPool* pool = nullptr);

/// The dual-tree (simultaneous traversal) variant used by OCT_CILK: a
/// dual-tree Born-only plan, evaluated like born_radii_octree's.
BornRadiiResult born_radii_dualtree(const BornOctrees& trees,
                                    const molecule::Molecule& mol,
                                    const surface::QuadratureSurface& surf,
                                    const ApproxParams& params,
                                    parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::gb
