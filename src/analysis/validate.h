// validate.h -- deep structural validators (DESIGN.md section 12).
//
// Each validator walks one of the pipeline's data structures and checks
// the invariants the paper's accuracy claim rests on, returning a
// Report that lists every violation found (never aborting itself --
// tests probe validators against deliberately corrupted structures).
// The OCTGB_VALIDATE_CHECKPOINT macro in src/analysis/contracts.h is
// what turns a non-empty report into a fatal contract failure at the
// pipeline's checkpoints.
//
// The checks are deliberately *independent re-derivations*, not replays
// of the builders: validate_plan re-proves pair coverage from the
// Greengard-Rokhlin criterion itself rather than re-running the
// traversal, so a bug shared by builder and validator would have to be
// introduced twice.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/types.h"
#include "src/geom/vec3.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/surface/quadrature.h"

namespace octgb::analysis {

/// A validator's findings: empty means the structure is healthy.
struct Report {
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
  /// All errors joined with newlines (capped -- a corrupted tree can
  /// produce thousands of findings; the first few localize the bug).
  std::string str() const;
  /// printf-style append of one finding.
  void fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Octree well-formedness over the points it was built from (or refit
/// to): node ranges partition parents exactly, parent/child/depth links
/// agree, leaf flags match children, every point lies inside its
/// node's bounding sphere, point_index is a permutation, leaves() is
/// the DFS leaf set, centers/radii are finite. When `params` is given
/// (build-time checkpoint) leaf sizes are checked against
/// leaf_capacity/max_depth; pass nullptr after refit, which keeps
/// topology for any capacity.
Report validate_octree(const octree::Octree& tree,
                       std::span<const geom::Vec3> points,
                       const octree::OctreeParams* params = nullptr);

/// BornOctrees aggregate conservation: q_weighted_normal has one slot
/// per T_Q node, every leaf's aggregate equals the sum of w_q * n_q
/// over its own q-points, every internal node's equals the sum of its
/// children's (so the root carries the whole surface integral).
Report validate_born_octrees(const gb::BornOctrees& trees,
                             const surface::QuadratureSurface& surf);

/// Interaction-plan coverage: for every source leaf inside the plan's
/// scope, on every root-to-leaf path of the atoms tree there is *exactly
/// one* plan item (an atom pair evaluated twice or dropped is a silent
/// energy error), and sources outside the scope have no items at all;
/// far pairs satisfy the (1 + 2/eps) Greengard-Rokhlin separation with
/// d > 0; near pairs name leaves that fail it (Born phase; the E_pol
/// phase classifies leaves before the criterion, mirroring Figure 3);
/// chunk tables start at 0, end at the list size and increase
/// monotonically. `qpoints` is the Born phase's source tree, which may
/// belong to another molecule (docking cross plans).
Report validate_plan(const octree::Octree& atoms,
                     const octree::Octree& qpoints,
                     const gb::InteractionPlan& plan,
                     const gb::ApproxParams& params);

/// validate_plan over one molecule's T_A and T_Q.
Report validate_plan(const gb::BornOctrees& trees,
                     const gb::InteractionPlan& plan,
                     const gb::ApproxParams& params);

/// Born radii physicality: one finite radius per atom with
/// R_a >= r_a > 0 (the PUSH-INTEGRALS map takes max(r_a, .) -- anything
/// below the van der Waals radius means a corrupted accumulator).
Report validate_born_radii(std::span<const double> vdw_radii,
                           std::span<const double> born_radii);

/// Charge-bin conservation: per node the histogram row sums to the
/// total charge of the atoms under the node (so far-field E_pol sees
/// exactly the charge the near field would), bin radii are positive
/// and increasing, and the CSR non-empty-bin lists agree with the rows.
Report validate_charge_bins(const octree::Octree& tree,
                            const gb::ChargeBins& bins,
                            std::span<const double> charges);

}  // namespace octgb::analysis
