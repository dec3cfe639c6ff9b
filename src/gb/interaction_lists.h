// interaction_lists.h -- phase 1 of the GB execution engine.
//
// The single-tree traversals of Figures 2 and 3 are split from kernel
// evaluation (the split Hu et al. make for FMMs: the interaction list is
// the data structure, evaluating it is a separate pass). This module is
// the only single-tree traversal in the library, and the only Born
// traversal: it walks the trees with the Greengard-Rokhlin criteria and
// emits compact work items into an InteractionPlan:
//
//  * Born near pairs  (T_A leaf,  T_Q leaf)  -> exact r^6 / r^4 blocks,
//  * Born far pairs   (T_A node,  T_Q node)  -> monopole deposits,
//  * E_pol near pairs (T_A leaf u, T_A leaf v) -> exact f_GB blocks,
//  * E_pol far pairs  (T_A node u, T_A leaf v) -> bin-vs-bin blocks.
//
// Phase 2 (src/gb/kernels_batch.h) evaluates the lists. A plan covers a
// PlanScope: a range of q-leaves for the Born phase and a range of
// v-leaves for the E_pol phase, so each distributed rank (and each
// dynamic E_pol chunk) builds only its own share of Figure 4's work.
// The Born phase's atoms and q-point trees may belong to different
// molecules (docking cross terms). Born sources are T_Q leaves in the
// single-tree visit; the dual-tree visit of OCT_CILK (Traversal) also
// emits far pairs with internal T_Q nodes.
//
// Every list is target-major: a stable counting sort by target merges
// the per-range traversal output, so each target's items are contiguous
// and in the depth-first visit order of Figures 2 and 3 (q-leaf order
// for Born targets). Chunk offsets computed from a per-item cost model
// make the lists schedulable on the work-stealing pool, and every chunk
// closes at a target boundary: each accumulator has exactly one owner,
// which takes plain stores, and pooled evaluation sums it in the same
// order as a serial one.
//
// The plan depends only on the tree geometry, the epsilons and the
// scope -- not on charges, Born radii or the Born kernel -- so the
// serving layer caches it next to the octrees and refit requests skip
// the traversal entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/types.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"

namespace octgb::gb {

/// One work item: an (target, source) node pair. The meaning of the two
/// ids depends on the list the pair lives in (see InteractionPlan).
struct NodePair {
  std::uint32_t target = 0;
  std::uint32_t source = 0;
};

/// Leaf-ordinal end that stands for "every leaf of the tree".
inline constexpr std::size_t kAllLeaves =
    std::numeric_limits<std::size_t>::max();

/// The source leaves one plan covers, as ordinal ranges [begin, end):
/// q-leaves of T_Q (tree.leaves() order) for the Born phase, v-leaves of
/// T_A for the E_pol phase. An empty range leaves that phase out; ends
/// past the leaf count (kAllLeaves) are clamped by the builder, which
/// records the clamped ranges in InteractionPlan::scope.
struct PlanScope {
  std::size_t born_begin = 0;
  std::size_t born_end = kAllLeaves;
  std::size_t epol_begin = 0;
  std::size_t epol_end = kAllLeaves;

  static PlanScope born_only(std::size_t begin = 0,
                             std::size_t end = kAllLeaves) {
    return {begin, end, 0, 0};
  }
  static PlanScope epol_only(std::size_t begin = 0,
                             std::size_t end = kAllLeaves) {
    return {0, 0, begin, end};
  }
};

/// The traversal's output: four flat lists of work items plus
/// cost-balanced chunk offsets for scheduling. Lists are ordered target
/// major (visit order within a target).
struct InteractionPlan {
  /// target = T_A *leaf* node id, source = T_Q leaf node id.
  std::vector<NodePair> born_near;
  /// target = T_A node id (monopole deposit slot), source = T_Q node id
  /// (a leaf, except in dual-tree plans).
  std::vector<NodePair> born_far;
  /// target = ordinal of leaf v in tree.leaves(), source = T_A leaf u id.
  std::vector<NodePair> epol_near;
  /// target = ordinal of leaf v in tree.leaves(), source = T_A node u id.
  std::vector<NodePair> epol_far;

  /// Chunk offsets into each list: chunk c is [chunks[c], chunks[c+1]).
  /// Chunks have roughly equal estimated cost, not equal item count --
  /// a near pair costs |A| * |Q| kernel evaluations, a far deposit one.
  /// No chunk splits the items of one target.
  std::vector<std::uint32_t> born_near_chunks;
  std::vector<std::uint32_t> born_far_chunks;
  std::vector<std::uint32_t> epol_near_chunks;
  std::vector<std::uint32_t> epol_far_chunks;

  /// The source-leaf ranges the lists cover (clamped to the trees).
  PlanScope scope;

  std::size_t num_items() const {
    return born_near.size() + born_far.size() + epol_near.size() +
           epol_far.size();
  }
  /// Resident bytes of the four lists and their chunk tables.
  std::size_t memory_bytes() const;
};

/// Traversal-only pass over `qpoints`-vs-`atoms` (Born phase, Figure 2
/// criterion) for the q-leaves of scope.born_*, and `atoms`-vs-`atoms`
/// (E_pol phase, Figure 3 criterion) for the v-leaves of scope.epol_*.
/// `qpoints` is not read when the Born range is empty. With a pool the
/// per-leaf traversals run as parallel tasks into per-range vectors
/// that are merged by a stable sort on the pool, so the plan is the same
/// at any worker count. `traversal` picks the Born phase's visit:
/// Figure 2's per-q-leaf walk, or the dual-tree walk from (root, root),
/// which covers every q-leaf; the E_pol phase is always Figure 3's.
/// Throws std::invalid_argument for a non-positive epsilon of a phase in
/// scope, and for a dual-tree plan over part of the q-leaves.
InteractionPlan build_interaction_plan(
    const octree::Octree& atoms, const octree::Octree& qpoints,
    const ApproxParams& params, const PlanScope& scope,
    parallel::WorkStealingPool* pool = nullptr,
    Traversal traversal = Traversal::kSingleTree);

/// Both phases over every leaf of one molecule's trees.
InteractionPlan build_interaction_plan(
    const BornOctrees& trees, const ApproxParams& params,
    parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::gb
