#include "src/gb/interaction_lists.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/geom/vec3.h"
#include "src/telemetry/telemetry.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

namespace {

// Work items produced by one contiguous range of source leaves. The
// parallel builder fills one of these per range and concatenates them in
// range order, so the merged lists are identical to a serial build.
struct LocalLists {
  std::vector<NodePair> born_near;
  std::vector<NodePair> born_far;
  std::vector<NodePair> epol_near;
  std::vector<NodePair> epol_far;
};

// Born-phase traversal for one T_Q leaf (Figure 2): far test first,
// then leaf, then children pushed in declaration order.
void plan_born_leaf(const octree::Octree& atoms_tree,
                    const octree::Octree& q_tree, std::uint32_t qleaf,
                    double factor2, LocalLists& out) {
  const octree::Node& q_node = q_tree.node(qleaf);
  std::uint32_t stack[256];  // >= 7 * max_depth + 8 entries
  int top = 0;
  stack[top++] = atoms_tree.root_index();
  while (top > 0) {
    const std::uint32_t a_idx = stack[--top];
    const octree::Node& a_node = atoms_tree.node(a_idx);
    const double s = a_node.radius + q_node.radius;
    const double d2 = geom::distance2(a_node.center, q_node.center);
    if (d2 > s * s * factor2 && d2 > 0.0) {
      out.born_far.push_back({a_idx, qleaf});
    } else if (a_node.leaf) {
      out.born_near.push_back({a_idx, qleaf});
    } else {
      for (const auto child : a_node.children) {
        if (child != octree::Node::kInvalid) stack[top++] = child;
      }
    }
  }
}

// E_pol-phase traversal for one T_A leaf V (Figure 3): leaf check
// FIRST, then the far test, then children. `vleaf_ord` is V's ordinal
// in tree.leaves() -- the plan records ordinals so the executor can
// keep per-leaf accumulators in a flat array.
void plan_epol_leaf(const octree::Octree& tree, std::uint32_t vleaf_ord,
                    std::uint32_t vleaf, double far_mult, LocalLists& out) {
  const octree::Node& v_node = tree.node(vleaf);
  std::uint32_t stack[256];
  int top = 0;
  stack[top++] = tree.root_index();
  while (top > 0) {
    const std::uint32_t u_idx = stack[--top];
    const octree::Node& u_node = tree.node(u_idx);
    if (u_node.leaf) {
      out.epol_near.push_back({vleaf_ord, u_idx});
      continue;
    }
    const double s = (u_node.radius + v_node.radius) * far_mult;
    const double d2 = geom::distance2(u_node.center, v_node.center);
    if (d2 > s * s && d2 > 0.0) {
      out.epol_far.push_back({vleaf_ord, u_idx});
      continue;
    }
    for (const auto child : u_node.children) {
      if (child != octree::Node::kInvalid) stack[top++] = child;
    }
  }
}

// Splits `items` into chunks of roughly equal estimated cost. Greedy
// forward scan: close the current chunk once it holds >= total/target
// cost, at the first item boundary where `whole_targets` allows it (no
// chunk then splits the items of one target). Offsets always start at
// 0 and end at items.size().
template <typename CostFn>
std::vector<std::uint32_t> make_chunks(const std::vector<NodePair>& items,
                                       std::size_t target_chunks,
                                       bool whole_targets, CostFn&& cost) {
  std::vector<std::uint32_t> offsets{0};
  if (items.empty()) {
    return offsets;
  }
  double total = 0.0;
  for (const NodePair& item : items) total += cost(item);
  const double per_chunk =
      total / static_cast<double>(std::max<std::size_t>(1, target_chunks));
  double acc = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    acc += cost(items[i]);
    if (acc >= per_chunk && i + 1 < items.size() &&
        (!whole_targets || items[i + 1].target != items[i].target)) {
      offsets.push_back(static_cast<std::uint32_t>(i + 1));
      acc = 0.0;
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(items.size()));
  return offsets;
}

}  // namespace

std::size_t InteractionPlan::memory_bytes() const {
  const auto pair_bytes = [](const std::vector<NodePair>& v) {
    return v.capacity() * sizeof(NodePair);
  };
  const auto off_bytes = [](const std::vector<std::uint32_t>& v) {
    return v.capacity() * sizeof(std::uint32_t);
  };
  return pair_bytes(born_near) + pair_bytes(born_far) +
         pair_bytes(epol_near) + pair_bytes(epol_far) +
         off_bytes(born_near_chunks) + off_bytes(born_far_chunks) +
         off_bytes(epol_near_chunks) + off_bytes(epol_far_chunks);
}

InteractionPlan build_interaction_plan(const octree::Octree& atoms,
                                       const octree::Octree& qpoints,
                                       const ApproxParams& params,
                                       const PlanScope& scope,
                                       parallel::WorkStealingPool* pool) {
  OCTGB_TRACE_SCOPE("gb/plan_build");
  const bool want_born = scope.born_begin < scope.born_end;
  const bool want_epol = scope.epol_begin < scope.epol_end;
  // Throws on a bad eps of a phase in scope, even over empty trees.
  const double factor2 = want_born ? born_far_factor2(params) : 0.0;
  if (want_epol && params.eps_epol <= 0.0) {
    throw std::invalid_argument("ApproxParams: eps must be > 0");
  }
  const double far_mult = 1.0 + 2.0 / params.eps_epol;

  InteractionPlan plan;
  const auto q_leaves = want_born && !atoms.empty()
                            ? qpoints.leaves()
                            : std::span<const std::uint32_t>{};
  const auto a_leaves = atoms.leaves();
  const auto clamp = [](std::size_t b, std::size_t e, std::size_t n) {
    e = std::min(e, n);
    return std::pair{std::min(b, e), e};
  };
  const auto [qb, qe] = clamp(scope.born_begin, scope.born_end,
                              q_leaves.size());
  const auto [vb, ve] =
      clamp(scope.epol_begin, scope.epol_end, want_epol ? a_leaves.size() : 0);
  plan.scope = {qb, qe, vb, ve};

  // Both phases iterate source leaves; process them as one index space
  // [0, nq + nv) so a single range partition load-balances both.
  const std::size_t nq = qe - qb;
  const std::size_t total_leaves = nq + (ve - vb);

  auto range_body = [&](std::size_t lo, std::size_t hi, LocalLists& out) {
    for (std::size_t i = lo; i < hi && i < nq; ++i) {
      plan_born_leaf(atoms, qpoints, q_leaves[qb + i], factor2, out);
    }
    for (std::size_t i = std::max(lo, nq); i < hi; ++i) {
      const std::size_t ord = vb + (i - nq);
      plan_epol_leaf(atoms, static_cast<std::uint32_t>(ord), a_leaves[ord],
                     far_mult, out);
    }
  };

  // Fixed range decomposition (not dynamic chunking) keeps the merge
  // order -- and therefore the plan -- independent of thread timing.
  const std::size_t num_ranges =
      pool == nullptr ? 1
                      : std::min<std::size_t>(total_leaves,
                                              pool->num_workers() * 4);
  std::vector<LocalLists> buckets(std::max<std::size_t>(1, num_ranges));
  if (num_ranges <= 1) {
    range_body(0, total_leaves, buckets[0]);
  } else {
    pool->run([&] {
      parallel::TaskGroup tg(*pool);
      for (std::size_t r = 0; r < num_ranges; ++r) {
        const std::size_t lo = total_leaves * r / num_ranges;
        const std::size_t hi = total_leaves * (r + 1) / num_ranges;
        tg.spawn([&, lo, hi, r] { range_body(lo, hi, buckets[r]); });
      }
      tg.wait();
    });
  }

  for (const LocalLists& b : buckets) {
    plan.born_near.insert(plan.born_near.end(), b.born_near.begin(),
                          b.born_near.end());
    plan.born_far.insert(plan.born_far.end(), b.born_far.begin(),
                         b.born_far.end());
    plan.epol_near.insert(plan.epol_near.end(), b.epol_near.begin(),
                          b.epol_near.end());
    plan.epol_far.insert(plan.epol_far.end(), b.epol_far.begin(),
                         b.epol_far.end());
  }

  // Cost-balanced chunk tables for the executor. Near pairs cost the
  // product of their point counts; a far deposit is one kernel call; a
  // bin-bin block touches a handful of non-empty bin combinations (the
  // bins do not exist yet -- the plan is Born-radius independent -- so
  // a flat estimate stands in).
  constexpr std::size_t kTargetChunks = 64;
  constexpr double kFarBinCost = 8.0;
  const auto count_of = [](const octree::Octree& t, std::uint32_t n) {
    return static_cast<double>(t.node(n).count());
  };
  plan.born_near_chunks = make_chunks(
      plan.born_near, kTargetChunks, false, [&](const NodePair& p) {
        return count_of(atoms, p.target) * count_of(qpoints, p.source);
      });
  plan.born_far_chunks = make_chunks(plan.born_far, kTargetChunks, false,
                                     [](const NodePair&) { return 1.0; });
  plan.epol_near_chunks = make_chunks(
      plan.epol_near, kTargetChunks, true, [&](const NodePair& p) {
        return count_of(atoms, a_leaves[p.target]) *
               count_of(atoms, p.source);
      });
  plan.epol_far_chunks =
      make_chunks(plan.epol_far, kTargetChunks, true,
                  [](const NodePair&) { return kFarBinCost; });

#if defined(OCTGB_VALIDATE_BUILD)
  if (analysis::test_corruption("plan_drop") && !plan.born_near.empty()) {
    // Mutation self-test hook (scripts/ci.sh --validate-only): drop one
    // near pair so the coverage proof in the checkpoint below must fire.
    plan.born_near.pop_back();
    if (plan.born_near_chunks.size() >= 2) {
      plan.born_near_chunks.back() =
          static_cast<std::uint32_t>(plan.born_near.size());
    }
  }
#endif
  OCTGB_VALIDATE_CHECKPOINT(
      analysis::validate_plan(atoms, qpoints, plan, params),
      "interaction plan");
  return plan;
}

InteractionPlan build_interaction_plan(const BornOctrees& trees,
                                       const ApproxParams& params,
                                       parallel::WorkStealingPool* pool) {
  return build_interaction_plan(trees.atoms, trees.qpoints, params,
                                PlanScope{}, pool);
}

}  // namespace octgb::gb
