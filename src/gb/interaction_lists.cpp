#include "src/gb/interaction_lists.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/geom/vec3.h"
#include "src/telemetry/telemetry.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

namespace {

// Born-phase traversal for one T_Q leaf (Figure 2): far test first,
// then leaf, then children pushed in declaration order.
void plan_born_leaf(const octree::Octree& atoms_tree,
                    const octree::Octree& q_tree, std::uint32_t qleaf,
                    double factor2, InteractionPlan& out) {
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

// One step of the dual-tree visit [Chowdhury & Bajaj 2010] on the
// (T_A node, T_Q node) pair `p`: a far pair is a monopole deposit, a
// leaf x leaf pair an exact block; otherwise the larger internal node
// is split and its child pairs handed to `split`. Returns true when `p`
// was emitted.
template <typename Split>
bool visit_born_dual(const octree::Octree& atoms_tree,
                     const octree::Octree& q_tree, NodePair p,
                     double factor2, InteractionPlan& out, Split&& split) {
  const octree::Node& a_node = atoms_tree.node(p.target);
  const octree::Node& q_node = q_tree.node(p.source);
  const double s = a_node.radius + q_node.radius;
  const double d2 = geom::distance2(a_node.center, q_node.center);
  if (d2 > s * s * factor2 && d2 > 0.0) {
    out.born_far.push_back(p);
    return true;
  }
  if (a_node.leaf && q_node.leaf) {
    out.born_near.push_back(p);
    return true;
  }
  const bool split_a =
      !a_node.leaf && (q_node.leaf || a_node.radius >= q_node.radius);
  for (const auto child : split_a ? a_node.children : q_node.children) {
    if (child == octree::Node::kInvalid) continue;
    split(split_a ? NodePair{child, p.source} : NodePair{p.target, child});
  }
  return false;
}

// Depth-first dual-tree visit below one frontier pair.
void plan_born_dual(const octree::Octree& atoms_tree,
                    const octree::Octree& q_tree, NodePair start,
                    double factor2, InteractionPlan& out) {
  std::vector<NodePair> stack{start};
  while (!stack.empty()) {
    const NodePair p = stack.back();
    stack.pop_back();
    visit_born_dual(atoms_tree, q_tree, p, factor2, out,
                    [&](NodePair c) { stack.push_back(c); });
  }
}

// Breadth-first expansion of (root, root) into the dual visit's
// frontier: pairs still to be split are replaced by their children in
// place, emitted pairs stay as they are (their depth-first visit emits
// just themselves). The size bound is a constant, so the frontier -- and
// with it the plan -- depends only on the trees.
std::vector<NodePair> born_dual_frontier(const octree::Octree& atoms_tree,
                                         const octree::Octree& q_tree,
                                         double factor2) {
  constexpr std::size_t kFrontierPairs = 4096;
  std::vector<NodePair> frontier{
      {atoms_tree.root_index(), q_tree.root_index()}};
  InteractionPlan scratch;
  bool split_any = true;
  while (split_any && frontier.size() < kFrontierPairs) {
    split_any = false;
    std::vector<NodePair> next;
    for (const NodePair p : frontier) {
      if (visit_born_dual(atoms_tree, q_tree, p, factor2, scratch,
                          [&](NodePair c) { next.push_back(c); })) {
        next.push_back(p);
      } else {
        split_any = true;
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

// E_pol-phase traversal for one T_A leaf V (Figure 3): leaf check
// FIRST, then the far test, then children. `vleaf_ord` is V's ordinal
// in tree.leaves() -- the plan records ordinals so the executor can
// keep per-leaf accumulators in a flat array.
void plan_epol_leaf(const octree::Octree& tree, std::uint32_t vleaf_ord,
                    std::uint32_t vleaf, double far_mult,
                    InteractionPlan& out) {
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
// cost, at the first item boundary between two targets, so no chunk
// splits the items of one target. Offsets always start at 0 and end at
// items.size().
template <typename CostFn>
std::vector<std::uint32_t> make_chunks(const std::vector<NodePair>& items,
                                       std::size_t target_chunks,
                                       CostFn&& cost) {
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
        items[i + 1].target != items[i].target) {
      offsets.push_back(static_cast<std::uint32_t>(i + 1));
      acc = 0.0;
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(items.size()));
  return offsets;
}

using PairList = std::vector<NodePair> InteractionPlan::*;
constexpr PairList kPairLists[] = {
    &InteractionPlan::born_near, &InteractionPlan::born_far,
    &InteractionPlan::epol_near, &InteractionPlan::epol_far};

// Merges the buckets' lists into `plan` with a stable counting sort by
// target -- the three phases of src/parallel/radix_sort.h with one
// digit: per-bucket per-target counts (cursor[b * T + t]), an exclusive
// scan over (target, bucket), and a per-bucket scatter on the pool.
// Each target's items keep bucket order and emission order within a
// bucket, so the merged lists are target-major, and a target's items
// stay in the serial visit order whatever the bucket count. E_pol
// buckets are already grouped by ascending v-leaf, so the sort leaves
// those lists as a concatenation would.
void merge_by_target(std::vector<InteractionPlan>& buckets,
                     std::size_t born_targets, std::size_t epol_targets,
                     InteractionPlan& plan,
                     parallel::WorkStealingPool* pool) {
  const std::size_t nb = buckets.size();
  const std::size_t num_targets[] = {born_targets, born_targets,
                                     epol_targets, epol_targets};
  static_assert(std::size(num_targets) == std::size(kPairLists));
  std::vector<std::uint32_t> cursor[std::size(kPairLists)];
  const auto for_buckets = [&](auto&& body) {
    if (pool == nullptr || nb <= 1) {
      for (std::size_t b = 0; b < nb; ++b) body(b);
      return;
    }
    pool->run([&] {
      parallel::parallel_for(*pool, 0, nb, 1,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t b = lo; b < hi; ++b) body(b);
                             });
    });
  };

  // One bucket already in target order -- a serial build's E_pol
  // lists -- is its merged list as it stands.
  bool in_place[std::size(kPairLists)] = {};
  for (std::size_t l = 0; l < std::size(kPairLists); ++l) {
    std::vector<NodePair>& only = buckets[0].*kPairLists[l];
    in_place[l] = nb == 1 && std::is_sorted(only.begin(), only.end(),
                                            [](NodePair x, NodePair y) {
                                              return x.target < y.target;
                                            });
    if (in_place[l]) (plan.*kPairLists[l]).swap(only);
    cursor[l].assign(nb * num_targets[l], 0);
  }
  for_buckets([&](std::size_t b) {
    for (std::size_t l = 0; l < std::size(kPairLists); ++l) {
      std::uint32_t* counts = &cursor[l][b * num_targets[l]];
      for (const NodePair& p : buckets[b].*kPairLists[l]) ++counts[p.target];
    }
  });
  for (std::size_t l = 0; l < std::size(kPairLists); ++l) {
    if (in_place[l]) continue;
    const std::size_t nt = num_targets[l];
    std::uint32_t total = 0;
    for (std::size_t t = 0; t < nt; ++t) {
      for (std::size_t b = 0; b < nb; ++b) {
        const std::uint32_t count = cursor[l][b * nt + t];
        cursor[l][b * nt + t] = total;
        total += count;
      }
    }
    (plan.*kPairLists[l]).resize(total);
  }
  for_buckets([&](std::size_t b) {
    for (std::size_t l = 0; l < std::size(kPairLists); ++l) {
      std::uint32_t* slot = &cursor[l][b * num_targets[l]];
      NodePair* out = (plan.*kPairLists[l]).data();
      for (const NodePair& p : buckets[b].*kPairLists[l]) {
        out[slot[p.target]++] = p;
      }
      // Spent: free it here, on the pool, rather than at the caller's
      // return.
      std::vector<NodePair>().swap(buckets[b].*kPairLists[l]);
    }
  });
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
                                       parallel::WorkStealingPool* pool,
                                       Traversal traversal) {
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

  // The dual visit starts from the frontier of (root, root), so it
  // covers every q-leaf or none.
  const bool dual = traversal == Traversal::kDualTree;
  if (dual && qb < qe && (qb != 0 || qe != q_leaves.size())) {
    throw std::invalid_argument(
        "build_interaction_plan: a dual-tree plan covers every q-leaf");
  }
  const std::vector<NodePair> frontier =
      dual && qb < qe ? born_dual_frontier(atoms, qpoints, factor2)
                      : std::vector<NodePair>{};

  // Both phases iterate source units -- q-leaves, or frontier pairs of
  // the dual visit, then v-leaves -- as one index space [0, nq + nv),
  // so a single range partition load-balances both.
  const std::size_t nq = dual ? frontier.size() : qe - qb;
  const std::size_t total_units = nq + (ve - vb);

  auto range_body = [&](std::size_t lo, std::size_t hi,
                        InteractionPlan& out) {
    for (std::size_t i = lo; i < hi && i < nq; ++i) {
      if (dual) {
        plan_born_dual(atoms, qpoints, frontier[i], factor2, out);
      } else {
        plan_born_leaf(atoms, qpoints, q_leaves[qb + i], factor2, out);
      }
    }
    for (std::size_t i = std::max(lo, nq); i < hi; ++i) {
      const std::size_t ord = vb + (i - nq);
      plan_epol_leaf(atoms, static_cast<std::uint32_t>(ord), a_leaves[ord],
                     far_mult, out);
    }
  };

  // Fixed range decomposition (not dynamic chunking), merged by a
  // stable sort: the plan is independent of thread timing and of the
  // worker count.
  const std::size_t num_ranges =
      pool == nullptr ? 1
                      : std::min<std::size_t>(total_units,
                                              pool->num_workers() * 4);
  std::vector<InteractionPlan> buckets(std::max<std::size_t>(1, num_ranges));
  if (num_ranges <= 1) {
    range_body(0, total_units, buckets[0]);
  } else {
    pool->run([&] {
      parallel::TaskGroup tg(*pool);
      for (std::size_t r = 0; r < num_ranges; ++r) {
        const std::size_t lo = total_units * r / num_ranges;
        const std::size_t hi = total_units * (r + 1) / num_ranges;
        tg.spawn([&, lo, hi, r] { range_body(lo, hi, buckets[r]); });
      }
      tg.wait();
    });
  }
  merge_by_target(buckets, atoms.num_nodes(), a_leaves.size(), plan, pool);

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
      plan.born_near, kTargetChunks, [&](const NodePair& p) {
        return count_of(atoms, p.target) * count_of(qpoints, p.source);
      });
  plan.born_far_chunks = make_chunks(plan.born_far, kTargetChunks,
                                     [](const NodePair&) { return 1.0; });
  plan.epol_near_chunks = make_chunks(
      plan.epol_near, kTargetChunks, [&](const NodePair& p) {
        return count_of(atoms, a_leaves[p.target]) *
               count_of(atoms, p.source);
      });
  plan.epol_far_chunks =
      make_chunks(plan.epol_far, kTargetChunks,
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
