#include "src/gb/epol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/parallel/det_reduce.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

int ChargeBins::bin_of(double born) const {
  if (born <= r_min) return 0;
  // lint:allow(narrow-cast) log-bin truncation is the binning rule itself
  const int k = static_cast<int>(std::log(born / r_min) * inv_log1p);
  return std::clamp(k, 0, num_bins - 1);
}

ChargeBins build_charge_bins(const octree::Octree& tree,
                             std::span<const double> charges,
                             std::span<const double> born_radii,
                             double eps, int max_bins) {
  if (eps <= 0.0) {
    throw std::invalid_argument("build_charge_bins: eps must be > 0");
  }
  ChargeBins bins;
  if (tree.empty()) return bins;

  double r_min = born_radii[0], r_max = born_radii[0];
  for (const double r : born_radii) {
    r_min = std::min(r_min, r);
    r_max = std::max(r_max, r);
  }
  bins.r_min = r_min;
  const double log1p = std::log(1.0 + eps);
  const int m = std::max(
      1, static_cast<int>(std::ceil(std::log(r_max / r_min) / log1p)));
  bins.num_bins = std::min(m, max_bins);
  // If capped, widen the effective bins so the range is still covered.
  const double eff_log1p =
      std::max(log1p, std::log(r_max / r_min) /
                          std::max(1, bins.num_bins));
  bins.inv_log1p = 1.0 / eff_log1p;
  bins.bin_radius.resize(static_cast<std::size_t>(bins.num_bins));
  for (int k = 0; k < bins.num_bins; ++k) {
    // Geometric bin midpoint: R_min (1+eps_eff)^(k + 1/2).
    bins.bin_radius[static_cast<std::size_t>(k)] =
        r_min *
        std::exp(eff_log1p * (k + 0.5));  // lint:allow(fastmath) bin setup, not a kernel
  }

  bins.q.assign(tree.num_nodes() * static_cast<std::size_t>(bins.num_bins),
                0.0);
  const auto index = tree.point_index();
  // Reverse sweep: leaves fill from their atoms, parents sum children.
  for (std::size_t n = tree.num_nodes(); n-- > 0;) {
    const octree::Node& node = tree.node(n);
    double* row = &bins.q[n * static_cast<std::size_t>(bins.num_bins)];
    if (node.leaf) {
      for (std::uint32_t ai = node.begin; ai < node.end; ++ai) {
        const std::uint32_t a = index[ai];
        row[bins.bin_of(born_radii[a])] += charges[a];
      }
    } else {
      for (const auto child : node.children) {
        if (child == octree::Node::kInvalid) continue;
        const double* crow =
            &bins.q[child * static_cast<std::size_t>(bins.num_bins)];
        for (int k = 0; k < bins.num_bins; ++k) row[k] += crow[k];
      }
    }
  }

  // CSR lists of non-empty bins per node, so the far-field kernel skips
  // the empty combinations instead of re-discovering them every call.
  bins.nz_offset.assign(tree.num_nodes() + 1, 0);
  bins.nz_bin.reserve(tree.num_nodes() * 2);
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    const double* row = &bins.q[n * static_cast<std::size_t>(bins.num_bins)];
    for (int k = 0; k < bins.num_bins; ++k) {
      if (row[k] != 0.0) {  // lint:allow(float-eq) empty charge bin, stored exact
        bins.nz_bin.push_back(static_cast<std::uint16_t>(k));
      }
    }
    bins.nz_offset[n + 1] = static_cast<std::uint32_t>(bins.nz_bin.size());
  }

#if defined(OCTGB_VALIDATE_BUILD)
  if (analysis::test_corruption("bin_charge") && !bins.q.empty()) {
    // Mutation self-test hook: perturb the root histogram so the charge
    // conservation check in the checkpoint below must fire.
    bins.q[0] += 1.0;
  }
#endif
  OCTGB_VALIDATE_CHECKPOINT(
      analysis::validate_charge_bins(tree, bins, charges), "charge bins");
  return bins;
}

double approx_epol(const octree::Octree& tree,
                   const molecule::Molecule& mol, const ChargeBins& bins,
                   std::span<const double> born_radii,
                   std::size_t leaf_begin, std::size_t leaf_end,
                   const ApproxParams& params,
                   parallel::WorkStealingPool* pool) {
  if (tree.empty()) return 0.0;
  const InteractionPlan plan =
      build_interaction_plan(tree, octree::Octree{}, params,
                             PlanScope::epol_only(leaf_begin, leaf_end), pool);
  return execute_epol_plan(tree, mol, bins, born_radii, plan,
                           params.approx_math, pool);
}

EpolResult epol_octree(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii,
                       const ApproxParams& params, const Physics& physics,
                       parallel::WorkStealingPool* pool) {
  const InteractionPlan plan = build_interaction_plan(
      tree, octree::Octree{}, params, PlanScope::epol_only(), pool);
  return epol_batched(tree, mol, born_radii, plan, params, physics, pool);
}

EpolResult epol_dualtree(const octree::Octree& tree,
                         const molecule::Molecule& mol,
                         std::span<const double> born_radii,
                         const ApproxParams& params, const Physics& physics,
                         parallel::WorkStealingPool* pool) {
  EpolResult out;
  if (tree.empty()) return out;
  const ChargeBins bins =
      build_charge_bins(tree, mol.charges(), born_radii, params.eps_epol);
  const double far_mult = 1.0 + 2.0 / params.eps_epol;

  struct Pair {
    std::uint32_t u, v;
  };

  auto eval_pair = [&](const Pair& pr, auto&& recurse_out) -> double {
    const octree::Node& u_node = tree.node(pr.u);
    const octree::Node& v_node = tree.node(pr.v);
    const double s = (u_node.radius + v_node.radius) * far_mult;
    const double d2 = geom::distance2(u_node.center, v_node.center);
    // Far boxes need both sides internal-or-leaf alike; the bin
    // histograms exist for every node, so the test is uniform.
    if (d2 > s * s && d2 > 0.0) {
      return epol_far_block(bins, pr.u, pr.v, d2, params.approx_math);
    }
    if (u_node.leaf && v_node.leaf) {
      return epol_exact_block(tree, mol, born_radii, pr.u, pr.v,
                              params.approx_math);
    }
    const bool split_u =
        !u_node.leaf && (v_node.leaf || u_node.radius >= v_node.radius);
    if (split_u) {
      for (const auto child : u_node.children) {
        if (child != octree::Node::kInvalid) recurse_out({child, pr.v});
      }
    } else {
      for (const auto child : v_node.children) {
        if (child != octree::Node::kInvalid) recurse_out({pr.u, child});
      }
    }
    return 0.0;
  };

  auto process = [&](Pair start) {
    double sum = 0.0;
    std::vector<Pair> stack{start};
    while (!stack.empty()) {
      const Pair pr = stack.back();
      stack.pop_back();
      sum += eval_pair(pr, [&](Pair p) { stack.push_back(p); });
    }
    return sum;
  };

  // Expand a frontier for parallel distribution (as in born dual-tree).
  // Terminal pairs (far boxes / leaf-leaf blocks) encountered during
  // expansion are evaluated immediately into expanded_sum; only pairs
  // that still need recursion stay in the frontier.
  std::vector<Pair> frontier{{tree.root_index(), tree.root_index()}};
  double expanded_sum = 0.0;
  const std::size_t expand_target = pool ? 4096 : 1;
  while (!frontier.empty() && frontier.size() < expand_target) {
    std::vector<Pair> next;
    next.reserve(frontier.size() * 4);
    bool any_expanded = false;
    for (const Pair& pr : frontier) {
      bool expanded = false;
      expanded_sum += eval_pair(pr, [&](Pair p) {
        next.push_back(p);
        expanded = true;
      });
      any_expanded = any_expanded || expanded;
    }
    frontier = std::move(next);
    if (!any_expanded) break;
  }
  std::vector<Pair> all(std::move(frontier));

  double sum = expanded_sum;
  // Fixed reduction order (ascending pair index): the pooled dual-tree
  // energy matches the serial loop bit for bit at any worker count.
  const auto one_pair = [&](std::size_t i) { return process(all[i]); };
  if (pool != nullptr) {
    double total = 0.0;
    pool->run([&] {
      total = parallel::deterministic_sum(pool, 0, all.size(), one_pair);
    });
    sum += total;
  } else {
    sum += parallel::deterministic_sum(nullptr, 0, all.size(), one_pair);
  }
  out.energy = -0.5 * physics.tau() * physics.coulomb_k * sum;
  return out;
}

}  // namespace octgb::gb
