#include "src/gb/born.h"

#include <cmath>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/kernels_batch.h"
#include "src/util/fastmath.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

double born_far_factor2(const ApproxParams& params) {
  const double eps = params.eps_born;
  if (eps <= 0.0) {
    throw std::invalid_argument("ApproxParams: eps must be > 0");
  }
  double f;
  if (params.strict_born_criterion) {
    // lint:allow(sqrt-domain) eps > 0 was just validated above
    const double k = std::pow(1.0 + eps, 1.0 / 6.0);
    f = (k + 1.0) / (k - 1.0);
  } else {
    f = 1.0 + 2.0 / eps;
  }
  return f * f;
}

namespace {

template <typename Math, int Power>
void push_integrals_recurse(const BornOctrees& trees,
                            const molecule::Molecule& mol,
                            const BornWorkspace& ws, std::uint32_t a_idx,
                            double prefix, std::size_t begin,
                            std::size_t end, std::span<double> out,
                            parallel::WorkStealingPool* pool) {
  const octree::Node& node = trees.atoms.node(a_idx);
  if (node.end <= begin || node.begin >= end) return;  // outside segment
  const double total = prefix + ws.node_s[a_idx];
  const auto a_index = trees.atoms.point_index();
  const auto radii = mol.radii();
  if (node.leaf) {
    const auto lo = std::max<std::size_t>(node.begin, begin);
    const auto hi = std::min<std::size_t>(node.end, end);
    for (std::size_t ai = lo; ai < hi; ++ai) {
      const std::uint32_t a = a_index[ai];
      out[a] = born_radius<Power, Math>(ws.atom_s[a] + total, radii[a]);
    }
    return;
  }
  if (pool != nullptr && node.count() > 4096) {
    parallel::TaskGroup tg(*pool);
    for (const auto child : node.children) {
      if (child == octree::Node::kInvalid) continue;
      tg.spawn([&, child] {
        push_integrals_recurse<Math, Power>(trees, mol, ws, child, total,
                                            begin, end, out, pool);
      });
    }
    tg.wait();
  } else {
    for (const auto child : node.children) {
      if (child == octree::Node::kInvalid) continue;
      push_integrals_recurse<Math, Power>(trees, mol, ws, child, total,
                                          begin, end, out, nullptr);
    }
  }
}

}  // namespace

std::vector<geom::Vec3> q_weighted_normals(
    const octree::Octree& qt, const surface::QuadratureSurface& surf,
    parallel::WorkStealingPool* pool) {
  // Bottom-up, level at a time (deep to shallow), so every child sum is
  // complete before its parent reads it. Within a level nodes are
  // independent; each node sums its own inputs in a fixed order, so
  // parallel and serial sweeps agree bit for bit.
  std::vector<geom::Vec3> out(qt.num_nodes(), geom::Vec3{});
  const auto q_index = qt.point_index();
  auto sweep = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const octree::Node& node = qt.node(i);
      geom::Vec3 sum;
      if (node.leaf) {
        for (std::uint32_t qi = node.begin; qi < node.end; ++qi) {
          const std::uint32_t q = q_index[qi];
          sum += surf.normals[q] * surf.weights[q];
        }
      } else {
        for (const auto child : node.children) {
          if (child != octree::Node::kInvalid) sum += out[child];
        }
      }
      out[i] = sum;
    }
  };
  const auto level_offset = qt.level_offset();
  for (std::size_t level = level_offset.size(); level-- > 1;) {
    const std::size_t lo = level_offset[level - 1];
    const std::size_t hi = level_offset[level];
    if (pool != nullptr && pool->num_workers() > 1 && hi - lo > 128) {
      pool->run(
          [&] { parallel::parallel_for(*pool, lo, hi, 64, sweep); });
    } else {
      sweep(lo, hi);
    }
  }
  return out;
}

BornOctrees build_born_octrees(const molecule::Molecule& mol,
                               const surface::QuadratureSurface& surf,
                               const octree::OctreeParams& params,
                               parallel::WorkStealingPool* pool) {
  BornOctrees trees;
  trees.atoms = octree::Octree(mol.positions(), params, pool);
  trees.qpoints = octree::Octree(surf.points, params, pool);
  trees.q_weighted_normal = q_weighted_normals(trees.qpoints, surf, pool);
  return trees;
}

void approx_integrals(const BornOctrees& trees,
                      const molecule::Molecule& mol,
                      const surface::QuadratureSurface& surf,
                      std::size_t qleaf_begin, std::size_t qleaf_end,
                      const ApproxParams& params, BornWorkspace& ws,
                      parallel::WorkStealingPool* pool) {
  if (trees.atoms.empty() || trees.qpoints.empty()) return;
  const InteractionPlan plan = build_interaction_plan(
      trees.atoms, trees.qpoints, params,
      PlanScope::born_only(qleaf_begin, qleaf_end), pool);
  execute_born_plan(born_inputs(trees, mol, surf), plan,
                    BornKernel::kSurfaceR6, ws, pool);
}

void push_integrals_to_atoms(const BornOctrees& trees,
                             const molecule::Molecule& mol,
                             const BornWorkspace& ws,
                             std::size_t atom_begin, std::size_t atom_end,
                             const ApproxParams& params,
                             std::span<double> out_radii,
                             parallel::WorkStealingPool* pool) {
  push_integrals_to_atoms(trees, mol, ws, atom_begin, atom_end, params,
                          BornKernel::kSurfaceR6, out_radii, pool);
}

void push_integrals_to_atoms(const BornOctrees& trees,
                             const molecule::Molecule& mol,
                             const BornWorkspace& ws,
                             std::size_t atom_begin, std::size_t atom_end,
                             const ApproxParams& params, BornKernel kernel,
                             std::span<double> out_radii,
                             parallel::WorkStealingPool* pool) {
  if (trees.atoms.empty()) return;
  atom_end = std::min(atom_end, trees.atoms.num_points());
  if (atom_begin >= atom_end) return;
  const bool r4 = kernel == BornKernel::kSurfaceR4;
  const auto push =
      params.approx_math
          ? (r4 ? push_integrals_recurse<util::ApproxMath, 4>
                : push_integrals_recurse<util::ApproxMath, 6>)
          : (r4 ? push_integrals_recurse<util::ExactMath, 4>
                : push_integrals_recurse<util::ExactMath, 6>);
  auto launch = [&](parallel::WorkStealingPool* p) {
    push(trees, mol, ws, trees.atoms.root_index(), 0.0, atom_begin,
         atom_end, out_radii, p);
  };
  if (pool != nullptr) {
    pool->run([&] { launch(pool); });
  } else {
    launch(nullptr);
  }

#if defined(OCTGB_VALIDATE_BUILD)
  if (analysis::test_corruption("born_sign")) {
    // Mutation self-test hook (scripts/ci.sh --validate-only): flip the
    // sign of one computed radius so the checkpoint below must fire.
    out_radii[trees.atoms.point_index()[atom_begin]] *= -1.0;
  }
  if (atom_begin == 0 && atom_end == mol.size()) {
    // Segment calls (distributed ranks) leave the rest of out_radii
    // untouched, so only full-range pushes can be deep-checked.
    OCTGB_VALIDATE_CHECKPOINT(
        analysis::validate_born_radii(mol.radii(), out_radii),
        "PUSH-INTEGRALS radii");
  }
#endif
}

void approx_integrals_cross(const octree::Octree& atoms_tree,
                            const molecule::Molecule& atoms_mol,
                            const octree::Octree& q_tree,
                            std::span<const geom::Vec3> q_node_normals,
                            const surface::QuadratureSurface& surf,
                            const ApproxParams& params, BornWorkspace& ws,
                            parallel::WorkStealingPool* pool) {
  if (atoms_tree.empty() || q_tree.empty()) return;
  const InteractionPlan plan = build_interaction_plan(
      atoms_tree, q_tree, params, PlanScope::born_only(), pool);
  execute_born_plan({atoms_tree, atoms_mol, q_tree, q_node_normals, surf},
                    plan, BornKernel::kSurfaceR6, ws, pool);
}

void collect_integrals_to_atoms(const octree::Octree& atoms_tree,
                                const BornWorkspace& ws,
                                std::span<double> out_sums) {
  if (atoms_tree.empty()) return;
  // DFS with ancestor prefix sums; the tree is in pre-order, so a simple
  // recursion over node indices suffices.
  struct Frame {
    std::uint32_t node;
    double prefix;
  };
  std::vector<Frame> stack{{atoms_tree.root_index(), 0.0}};
  const auto index = atoms_tree.point_index();
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const octree::Node& node = atoms_tree.node(f.node);
    const double total = f.prefix + ws.node_s[f.node];
    if (node.leaf) {
      for (std::uint32_t ai = node.begin; ai < node.end; ++ai) {
        const std::uint32_t a = index[ai];
        out_sums[a] = ws.atom_s[a] + total;
      }
      continue;
    }
    for (const auto child : node.children) {
      if (child != octree::Node::kInvalid) stack.push_back({child, total});
    }
  }
}

BornRadiiResult born_radii_octree(const BornOctrees& trees,
                                  const molecule::Molecule& mol,
                                  const surface::QuadratureSurface& surf,
                                  const ApproxParams& params,
                                  parallel::WorkStealingPool* pool) {
  const InteractionPlan plan = build_interaction_plan(
      trees.atoms, trees.qpoints, params, PlanScope::born_only(), pool);
  return born_radii_batched(trees, mol, surf, plan, params, pool);
}

BornRadiiResult born_radii_dualtree(const BornOctrees& trees,
                                    const molecule::Molecule& mol,
                                    const surface::QuadratureSurface& surf,
                                    const ApproxParams& params,
                                    parallel::WorkStealingPool* pool) {
  const InteractionPlan plan = build_interaction_plan(
      trees.atoms, trees.qpoints, params, PlanScope::born_only(), pool,
      Traversal::kDualTree);
  return born_radii_batched(trees, mol, surf, plan, params, pool);
}

}  // namespace octgb::gb
