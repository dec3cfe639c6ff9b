#include "src/gb/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/gb/interaction_lists.h"
#include "src/geom/vec3.h"

namespace octgb::gb {

namespace {

// Folds one phase's near and far lists into `stats`. `target_node` maps
// a list's target field to its node in `targets`. Every far item has
// d > s, since the plan accepts it only beyond (r_U + r_V) * f, f > 1.
template <typename TargetNode>
void count_lists(const std::vector<NodePair>& near,
                 const std::vector<NodePair>& far,
                 const octree::Octree& targets,
                 const octree::Octree& sources, TargetNode&& target_node,
                 TraversalStats& stats) {
  stats.exact_blocks = near.size();
  for (const NodePair& p : near) {
    stats.exact_pairs += targets.node(target_node(p)).count() *
                         sources.node(p.source).count();
  }
  stats.far_boxes = far.size();
  for (const NodePair& p : far) {
    const octree::Node& t = targets.node(target_node(p));
    const octree::Node& u = sources.node(p.source);
    const double s = t.radius + u.radius;
    const double d = std::sqrt(geom::distance2(t.center, u.center));
    stats.max_kernel_spread =
        std::max(stats.max_kernel_spread, (d + s) / (d - s));
  }
}

}  // namespace

TraversalStats born_traversal_stats(const BornOctrees& trees,
                                    const ApproxParams& params) {
  TraversalStats stats;
  if (trees.atoms.empty() || trees.qpoints.empty()) return stats;
  stats.naive_pairs =
      trees.atoms.num_points() * trees.qpoints.num_points();
  const InteractionPlan plan = build_interaction_plan(
      trees.atoms, trees.qpoints, params, PlanScope::born_only());
  count_lists(plan.born_near, plan.born_far, trees.atoms, trees.qpoints,
              [](const NodePair& p) { return p.target; }, stats);
  return stats;
}

TraversalStats epol_traversal_stats(const octree::Octree& atoms_tree,
                                    const ApproxParams& params) {
  TraversalStats stats;
  if (atoms_tree.empty()) return stats;
  stats.naive_pairs = atoms_tree.num_points() * atoms_tree.num_points();
  const InteractionPlan plan = build_interaction_plan(
      atoms_tree, atoms_tree, params, PlanScope::epol_only());
  const auto leaves = atoms_tree.leaves();
  count_lists(plan.epol_near, plan.epol_far, atoms_tree, atoms_tree,
              [&](const NodePair& p) { return leaves[p.target]; }, stats);
  return stats;
}

}  // namespace octgb::gb
