#include "src/analysis/validate.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "src/geom/morton.h"

namespace octgb::analysis {

namespace {

/// Containment / aggregation tolerance: the builders compute centers
/// and sums in one order, the validator in another, so allow a few ulps
/// scaled by the magnitude of the quantity.
constexpr double kRelTol = 1e-9;

bool finite3(const geom::Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

std::string Report::str() const {
  constexpr std::size_t kMaxShown = 8;
  std::string out;
  const std::size_t n = std::min(errors.size(), kMaxShown);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += "\n***   ";
    out += errors[i];
  }
  if (errors.size() > kMaxShown) {
    out += "\n***   ... and " + std::to_string(errors.size() - kMaxShown) +
           " more";
  }
  return out;
}

void Report::fail(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  errors.emplace_back(buf);
}

Report validate_octree(const octree::Octree& tree,
                       std::span<const geom::Vec3> points,
                       const octree::OctreeParams* params) {
  Report rep;
  if (tree.empty()) {
    if (!points.empty()) {
      rep.fail("octree: empty tree over %zu points", points.size());
    }
    return rep;
  }
  const std::size_t n = tree.num_points();
  if (n != points.size()) {
    rep.fail("octree: %zu indexed points but %zu given", n, points.size());
    return rep;  // everything below indexes `points`
  }

  // point_index is a permutation of [0, n).
  {
    std::vector<bool> seen(n, false);
    for (const std::uint32_t p : tree.point_index()) {
      if (p >= n) {
        rep.fail("octree: point_index entry %u out of range", p);
      } else if (seen[p]) {
        rep.fail("octree: point %u appears twice in point_index", p);
      } else {
        seen[p] = true;
      }
    }
  }

  const octree::Node& root = tree.root();
  if (root.begin != 0 || root.end != n) {
    rep.fail("octree: root range [%u,%u) != [0,%zu)", root.begin, root.end,
             n);
  }
  if (root.parent != octree::Node::kInvalid || root.depth != 0) {
    rep.fail("octree: root has parent %u depth %d", root.parent,
             int(root.depth));
  }

  std::vector<std::uint32_t> leaf_dfs;
  int max_depth_seen = 0;
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const octree::Node& node = tree.node(i);
    max_depth_seen = std::max(max_depth_seen, int(node.depth));
    if (node.begin >= node.end || node.end > n) {
      rep.fail("octree: node %zu has bad range [%u,%u)", i, node.begin,
               node.end);
      continue;
    }
    if (!finite3(node.center) || !std::isfinite(node.radius) ||
        node.radius < 0.0) {
      rep.fail("octree: node %zu has non-finite center/radius", i);
      continue;
    }
    // Bounding sphere contains every point the node owns. This is the
    // invariant the far-field criterion consumes; refit must restore
    // it for the moved points.
    const double limit2 =
        node.radius * node.radius * (1.0 + kRelTol) + kRelTol;
    for (std::uint32_t pi = node.begin; pi < node.end; ++pi) {
      const geom::Vec3& p = points[tree.point_index()[pi]];
      if (geom::distance2(node.center, p) > limit2) {
        rep.fail("octree: node %zu radius %.6g excludes point %u "
                 "(dist %.6g)",
                 i, node.radius, tree.point_index()[pi],
                 std::sqrt(geom::distance2(node.center, p)));
        break;  // one finding per node localizes the bug
      }
    }

    if (node.leaf) {
      leaf_dfs.push_back(static_cast<std::uint32_t>(i));
      if (!node.children.empty()) {
        rep.fail("octree: leaf %zu has %zu children", i,
                 node.children.size());
      }
      if (params != nullptr && node.count() > params->leaf_capacity &&
          int(node.depth) <
              std::min(params->max_depth, octree::kMortonLevels)) {
        rep.fail("octree: leaf %zu holds %zu > leaf_capacity %zu above "
                 "max depth",
                 i, node.count(), params->leaf_capacity);
      }
      continue;
    }

    // Internal node: children partition [begin, end) exactly, in
    // ascending octant order, with consistent back links.
    std::uint32_t cursor = node.begin;
    int num_children = 0;
    for (const std::uint32_t c : node.children) {
      if (c == octree::Node::kInvalid) continue;
      ++num_children;
      if (c >= tree.num_nodes()) {
        rep.fail("octree: node %zu child %u out of range", i, c);
        continue;
      }
      const octree::Node& child = tree.node(c);
      if (child.parent != i) {
        rep.fail("octree: child %u of node %zu points back to %u", c, i,
                 child.parent);
      }
      if (int(child.depth) != int(node.depth) + 1) {
        rep.fail("octree: child %u depth %d != parent depth %d + 1", c,
                 int(child.depth), int(node.depth));
      }
      if (child.begin != cursor) {
        rep.fail("octree: node %zu children leave gap/overlap at %u "
                 "(child starts %u)",
                 i, cursor, child.begin);
      }
      cursor = child.end;
    }
    if (num_children == 0) {
      rep.fail("octree: internal node %zu has no children", i);
    }
    if (cursor != node.end) {
      rep.fail("octree: node %zu children cover [..,%u) != [..,%u)", i,
               cursor, node.end);
    }
  }

  // leaves() must be exactly the leaf set in Morton order (ascending
  // point ranges == the DFS visit order of the level-indexed tree).
  std::stable_sort(leaf_dfs.begin(), leaf_dfs.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return tree.node(a).begin < tree.node(b).begin;
            });
  const auto leaves = tree.leaves();
  if (leaves.size() != leaf_dfs.size() ||
      !std::equal(leaves.begin(), leaves.end(), leaf_dfs.begin())) {
    rep.fail("octree: leaves() disagrees with Morton-ordered leaf set "
             "(%zu vs %zu)",
             leaves.size(), leaf_dfs.size());
  }
  if (tree.height() != max_depth_seen) {
    rep.fail("octree: height() %d != max node depth %d", tree.height(),
             max_depth_seen);
  }

  // Level index: level d is exactly the contiguous node range
  // [level_offset[d], level_offset[d+1]), in ascending point order, and
  // children live in the next level's range (the BFS layout the sweeps
  // stream).
  const auto level_offset = tree.level_offset();
  if (level_offset.size() != static_cast<std::size_t>(tree.height()) + 2 ||
      level_offset.front() != 0 ||
      level_offset.back() != tree.num_nodes()) {
    rep.fail("octree: level_offset has %zu entries (height %d, %zu nodes)",
             level_offset.size(), tree.height(), tree.num_nodes());
  } else {
    for (int d = 0; d <= tree.height(); ++d) {
      if (level_offset[d] > level_offset[d + 1]) {
        rep.fail("octree: level_offset decreases at level %d", d);
        break;
      }
      for (std::uint32_t id = level_offset[d]; id < level_offset[d + 1];
           ++id) {
        const octree::Node& node = tree.node(id);
        if (int(node.depth) != d) {
          rep.fail("octree: node %u depth %d filed under level %d", id,
                   int(node.depth), d);
          break;
        }
        if (id > level_offset[d] && tree.node(id - 1).begin > node.begin) {
          rep.fail("octree: level %d nodes out of point order at %u", d, id);
          break;
        }
        if (!node.leaf &&
            (node.children.first < level_offset[d + 1] ||
             node.children.first + node.children.size() >
                 (d + 1 <= tree.height()
                      ? level_offset[d + 2]
                      : level_offset[d + 1]))) {
          rep.fail("octree: node %u children outside level %d range", id,
                   d + 1);
          break;
        }
      }
    }
  }

  // Key-range invariants, only while the tree claims to be the *exact*
  // octree of the given points (a refit that saw a key escape, or a
  // transform, clears the claim). Keys are re-derived from the points
  // so a corrupted key array cannot vouch for itself.
  if (tree.strict_morton()) {
    const auto keys = tree.keys();
    if (keys.size() != n) {
      rep.fail("octree: %zu keys for %zu points", keys.size(), n);
      return rep;
    }
    for (std::size_t li = 0; li < leaves.size(); ++li) {
      const std::uint32_t leaf = leaves[li];
      const octree::Node& node = tree.node(leaf);
      const std::uint64_t key_lo = tree.node_key_lo(leaf);
      const std::uint64_t key_span = tree.node_key_span(leaf);
      for (std::uint32_t pi = node.begin; pi < node.end; ++pi) {
        const std::uint64_t k =
            geom::morton_code(points[tree.point_index()[pi]], tree.cube());
        if (k != keys[pi]) {
          rep.fail("octree: stored key at sorted pos %u is stale", pi);
          break;
        }
        if (k < key_lo || k - key_lo >= key_span) {
          rep.fail("octree: key of sorted pos %u escapes leaf %u octant "
                   "range",
                   pi, leaf);
          break;
        }
      }
      if (rep.errors.size() > 64) return rep;
    }
  }
  return rep;
}

Report validate_born_octrees(const gb::BornOctrees& trees,
                             const surface::QuadratureSurface& surf) {
  Report rep;
  const octree::Octree& qt = trees.qpoints;
  if (trees.q_weighted_normal.size() != qt.num_nodes()) {
    rep.fail("born_octrees: %zu aggregates for %zu q-nodes",
             trees.q_weighted_normal.size(), qt.num_nodes());
    return rep;
  }
  if (qt.num_points() != surf.size()) {
    rep.fail("born_octrees: q-tree over %zu points, surface has %zu",
             qt.num_points(), surf.size());
    return rep;
  }
  for (std::size_t i = 0; i < qt.num_nodes(); ++i) {
    const octree::Node& node = qt.node(i);
    geom::Vec3 expect;
    if (node.leaf) {
      for (std::uint32_t qi = node.begin; qi < node.end; ++qi) {
        const std::uint32_t q = qt.point_index()[qi];
        expect += surf.normals[q] * surf.weights[q];
      }
    } else {
      for (const std::uint32_t c : node.children) {
        if (c != octree::Node::kInvalid) expect += trees.q_weighted_normal[c];
      }
    }
    const geom::Vec3& got = trees.q_weighted_normal[i];
    if (!finite3(got)) {
      rep.fail("born_octrees: aggregate of node %zu is non-finite", i);
      continue;
    }
    const double scale = 1.0 + std::abs(expect.x) + std::abs(expect.y) +
                         std::abs(expect.z);
    if (std::abs(got.x - expect.x) + std::abs(got.y - expect.y) +
            std::abs(got.z - expect.z) >
        kRelTol * scale) {
      rep.fail("born_octrees: node %zu aggregate drifts from its %s sum",
               i, node.leaf ? "leaf" : "children");
    }
  }
  return rep;
}

namespace {

// Coverage proof for one source leaf: every item the plan holds for
// this source is charged to its target node; a DFS then requires the
// running sum along every root-to-leaf path to hit exactly 1. That is
// the disjoint-and-exact property: each (atom, source) pair evaluated
// through exactly one near block or one far deposit.
void check_coverage(const octree::Octree& tree,
                    const std::unordered_map<std::uint32_t, int>& items,
                    const char* phase, std::uint32_t source, Report& rep) {
  for (const auto& [node, count] : items) {
    if (count > 1) {
      rep.fail("plan[%s]: node %u appears %d times for source %u", phase,
               node, count, source);
    }
  }
  struct Frame {
    std::uint32_t node;
    int covered;
  };
  std::vector<Frame> stack{{tree.root_index(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const octree::Node& node = tree.node(f.node);
    int covered = f.covered;
    const auto it = items.find(f.node);
    if (it != items.end()) covered += it->second;
    if (covered > 1) {
      rep.fail("plan[%s]: atoms under node %u covered %d times for "
               "source %u",
               phase, f.node, covered, source);
      return;  // every descendant would re-report
    }
    if (node.leaf) {
      if (covered != 1) {
        rep.fail("plan[%s]: leaf %u covered %d times for source %u "
                 "(pair dropped)",
                 phase, f.node, covered, source);
        return;
      }
      continue;
    }
    for (const std::uint32_t c : node.children) {
      if (c != octree::Node::kInvalid) stack.push_back({c, covered});
    }
  }
}

}  // namespace

Report validate_plan(const octree::Octree& at, const octree::Octree& qt,
                     const gb::InteractionPlan& plan,
                     const gb::ApproxParams& params) {
  Report rep;
  const gb::PlanScope& scope = plan.scope;

  const auto check_chunks = [&rep](const std::vector<std::uint32_t>& chunks,
                                   std::size_t size, const char* name) {
    if (chunks.empty() || chunks.front() != 0) {
      rep.fail("plan: %s chunk table does not start at 0", name);
      return;
    }
    if (size > 0 && chunks.back() != size) {
      rep.fail("plan: %s chunk table ends at %u != %zu items", name,
               chunks.back(), size);
    }
    for (std::size_t i = 1; i < chunks.size(); ++i) {
      if (chunks[i] < chunks[i - 1]) {
        rep.fail("plan: %s chunk offsets decrease at %zu", name, i);
        break;
      }
    }
  };
  check_chunks(plan.born_near_chunks, plan.born_near.size(), "born_near");
  check_chunks(plan.born_far_chunks, plan.born_far.size(), "born_far");
  check_chunks(plan.epol_near_chunks, plan.epol_near.size(), "epol_near");
  check_chunks(plan.epol_far_chunks, plan.epol_far.size(), "epol_far");

  if (scope.born_begin > scope.born_end ||
      scope.born_end > (at.empty() ? 0 : qt.num_leaves()) ||
      scope.epol_begin > scope.epol_end ||
      scope.epol_end > at.num_leaves()) {
    rep.fail("plan: scope [%zu,%zu) x [%zu,%zu) exceeds the trees",
             scope.born_begin, scope.born_end, scope.epol_begin,
             scope.epol_end);
    return rep;
  }
  if (at.empty()) return rep;

  // ---- Born phase: source = T_Q leaf, items target T_A nodes. Every
  // q-leaf in scope is covered exactly once; none outside it at all. ----
  if (!qt.empty()) {
    const double factor2 = gb::born_far_factor2(params);
    // Group items by source q-leaf.
    std::unordered_map<std::uint32_t, std::unordered_map<std::uint32_t, int>>
        by_source;
    for (const gb::NodePair& p : plan.born_near) {
      if (p.target >= at.num_nodes() || p.source >= qt.num_nodes()) {
        rep.fail("plan[born_near]: pair (%u,%u) out of range", p.target,
                 p.source);
        continue;
      }
      if (!at.node(p.target).leaf) {
        rep.fail("plan[born_near]: target %u is not a leaf", p.target);
      }
      if (!qt.node(p.source).leaf) {
        rep.fail("plan[born_near]: source %u is not a q-leaf", p.source);
      }
      const octree::Node& a = at.node(p.target);
      const octree::Node& q = qt.node(p.source);
      const double s = a.radius + q.radius;
      const double d2 = geom::distance2(a.center, q.center);
      if (d2 > s * s * factor2 && d2 > 0.0) {
        rep.fail("plan[born_near]: pair (%u,%u) satisfies the far "
                 "criterion",
                 p.target, p.source);
      }
      ++by_source[p.source][p.target];
    }
    for (const gb::NodePair& p : plan.born_far) {
      if (p.target >= at.num_nodes() || p.source >= qt.num_nodes()) {
        rep.fail("plan[born_far]: pair (%u,%u) out of range", p.target,
                 p.source);
        continue;
      }
      if (!qt.node(p.source).leaf) {
        rep.fail("plan[born_far]: source %u is not a q-leaf", p.source);
      }
      const octree::Node& a = at.node(p.target);
      const octree::Node& q = qt.node(p.source);
      const double s = a.radius + q.radius;
      const double d2 = geom::distance2(a.center, q.center);
      if (!(d2 > s * s * factor2) || !(d2 > 0.0)) {
        rep.fail("plan[born_far]: pair (%u,%u) violates the "
                 "(1+2/eps) separation (d=%.6g, rA+rQ=%.6g)",
                 p.target, p.source, std::sqrt(d2), s);
      }
      ++by_source[p.source][p.target];
    }
    if (by_source.size() > qt.num_leaves()) {
      rep.fail("plan[born]: %zu distinct sources for %zu q-leaves",
               by_source.size(), qt.num_leaves());
    }
    const auto q_leaves = qt.leaves();
    for (std::size_t i = 0; i < q_leaves.size(); ++i) {
      const std::uint32_t qleaf = q_leaves[i];
      if (i >= scope.born_begin && i < scope.born_end) {
        check_coverage(at, by_source[qleaf], "born", qleaf, rep);
      } else if (by_source.count(qleaf) != 0) {
        rep.fail("plan[born]: q-leaf %u is outside the scope [%zu,%zu)",
                 qleaf, scope.born_begin, scope.born_end);
      }
      if (rep.errors.size() > 64) return rep;  // corrupted enough
    }
  }

  // ---- E_pol phase: source ordinal of leaf v, items target T_A
  // nodes u. Near items are leaves (classified before the criterion,
  // as in Figure 3); far items are internal nodes passing it. ----
  {
    const double far_mult = 1.0 + 2.0 / params.eps_epol;
    const auto a_leaves = at.leaves();
    std::unordered_map<std::uint32_t, std::unordered_map<std::uint32_t, int>>
        by_vleaf;
    for (const gb::NodePair& p : plan.epol_near) {
      if (p.target >= a_leaves.size() || p.source >= at.num_nodes()) {
        rep.fail("plan[epol_near]: pair (%u,%u) out of range", p.target,
                 p.source);
        continue;
      }
      if (!at.node(p.source).leaf) {
        rep.fail("plan[epol_near]: source %u is not a leaf", p.source);
      }
      ++by_vleaf[p.target][p.source];
    }
    for (const gb::NodePair& p : plan.epol_far) {
      if (p.target >= a_leaves.size() || p.source >= at.num_nodes()) {
        rep.fail("plan[epol_far]: pair (%u,%u) out of range", p.target,
                 p.source);
        continue;
      }
      const octree::Node& u = at.node(p.source);
      const octree::Node& v = at.node(a_leaves[p.target]);
      if (u.leaf) {
        rep.fail("plan[epol_far]: source %u is a leaf", p.source);
        continue;
      }
      const double s = (u.radius + v.radius) * far_mult;
      const double d2 = geom::distance2(u.center, v.center);
      if (!(d2 > s * s) || !(d2 > 0.0)) {
        rep.fail("plan[epol_far]: pair (%u,%u) violates the (1+2/eps) "
                 "separation",
                 p.target, p.source);
      }
      ++by_vleaf[p.target][p.source];
    }
    for (std::uint32_t ord = 0; ord < a_leaves.size(); ++ord) {
      if (ord >= scope.epol_begin && ord < scope.epol_end) {
        check_coverage(at, by_vleaf[ord], "epol", ord, rep);
      } else if (by_vleaf.count(ord) != 0) {
        rep.fail("plan[epol]: v-leaf %u is outside the scope [%zu,%zu)",
                 ord, scope.epol_begin, scope.epol_end);
      }
      if (rep.errors.size() > 64) return rep;
    }
  }
  return rep;
}

Report validate_plan(const gb::BornOctrees& trees,
                     const gb::InteractionPlan& plan,
                     const gb::ApproxParams& params) {
  return validate_plan(trees.atoms, trees.qpoints, plan, params);
}

Report validate_born_radii(std::span<const double> vdw_radii,
                           std::span<const double> born_radii) {
  Report rep;
  if (vdw_radii.size() != born_radii.size()) {
    rep.fail("born_radii: %zu radii for %zu atoms", born_radii.size(),
             vdw_radii.size());
    return rep;
  }
  for (std::size_t a = 0; a < born_radii.size(); ++a) {
    const double R = born_radii[a];
    if (!std::isfinite(R)) {
      rep.fail("born_radii: atom %zu has non-finite radius", a);
    } else if (R <= 0.0) {
      rep.fail("born_radii: atom %zu has non-positive radius %.6g", a, R);
    } else if (R < vdw_radii[a] * (1.0 - kRelTol)) {
      rep.fail("born_radii: atom %zu has R=%.6g below its vdW radius "
               "%.6g",
               a, R, vdw_radii[a]);
    }
    if (rep.errors.size() > 64) return rep;
  }
  return rep;
}

Report validate_charge_bins(const octree::Octree& tree,
                            const gb::ChargeBins& bins,
                            std::span<const double> charges) {
  Report rep;
  if (tree.empty()) return rep;
  const std::size_t nodes = tree.num_nodes();
  const auto num_bins = static_cast<std::size_t>(bins.num_bins);
  if (bins.num_bins <= 0 || bins.q.size() != nodes * num_bins) {
    rep.fail("charge_bins: %zu slots for %zu nodes x %d bins",
             bins.q.size(), nodes, bins.num_bins);
    return rep;
  }
  if (bins.bin_radius.size() != num_bins) {
    rep.fail("charge_bins: %zu bin radii for %d bins",
             bins.bin_radius.size(), bins.num_bins);
    return rep;
  }
  for (std::size_t k = 0; k < num_bins; ++k) {
    if (!std::isfinite(bins.bin_radius[k]) || bins.bin_radius[k] <= 0.0 ||
        (k > 0 && bins.bin_radius[k] <= bins.bin_radius[k - 1])) {
      rep.fail("charge_bins: bin radii not positive increasing at %zu", k);
      break;
    }
  }
  if (bins.nz_offset.size() != nodes + 1 ||
      (nodes > 0 && bins.nz_offset.back() != bins.nz_bin.size())) {
    rep.fail("charge_bins: CSR offsets inconsistent (%zu offsets, %zu "
             "entries)",
             bins.nz_offset.size(), bins.nz_bin.size());
    return rep;
  }

  for (std::size_t n = 0; n < nodes; ++n) {
    const octree::Node& node = tree.node(n);
    // Charge conservation: the histogram row must redistribute -- not
    // create or destroy -- the charge under the node.
    double expect = 0.0;
    for (std::uint32_t ai = node.begin; ai < node.end; ++ai) {
      expect += charges[tree.point_index()[ai]];
    }
    double got = 0.0;
    double abs_sum = 0.0;
    for (std::size_t k = 0; k < num_bins; ++k) {
      const double q = bins.q[n * num_bins + k];
      got += q;
      abs_sum += std::abs(q);
    }
    if (!std::isfinite(got) ||
        std::abs(got - expect) > kRelTol * (1.0 + abs_sum)) {
      rep.fail("charge_bins: node %zu holds %.9g charge, atoms sum to "
               "%.9g",
               n, got, expect);
    }
    // CSR rows list exactly the non-zero bins, ascending. The builder
    // writes entries by accumulation and tests `!= 0.0` exactly, so
    // the cross-check is exact as well.
    std::uint32_t cursor = bins.nz_offset[n];
    const std::uint32_t row_end = bins.nz_offset[n + 1];
    for (std::size_t k = 0; k < num_bins; ++k) {
      // Exact zero test mirrors build_charge_bins' own emptiness test.
      // lint:allow(float-eq) CSR emptiness is an exact-representation invariant
      const bool nonzero = bins.q[n * num_bins + k] != 0.0;
      const bool listed =
          cursor < row_end && bins.nz_bin[cursor] == k;
      if (listed) ++cursor;
      if (nonzero != listed) {
        rep.fail("charge_bins: node %zu bin %zu %s but %s", n, k,
                 nonzero ? "non-empty" : "empty",
                 listed ? "listed" : "unlisted");
        break;
      }
    }
    if (cursor != row_end) {
      rep.fail("charge_bins: node %zu CSR row has trailing entries", n);
    }
    if (rep.errors.size() > 64) return rep;
  }
  return rep;
}

}  // namespace octgb::analysis
