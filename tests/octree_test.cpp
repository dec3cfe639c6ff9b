// Tests for the linear octree: structural invariants, aggregates,
// Morton-contiguity, and the properties the paper's algorithms rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/calculator.h"
#include "src/gb/epol.h"
#include "src/molecule/generators.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"
#include "src/util/rng.h"

namespace octgb::octree {
namespace {

std::vector<geom::Vec3> random_points(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(-10, 10), rng.uniform(-5, 15),
                   rng.uniform(0, 30)});
  }
  return pts;
}

// Recursively checks structural invariants; returns the set of sorted
// positions covered by leaves beneath `idx`.
void check_node(const Octree& tree, std::uint32_t idx,
                std::vector<int>& coverage,
                std::span<const geom::Vec3> pts) {
  const Node& n = tree.node(idx);
  EXPECT_LT(n.begin, n.end + 1u);
  // Radius covers every point under the node.
  for (std::uint32_t i = n.begin; i < n.end; ++i) {
    const auto& p = pts[tree.point_index()[i]];
    EXPECT_LE(geom::distance(n.center, p), n.radius + 1e-9);
  }
  if (n.leaf) {
    for (std::uint32_t i = n.begin; i < n.end; ++i) ++coverage[i];
    return;
  }
  // Children partition the parent's range.
  std::uint32_t covered = 0;
  for (auto c : n.children) {
    if (c == Node::kInvalid) continue;
    const Node& child = tree.node(c);
    EXPECT_EQ(child.parent, idx);
    EXPECT_EQ(child.depth, n.depth + 1);
    EXPECT_GE(child.begin, n.begin);
    EXPECT_LE(child.end, n.end);
    covered += child.end - child.begin;
    check_node(tree, c, coverage, pts);
  }
  EXPECT_EQ(covered, n.end - n.begin);
}

TEST(OctreeTest, EmptyTree) {
  const Octree tree{std::span<const geom::Vec3>{}};
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.num_points(), 0u);
  EXPECT_EQ(tree.num_leaves(), 0u);
}

TEST(OctreeTest, SinglePoint) {
  const std::vector<geom::Vec3> pts{{1, 2, 3}};
  const Octree tree{pts};
  ASSERT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.root().leaf);
  EXPECT_EQ(tree.root().center, geom::Vec3(1, 2, 3));
  EXPECT_DOUBLE_EQ(tree.root().radius, 0.0);
}

TEST(OctreeTest, StructuralInvariantsRandomCloud) {
  const auto pts = random_points(5000, 21);
  OctreeParams params;
  params.leaf_capacity = 16;
  const Octree tree(pts, params);
  EXPECT_EQ(tree.num_points(), pts.size());

  std::vector<int> coverage(pts.size(), 0);
  check_node(tree, tree.root_index(), coverage, pts);
  // Every sorted position is covered by exactly one leaf.
  for (std::size_t i = 0; i < coverage.size(); ++i) {
    ASSERT_EQ(coverage[i], 1) << "sorted position " << i;
  }
}

TEST(OctreeTest, PointIndexIsAPermutation) {
  const auto pts = random_points(3000, 5);
  const Octree tree(pts);
  std::set<std::uint32_t> seen(tree.point_index().begin(),
                               tree.point_index().end());
  EXPECT_EQ(seen.size(), pts.size());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), pts.size() - 1);
}

TEST(OctreeTest, LeavesRespectCapacity) {
  const auto pts = random_points(10000, 8);
  OctreeParams params;
  params.leaf_capacity = 24;
  const Octree tree(pts, params);
  std::size_t total = 0;
  for (auto leaf_idx : tree.leaves()) {
    const Node& leaf = tree.node(leaf_idx);
    EXPECT_TRUE(leaf.leaf);
    EXPECT_LE(leaf.count(), params.leaf_capacity);
    EXPECT_GT(leaf.count(), 0u);
    total += leaf.count();
  }
  EXPECT_EQ(total, pts.size());
}

TEST(OctreeTest, LeavesAreContiguousAndOrdered) {
  // Leaf ranges in DFS order must tile [0, n) without gaps -- this is
  // what lets the drivers statically partition leaves across ranks while
  // keeping each rank's atom accesses contiguous.
  const auto pts = random_points(4000, 99);
  const Octree tree(pts);
  std::uint32_t cursor = 0;
  for (auto leaf_idx : tree.leaves()) {
    const Node& leaf = tree.node(leaf_idx);
    EXPECT_EQ(leaf.begin, cursor);
    cursor = leaf.end;
  }
  EXPECT_EQ(cursor, pts.size());
}

TEST(OctreeTest, DuplicatePointsTerminateViaDepthCap) {
  std::vector<geom::Vec3> pts(100, geom::Vec3{1, 1, 1});
  OctreeParams params;
  params.leaf_capacity = 4;
  const Octree tree(pts, params);
  EXPECT_EQ(tree.num_points(), 100u);
  EXPECT_LE(tree.height(), params.max_depth);
  std::size_t total = 0;
  for (auto leaf_idx : tree.leaves()) total += tree.node(leaf_idx).count();
  EXPECT_EQ(total, 100u);
}

TEST(OctreeTest, DepthGrowsLogarithmically) {
  OctreeParams params;
  params.leaf_capacity = 8;
  const Octree small(random_points(500, 3), params);
  const Octree large(random_points(50000, 3), params);
  EXPECT_GT(large.height(), small.height());
  // For uniform points, height ~ log8(n / leaf). 50k/8 ~ 6250 -> ~5-9.
  EXPECT_LE(large.height(), 14);
}

TEST(OctreeTest, MemoryIsLinearInPoints) {
  OctreeParams params;
  const Octree t1(random_points(10000, 4), params);
  const Octree t2(random_points(40000, 4), params);
  // 4x points -> memory within ~8x (tree shape noise) but definitely not
  // quadratic (16x).
  EXPECT_LT(t2.memory_bytes(),
            t1.memory_bytes() * 10);
  EXPECT_GT(t2.memory_bytes(), t1.memory_bytes());
}

TEST(OctreeTest, WorksOnRealisticMolecule) {
  const auto mol = molecule::generate_protein(8000, 17);
  const Octree tree(mol.positions());
  EXPECT_EQ(tree.num_points(), 8000u);
  EXPECT_GT(tree.num_leaves(), 8000u / 64);
  // Root sphere covers the whole molecule.
  const Node& root = tree.root();
  for (const auto& p : mol.positions()) {
    EXPECT_LE(geom::distance(root.center, p), root.radius + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Build equivalence: the parallel pipeline (radix sort + level splitting
// + chunked aggregate sweeps) must produce the exact serial tree --
// identical topology, identical point ordering, bit-identical
// aggregates -- at any worker count.

void expect_identical_trees(const Octree& a, const Octree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_points(), b.num_points());
  EXPECT_EQ(a.height(), b.height());
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    const Node& x = a.node(i);
    const Node& y = b.node(i);
    EXPECT_EQ(x.begin, y.begin);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.depth, y.depth);
    EXPECT_EQ(x.leaf, y.leaf);
    EXPECT_EQ(x.children.first, y.children.first);
    EXPECT_EQ(x.children.count, y.children.count);
    // Bit-identical aggregates, not tolerance-equal: the deterministic
    // chunked sums are the contract.
    EXPECT_EQ(x.center, y.center);
    EXPECT_EQ(x.radius, y.radius);  // lint:allow(float-eq) bit-identity contract
    EXPECT_EQ(a.node_key_lo(i), b.node_key_lo(i));
  }
  EXPECT_TRUE(std::equal(a.point_index().begin(), a.point_index().end(),
                         b.point_index().begin()));
  EXPECT_TRUE(std::equal(a.keys().begin(), a.keys().end(),
                         b.keys().begin()));
  EXPECT_TRUE(std::equal(a.level_offset().begin(), a.level_offset().end(),
                         b.level_offset().begin()));
  EXPECT_TRUE(std::equal(a.leaves().begin(), a.leaves().end(),
                         b.leaves().begin()));
}

TEST(OctreeParallelBuildTest, ParallelBuildMatchesSerialReference) {
  OctreeParams params;
  params.parallel_grain = 1;  // exercise the pool even at small sizes
  for (const std::size_t n : {257u, 5000u, 30000u}) {
    const auto pts = random_points(n, 41);
    const Octree reference(pts, params, nullptr);
    for (const int threads : {1, 2, 8}) {
      parallel::WorkStealingPool pool(threads);
      const Octree parallel_tree(pts, params, &pool);
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << " threads=" << threads);
      expect_identical_trees(reference, parallel_tree);
    }
  }
}

TEST(OctreeParallelBuildTest, DuplicateHeavyCloudStillEquivalent) {
  // Duplicate points force depth-cap chains and exercise tie-breaking:
  // the stable radix sort keeps equal keys in input order on every path.
  util::Xoshiro256 rng(43);
  std::vector<geom::Vec3> pts;
  const auto sites = random_points(64, 44);
  for (std::size_t i = 0; i < 20000; ++i) {
    pts.push_back(sites[static_cast<std::size_t>(rng()) % sites.size()]);
  }
  OctreeParams params;
  params.parallel_grain = 1;
  const Octree reference(pts, params, nullptr);
  for (const int threads : {2, 8}) {
    parallel::WorkStealingPool pool(threads);
    const Octree parallel_tree(pts, params, &pool);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical_trees(reference, parallel_tree);
  }
}

TEST(OctreeParallelBuildTest, LevelOffsetsIndexTheNodeArray) {
  const auto pts = random_points(20000, 45);
  const Octree tree{std::span<const geom::Vec3>(pts)};
  const auto level_offset = tree.level_offset();
  ASSERT_EQ(level_offset.size(), static_cast<std::size_t>(tree.height()) + 2);
  EXPECT_EQ(level_offset.front(), 0u);
  EXPECT_EQ(level_offset.back(), tree.num_nodes());
  for (int d = 0; d <= tree.height(); ++d) {
    for (std::uint32_t id = level_offset[d]; id < level_offset[d + 1]; ++id) {
      EXPECT_EQ(int(tree.node(id).depth), d);
      if (!tree.node(id).leaf) {
        // Children are contiguous in the next level's range.
        EXPECT_GE(tree.node(id).children.first, level_offset[d + 1]);
      }
    }
  }
  EXPECT_TRUE(tree.strict_morton());
}

// ---------------------------------------------------------------------------
// Re-key refit: sparse dirty sweeps must reproduce a full sweep bit for
// bit, and the rebuild fallback must reproduce a fresh build bit for bit.

std::vector<geom::Vec3> drift_some(std::vector<geom::Vec3> pts,
                                   std::size_t stride, double amount,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < pts.size(); i += stride) {
    pts[i] += geom::Vec3{rng.uniform(-amount, amount),
                         rng.uniform(-amount, amount),
                         rng.uniform(-amount, amount)};
  }
  return pts;
}

TEST(OctreeRekeyRefitTest, SparseRefitMatchesFullSweepBitForBit) {
  const auto pts = random_points(20000, 47);
  const Octree built{std::span<const geom::Vec3>(pts)};

  // Incremental path: snapshot-establishing refit, then a sparse refit
  // over ~2% drifted points.
  Octree incremental = built;
  incremental.refit(pts);  // first refit: full sweep, takes the snapshot
  const auto moved = drift_some(pts, 50, 0.05, 48);
  const RefitResult rr = incremental.refit(moved);
  EXPECT_EQ(rr.dirty_points, (pts.size() + 49) / 50);
  EXPECT_GT(rr.nodes_refit, 0u);
  EXPECT_LT(rr.nodes_refit, incremental.num_nodes());

  // Reference path: a fresh copy whose first refit sweeps everything.
  Octree full = built;
  full.refit(moved);

  ASSERT_EQ(incremental.num_nodes(), full.num_nodes());
  for (std::size_t i = 0; i < full.num_nodes(); ++i) {
    EXPECT_EQ(incremental.node(i).center, full.node(i).center);
    EXPECT_EQ(incremental.node(i).radius,
              full.node(i).radius);  // lint:allow(float-eq) bit-identity contract
  }
}

TEST(OctreeRekeyRefitTest, CleanRefitIsANoop) {
  const auto pts = random_points(4000, 49);
  Octree tree{std::span<const geom::Vec3>(pts)};
  const RefitResult first = tree.refit(pts);
  EXPECT_EQ(first.dirty_points, pts.size());  // no snapshot yet
  const RefitResult second = tree.refit(pts);
  EXPECT_EQ(second.dirty_points, 0u);
  EXPECT_EQ(second.nodes_refit, 0u);
  EXPECT_EQ(second.escaped_keys, 0u);
  EXPECT_FALSE(second.rebuilt);
}

TEST(OctreeRekeyRefitTest, EscapingDriftRebuildsToFreshTree) {
  const auto pts = random_points(20000, 51);
  Octree tree{std::span<const geom::Vec3>(pts)};
  tree.refit(pts);  // take the snapshot

  // 2% of points thrown several leaf cells away: keys escape, so
  // refit_rekey must rebuild -- and the rebuilt tree must be *exactly*
  // the tree a cold build over the moved points produces.
  const auto moved = drift_some(pts, 50, 5.0, 52);
  const RefitResult rr = tree.refit_rekey(moved);
  EXPECT_TRUE(rr.rebuilt);
  EXPECT_GT(rr.escaped_keys, 0u);
  EXPECT_TRUE(tree.strict_morton());

  const Octree fresh{std::span<const geom::Vec3>(moved)};
  expect_identical_trees(tree, fresh);
}

TEST(OctreeRekeyRefitTest, PlainRefitKeepsTopologyOnEscape) {
  const auto pts = random_points(20000, 53);
  Octree tree{std::span<const geom::Vec3>(pts)};
  tree.refit(pts);
  const std::size_t nodes_before = tree.num_nodes();
  const auto moved = drift_some(pts, 50, 5.0, 54);
  const RefitResult rr = tree.refit(moved);
  EXPECT_GT(rr.escaped_keys, 0u);
  EXPECT_FALSE(rr.rebuilt);
  EXPECT_FALSE(tree.strict_morton());  // stale topology, bounds still exact
  EXPECT_EQ(tree.num_nodes(), nodes_before);
  // The sphere hierarchy still contains every moved point.
  for (std::uint32_t leaf : tree.leaves()) {
    const Node& node = tree.node(leaf);
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      EXPECT_LE(geom::distance(node.center, moved[tree.point_index()[i]]),
                node.radius + 1e-9);
    }
  }
}

TEST(OctreeRekeyRefitTest, RekeyRefitEnergyMatchesRebuildThroughGb) {
  // End-to-end: perturb <= 5% of a molecule's atoms, refit_rekey the
  // atoms octree, and run the full GB pipeline against a cold rebuild
  // over the same positions. If the drift stayed in range, refit and
  // rebuild share topology and chunk grid so energies agree to
  // round-off; if a key escaped, refit_rekey rebuilt and the trees are
  // bit-identical.
  const auto mol = molecule::generate_protein(1500, 57);
  const gb::CalculatorParams params;
  const auto surf = surface::build_surface(mol, params.surface);
  gb::BornOctrees trees = gb::build_born_octrees(mol, surf, params.octree);
  trees.atoms.refit(mol.positions());  // take the snapshot

  const auto moved = drift_some(
      std::vector<geom::Vec3>(mol.positions().begin(),
                              mol.positions().end()),
      25, 0.2, 58);  // every 25th atom (4%) drifts by up to 0.2 A
  molecule::Molecule perturbed("perturbed");
  for (std::size_t i = 0; i < mol.size(); ++i) {
    auto atom = mol.atom(i);
    atom.position = moved[i];
    perturbed.add_atom(atom);
  }

  const RefitResult rr = trees.atoms.refit_rekey(perturbed.positions());
  EXPECT_EQ(rr.dirty_points, (mol.size() + 24) / 25);
  EXPECT_TRUE(trees.atoms.strict_morton());
  const auto refit_born =
      gb::born_radii_octree(trees, perturbed, surf, params.approx);
  const double refit_energy =
      gb::epol_octree(trees.atoms, perturbed, refit_born.radii,
                      params.approx, params.physics)
          .energy;

  const gb::BornOctrees rebuilt =
      gb::build_born_octrees(perturbed, surf, params.octree);
  const auto rebuilt_born =
      gb::born_radii_octree(rebuilt, perturbed, surf, params.approx);
  const double rebuilt_energy =
      gb::epol_octree(rebuilt.atoms, perturbed, rebuilt_born.radii,
                      params.approx, params.physics)
          .energy;

  EXPECT_NEAR(refit_energy, rebuilt_energy,
              1e-9 * std::abs(rebuilt_energy));
}

TEST(OctreeRekeyRefitTest, InLeafDriftNeverEscapesOrRebuilds) {
  // A spatially clustered 5% of the points (whole leaves in Morton
  // order) each move a quarter of the way to their leaf's center: a
  // convex move inside the leaf cell, so every recomputed key stays in
  // range. Alternating drifted <-> base positions must take the
  // resort-free path every time.
  const auto base = random_points(30000, 59);
  Octree tree{std::span<const geom::Vec3>(base)};
  std::vector<geom::Vec3> drifted = base;
  std::size_t num_drifted = 0;
  for (const std::uint32_t leaf_id : tree.leaves()) {
    if (num_drifted * 20 >= base.size()) break;
    const Node& leaf = tree.node(leaf_id);
    for (std::uint32_t i = leaf.begin; i < leaf.end; ++i) {
      const std::uint32_t idx = tree.point_index()[i];
      drifted[idx] += (leaf.center - drifted[idx]) * 0.25;
      ++num_drifted;
    }
  }
  // A one-point leaf's point is its center and does not move.
  std::size_t num_moved = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!(drifted[i] == base[i])) ++num_moved;
  }
  ASSERT_GT(num_moved, num_drifted / 2);
  tree.refit_rekey(base);  // take the snapshot
  for (int round = 0; round < 4; ++round) {
    const auto& pts = round % 2 == 0 ? drifted : base;
    const RefitResult rr = tree.refit_rekey(pts);
    SCOPED_TRACE(testing::Message() << "round=" << round);
    EXPECT_EQ(rr.dirty_points, num_moved);
    EXPECT_EQ(rr.escaped_keys, 0u);
    EXPECT_FALSE(rr.rebuilt);
    EXPECT_TRUE(tree.strict_morton());
  }
}

TEST(OctreeRekeyRefitTest, ParallelRefitMatchesSerialRefit) {
  OctreeParams params;
  params.parallel_grain = 1;
  const auto pts = random_points(20000, 55);
  const auto moved = drift_some(pts, 40, 0.05, 56);

  Octree serial_tree(pts, params, nullptr);
  serial_tree.refit(pts);
  serial_tree.refit(moved);

  for (const int threads : {2, 8}) {
    parallel::WorkStealingPool pool(threads);
    Octree par(pts, params, &pool);
    par.refit(pts, &pool);
    par.refit(moved, &pool);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ASSERT_EQ(par.num_nodes(), serial_tree.num_nodes());
    for (std::size_t i = 0; i < par.num_nodes(); ++i) {
      EXPECT_EQ(par.node(i).center, serial_tree.node(i).center);
      EXPECT_EQ(par.node(i).radius,
                serial_tree.node(i).radius);  // lint:allow(float-eq) bit-identity contract
    }
  }
}

TEST(OctreeTest, HollowShellMakesDeeperTreesThanBlob) {
  // Same atom count: the capsid spreads over a much larger cube, so the
  // octree needs more depth to reach leaf capacity -- the geometric
  // effect the virus workloads exercise.
  const auto blob = molecule::generate_protein(20000, 7);
  const auto shell = molecule::generate_capsid(20000, 7);
  OctreeParams params;
  params.leaf_capacity = 16;
  const Octree tb(blob.positions(), params);
  const Octree ts(shell.positions(), params);
  EXPECT_GE(ts.height(), tb.height());
}

}  // namespace
}  // namespace octgb::octree
