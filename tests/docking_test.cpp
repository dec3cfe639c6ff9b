// Tests for the pose scorer and the octree rigid-transform reuse
// (Section IV-C step 1). The decisive checks: a transformed octree gives
// the same answers as one rebuilt from transformed points (within the
// approximation class), and the incremental cross-integral scorer
// matches a from-scratch computation on the identical union surface.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "src/docking/pose_scorer.h"
#include "src/gb/epol.h"
#include "src/gb/naive.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"

namespace octgb::docking {
namespace {

geom::Rigid test_pose(double distance) {
  return geom::Rigid::translate({distance, 2.0, -1.0}) *
         geom::Rigid{geom::Mat3::axis_angle({1, 1, 0}, 0.8), {}};
}

TEST(OctreeTransformTest, NodeGeometryFollowsRigidMotion) {
  const auto mol = molecule::generate_ligand(60, 21);
  octree::Octree tree(mol.positions());
  const geom::Rigid motion = test_pose(7.0);

  std::vector<double> radii_before;
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    radii_before.push_back(tree.node(n).radius);
  }
  octree::Octree moved = tree;
  moved.transform(motion);

  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    // Radii invariant, centers transformed.
    EXPECT_DOUBLE_EQ(moved.node(n).radius, radii_before[n]);
    const geom::Vec3 expect = motion.apply(tree.node(n).center);
    EXPECT_NEAR(moved.node(n).center.x, expect.x, 1e-12);
    EXPECT_NEAR(moved.node(n).center.y, expect.y, 1e-12);
    EXPECT_NEAR(moved.node(n).center.z, expect.z, 1e-12);
  }
}

TEST(OctreeTransformTest, TransformedTreeStillBoundsItsPoints) {
  molecule::Molecule mol = molecule::generate_ligand(80, 23);
  octree::Octree tree(mol.positions());
  const geom::Rigid motion = test_pose(3.0);
  tree.transform(motion);
  mol.transform(motion);
  for (const auto leaf_idx : tree.leaves()) {
    const auto& leaf = tree.node(leaf_idx);
    for (std::uint32_t ai = leaf.begin; ai < leaf.end; ++ai) {
      const auto a = tree.point_index()[ai];
      EXPECT_LE(geom::distance(leaf.center, mol.positions()[a]),
                leaf.radius + 1e-9);
    }
  }
}

TEST(OctreeTransformTest, CrossIntegralsMatchRebuiltTree) {
  // Transform-reuse vs rebuild: same cross Born integrals (bit-near;
  // the transformed tree has identical structure, so traversal
  // decisions are identical up to floating-point rotation noise).
  const auto receptor = molecule::generate_protein(400, 25);
  molecule::Molecule ligand = molecule::generate_ligand(40, 27);
  const auto lig_surf0 = surface::build_surface(ligand);
  gb::BornOctrees lig_trees0 = gb::build_born_octrees(ligand, lig_surf0);

  const geom::Rigid pose = test_pose(12.0);

  // Path A: transform the cached tree + surface.
  surface::QuadratureSurface surf_a = lig_surf0;
  for (auto& p : surf_a.points) p = pose.apply(p);
  for (auto& n : surf_a.normals) n = pose.apply_dir(n);
  gb::BornOctrees trees_a = lig_trees0;
  trees_a.qpoints.transform(pose);
  for (auto& v : trees_a.q_weighted_normal) v = pose.apply_dir(v);

  // Path B: rebuild the octrees from the *same* transformed q-points
  // (regenerating the surface itself would re-rasterize the marching
  // grid in the new orientation and sample different points).
  molecule::Molecule posed = ligand;
  posed.transform(pose);

  const octree::Octree rec_tree(receptor.positions());
  gb::ApproxParams params;

  gb::BornWorkspace ws_a(rec_tree), ws_b(rec_tree);
  gb::approx_integrals_cross(rec_tree, receptor, trees_a.qpoints,
                             trees_a.q_weighted_normal, surf_a, params,
                             ws_a);
  const gb::BornOctrees trees_b = gb::build_born_octrees(posed, surf_a);
  gb::approx_integrals_cross(rec_tree, receptor, trees_b.qpoints,
                             trees_b.q_weighted_normal, surf_a, params,
                             ws_b);

  std::vector<double> sums_a(receptor.size()), sums_b(receptor.size());
  gb::collect_integrals_to_atoms(rec_tree, ws_a, sums_a);
  gb::collect_integrals_to_atoms(rec_tree, ws_b, sums_b);
  double total_a = 0.0, total_b = 0.0;
  for (std::size_t i = 0; i < receptor.size(); ++i) {
    total_a += sums_a[i];
    total_b += sums_b[i];
  }
  // Different tree shapes (rebuilt vs transformed) regroup the far
  // field; totals agree within the eps class.
  EXPECT_NEAR(total_a, total_b,
              0.02 * (std::abs(total_b) + 1e-6));
}

TEST(CollectIntegralsTest, MatchesPushedRadii) {
  // collect_integrals_to_atoms must agree with push_integrals_to_atoms
  // through the Born-radius map.
  const auto mol = molecule::generate_protein(500, 29);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  gb::BornWorkspace ws(trees);
  gb::approx_integrals(trees, mol, surf, 0, trees.qpoints.num_leaves(),
                       params, ws);
  std::vector<double> radii(mol.size(), 0.0);
  gb::push_integrals_to_atoms(trees, mol, ws, 0, mol.size(), params,
                              radii);
  std::vector<double> sums(mol.size(), 0.0);
  gb::collect_integrals_to_atoms(trees.atoms, ws, sums);
  constexpr double kFourPi = 4.0 * std::numbers::pi;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    const double s = sums[i] / kFourPi;
    const double r = std::max(mol.radii()[i],
                              s > 0.0 ? 1.0 / std::cbrt(s)
                                      : mol.radii()[i]);
    EXPECT_NEAR(r, radii[i], 1e-9 * radii[i]) << i;
  }
}

TEST(PoseScorerTest, MatchesFromScratchUnionSurfaceComputation) {
  const auto receptor = molecule::generate_protein(600, 31);
  const auto ligand = molecule::generate_ligand(40, 33);
  gb::CalculatorParams params;
  params.approx.eps_born = 0.3;  // tight: isolate the caching machinery
  params.approx.eps_epol = 0.3;
  const PoseScorer scorer(receptor, ligand, params);

  const geom::Rigid pose = test_pose(
      0.5 * receptor.center_bounds().max_extent() + 6.0);
  const PoseScore incremental = scorer.score(pose);

  // Reference: same union-of-surfaces model, computed from scratch.
  molecule::Molecule posed = ligand;
  posed.transform(pose);
  molecule::Molecule complex = receptor;
  complex.append(posed);
  surface::QuadratureSurface union_surf =
      surface::build_surface(receptor, params.surface);
  {
    surface::QuadratureSurface lig_surf =
        surface::build_surface(ligand, params.surface);
    for (std::size_t q = 0; q < lig_surf.size(); ++q) {
      union_surf.points.push_back(pose.apply(lig_surf.points[q]));
      union_surf.normals.push_back(pose.apply_dir(lig_surf.normals[q]));
      union_surf.weights.push_back(lig_surf.weights[q]);
    }
  }
  const auto radii = gb::born_radii_naive_r6(complex, union_surf);
  const double reference =
      gb::epol_naive(complex, radii.radii, params.physics).energy;
  EXPECT_LT(gb::relative_error(incremental.complex_energy, reference),
            0.02);
}

TEST(PoseScorerTest, IsolatedEnergiesMatchCalculator) {
  // Both math policies: the scorer's Born-radius map is the
  // calculator's, so approx_math reaches it too.
  const auto receptor = molecule::generate_protein(400, 35);
  const auto ligand = molecule::generate_ligand(30, 37);
  for (const bool approx_math : {false, true}) {
    gb::CalculatorParams params;
    params.approx.approx_math = approx_math;
    const PoseScorer scorer(receptor, ligand, params);
    const gb::GBResult rec = gb::compute_gb_energy(receptor, params);
    const gb::GBResult lig = gb::compute_gb_energy(ligand, params);
    EXPECT_NEAR(scorer.receptor_energy(), rec.energy,
                1e-9 * std::abs(rec.energy))
        << "approx_math=" << approx_math;
    EXPECT_NEAR(scorer.ligand_energy(), lig.energy,
                1e-9 * std::abs(lig.energy))
        << "approx_math=" << approx_math;
  }
}

TEST(PoseScorerTest, FarAwayLigandHasNearZeroDelta) {
  // A ligand at infinity does not perturb either molecule: dE -> 0.
  const auto receptor = molecule::generate_protein(500, 39);
  const auto ligand = molecule::generate_ligand(30, 41);
  const PoseScorer scorer(receptor, ligand);
  const PoseScore far = scorer.score(geom::Rigid::translate({500, 0, 0}));
  EXPECT_LT(std::abs(far.delta_energy),
            1e-3 * std::abs(scorer.receptor_energy()));
}

TEST(PoseScorerTest, CloseContactPerturbsTheEnergy) {
  const auto receptor = molecule::generate_protein(500, 39);
  const auto ligand = molecule::generate_ligand(30, 41);
  const PoseScorer scorer(receptor, ligand);
  const double contact =
      0.5 * receptor.center_bounds().max_extent() + 3.0;
  const PoseScore close_pose = scorer.score(
      geom::Rigid::translate({contact, 0, 0}));
  const PoseScore far = scorer.score(geom::Rigid::translate({500, 0, 0}));
  EXPECT_GT(std::abs(close_pose.delta_energy), std::abs(far.delta_energy));
}

TEST(PoseScorerTest, ScoreIsDeterministic) {
  const auto receptor = molecule::generate_protein(300, 43);
  const auto ligand = molecule::generate_ligand(25, 45);
  const PoseScorer scorer(receptor, ligand);
  const geom::Rigid pose = test_pose(15.0);
  const PoseScore a = scorer.score(pose);
  const PoseScore b = scorer.score(pose);
  EXPECT_DOUBLE_EQ(a.complex_energy, b.complex_energy);
}

TEST(PoseScorerTest, PooledScoreMatchesSerialBitForBit) {
  // The cross-tree Born plans are target-major and every pooled chunk
  // owns whole targets, so a pooled scorer reproduces the serial bits
  // (and TSan sees any chunk that shares an accumulator).
  const auto receptor = molecule::generate_protein(400, 47);
  const auto ligand = molecule::generate_ligand(30, 49);
  const geom::Rigid pose =
      test_pose(0.5 * receptor.center_bounds().max_extent() + 4.0);
  const PoseScore serial = PoseScorer(receptor, ligand).score(pose);
  parallel::WorkStealingPool pool(2);
  const PoseScore pooled =
      PoseScorer(receptor, ligand, {}, &pool).score(pose);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled.complex_energy),
            std::bit_cast<std::uint64_t>(serial.complex_energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled.delta_energy),
            std::bit_cast<std::uint64_t>(serial.delta_energy));
}

}  // namespace
}  // namespace octgb::docking
