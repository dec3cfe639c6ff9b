// Golden tests for the plan engine (interaction lists + executor). The
// parent engine of this code was a fused traversal that classified and
// evaluated in one walk; the golden digests below are FNV-1a hashes of
// its Born-radius and E_pol bits on these fixtures, recorded from that
// engine, and a serial scalar plan evaluation must reproduce them bit for
// bit in every build (default, OCTGB_SIMD=OFF, OCTGB_VALIDATE). The SIMD
// engine stays within 1e-10 relative of the scalar one (only the 4-wide
// reduction order differs), and pooled runs match serial ones: Born to
// rounding (atomic deposits), E_pol bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// FNV-1a over the little-endian bytes of each value's bits.
std::uint64_t digest(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : values) {
    const std::uint64_t b = bits(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::uint64_t digest(const BornWorkspace& ws) {
  std::vector<double> all = ws.node_s;
  all.insert(all.end(), ws.atom_s.begin(), ws.atom_s.end());
  return digest(all);
}

// Digests recorded from the fused engine on Fixture(1000, approx_math):
// r^6 and r^4 Born radii, E_pol on the r^6 radii, approx_integrals over
// q-leaves [n/3, 2n/3), and approx_epol over v-leaves [n/3, 2n/3) with
// bins from the r^6 radii.
struct Golden {
  std::uint64_t born, epol, r4, born_part, epol_part;
};
constexpr Golden kGoldenApprox{0x34e93d793c08b04bull, 0xc09415182486b7e2ull,
                               0xab401b5707994ad9ull, 0x758ba4c3e1173270ull,
                               0x4008207657db4325ull};
constexpr Golden kGoldenExact{0x29c033a480ee901bull, 0xc0940fc967085f28ull,
                              0xab401b5707994ad9ull, 0x758ba4c3e1173270ull,
                              0x40081885fb689940ull};
// Cross-tree integrals of generate_ligand(40, 7)'s surface into
// Fixture(500)'s atoms (either math policy: the Born sums use none).
constexpr std::uint64_t kGoldenCross = 0x7b5f20d3428c7730ull;

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;  // lint:allow(float-eq) exact zero guard
}

struct Fixture {
  molecule::Molecule mol;
  surface::QuadratureSurface surf;
  BornOctrees trees;
  ApproxParams params;
  InteractionPlan plan;

  explicit Fixture(std::size_t atoms, bool approx_math = true) {
    mol = molecule::generate_protein(atoms, 99);
    surf = surface::build_surface(mol);
    trees = build_born_octrees(mol, surf);
    params.approx_math = approx_math;
    plan = build_interaction_plan(trees, params);
  }
};

void expect_monotone_cover(const std::vector<std::uint32_t>& chunks,
                           std::size_t size) {
  ASSERT_GE(chunks.size(), 1u);
  EXPECT_EQ(chunks.front(), 0u);
  EXPECT_EQ(chunks.back(), size);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_LE(chunks[i - 1], chunks[i]);
  }
}

TEST(InteractionPlanTest, ListsNonEmptyAndChunksWellFormed) {
  const Fixture f(1200);
  EXPECT_GT(f.plan.born_near.size(), 0u);
  EXPECT_GT(f.plan.epol_near.size(), 0u);
  EXPECT_GT(f.plan.num_items(), 0u);
  EXPECT_GT(f.plan.memory_bytes(), 0u);
  expect_monotone_cover(f.plan.born_near_chunks, f.plan.born_near.size());
  expect_monotone_cover(f.plan.born_far_chunks, f.plan.born_far.size());
  expect_monotone_cover(f.plan.epol_near_chunks, f.plan.epol_near.size());
  expect_monotone_cover(f.plan.epol_far_chunks, f.plan.epol_far.size());
  // A compact protein at this size must exercise both classes of the
  // E_pol traversal; the Born far field appears once trees are deep
  // enough (guaranteed at 1200 atoms with default leaf capacity).
  EXPECT_GT(f.plan.born_far.size(), 0u);
  EXPECT_GT(f.plan.epol_far.size(), 0u);
}

TEST(InteractionPlanTest, ParallelBuildIsDeterministic) {
  const Fixture f(900);
  parallel::WorkStealingPool pool(4);
  const InteractionPlan par = build_interaction_plan(f.trees, f.params,
                                                     &pool);
  ASSERT_EQ(par.born_near.size(), f.plan.born_near.size());
  ASSERT_EQ(par.epol_far.size(), f.plan.epol_far.size());
  for (std::size_t i = 0; i < par.born_near.size(); ++i) {
    EXPECT_EQ(par.born_near[i].target, f.plan.born_near[i].target);
    EXPECT_EQ(par.born_near[i].source, f.plan.born_near[i].source);
  }
  for (std::size_t i = 0; i < par.epol_far.size(); ++i) {
    EXPECT_EQ(par.epol_far[i].target, f.plan.epol_far[i].target);
    EXPECT_EQ(par.epol_far[i].source, f.plan.epol_far[i].source);
  }
}

TEST(InteractionPlanTest, ThrowsOnNonPositiveEps) {
  const Fixture f(300);
  ApproxParams bad = f.params;
  bad.eps_born = 0.0;
  EXPECT_THROW(build_interaction_plan(f.trees, bad),
               std::invalid_argument);
  bad = f.params;
  bad.eps_epol = -1.0;
  EXPECT_THROW(build_interaction_plan(f.trees, bad),
               std::invalid_argument);
}

TEST(InteractionPlanTest, ScopedPlansPartitionTheFullPlan) {
  // Figure 4's division: per-rank plans over q-leaf and v-leaf ranges
  // concatenate to the full plan, item for item.
  const Fixture f(900);
  const std::size_t nq = f.trees.qpoints.num_leaves();
  const std::size_t nv = f.trees.atoms.num_leaves();
  InteractionPlan joined;
  for (int r = 0; r < 3; ++r) {
    const PlanScope scope{nq * r / 3, nq * (r + 1) / 3, nv * r / 3,
                          nv * (r + 1) / 3};
    const InteractionPlan part =
        build_interaction_plan(f.trees.atoms, f.trees.qpoints, f.params,
                               scope);
    EXPECT_EQ(part.scope.born_begin, scope.born_begin);
    EXPECT_EQ(part.scope.epol_end, scope.epol_end);
    for (const auto list : {&InteractionPlan::born_near,
                             &InteractionPlan::born_far,
                             &InteractionPlan::epol_near,
                             &InteractionPlan::epol_far}) {
      (joined.*list).insert((joined.*list).end(), (part.*list).begin(),
                            (part.*list).end());
    }
  }
  const auto same = [](const std::vector<NodePair>& a,
                       const std::vector<NodePair>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const NodePair& x, const NodePair& y) {
                        return x.target == y.target && x.source == y.source;
                      });
  };
  EXPECT_TRUE(same(joined.born_near, f.plan.born_near));
  EXPECT_TRUE(same(joined.born_far, f.plan.born_far));
  EXPECT_TRUE(same(joined.epol_near, f.plan.epol_near));
  EXPECT_TRUE(same(joined.epol_far, f.plan.epol_far));

  const InteractionPlan born_only = build_interaction_plan(
      f.trees.atoms, f.trees.qpoints, f.params, PlanScope::born_only());
  EXPECT_TRUE(same(born_only.born_near, f.plan.born_near));
  EXPECT_TRUE(born_only.epol_near.empty());
  EXPECT_TRUE(born_only.epol_far.empty());
}

TEST(InteractionPlanTest, EpolChunksOwnWholeLeaves) {
  const Fixture f(1200);
  const auto check = [](const std::vector<NodePair>& list,
                        const std::vector<std::uint32_t>& chunks) {
    ASSERT_GT(chunks.size(), 2u) << "one chunk would serialize the pool";
    for (std::size_t c = 1; c + 1 < chunks.size(); ++c) {
      EXPECT_NE(list[chunks[c] - 1].target, list[chunks[c]].target)
          << "chunk " << c << " splits a v-leaf";
    }
  };
  check(f.plan.epol_near, f.plan.epol_near_chunks);
  check(f.plan.epol_far, f.plan.epol_far_chunks);
}

class BatchedVsFused : public ::testing::TestWithParam<bool> {
 protected:
  const Golden& golden() const {
    return GetParam() ? kGoldenApprox : kGoldenExact;
  }
};

TEST_P(BatchedVsFused, ScalarBornRadiiBitExact) {
  const Fixture f(1000, GetParam());
  const auto r6 = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                     f.params, nullptr,
                                     SimdMode::kForceScalar);
  EXPECT_EQ(digest(r6.radii), golden().born);
  // r^4 has no SIMD rows: kAuto runs the scalar engine too.
  const auto r4 = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                     f.params, BornKernel::kSurfaceR4);
  EXPECT_EQ(digest(r4.radii), golden().r4);
}

TEST_P(BatchedVsFused, ScalarEpolBitExact) {
  const Fixture f(1000, GetParam());
  const auto born = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                       f.params, nullptr,
                                       SimdMode::kForceScalar);
  const auto e = epol_batched(f.trees.atoms, f.mol, born.radii, f.plan,
                              f.params, {}, nullptr,
                              SimdMode::kForceScalar);
  EXPECT_EQ(bits(e.energy), golden().epol);
}

TEST_P(BatchedVsFused, ScalarRangePlansBitExact) {
  // The distributed drivers' rank-local plans: a q-leaf range for the
  // Born phase, a v-leaf range for E_pol with prebuilt bins.
  const Fixture f(1000, GetParam());
  const std::size_t nq = f.trees.qpoints.num_leaves();
  const InteractionPlan born_plan = build_interaction_plan(
      f.trees.atoms, f.trees.qpoints, f.params,
      PlanScope::born_only(nq / 3, 2 * nq / 3));
  BornWorkspace ws(f.trees);
  execute_born_plan(born_inputs(f.trees, f.mol, f.surf), born_plan,
                    BornKernel::kSurfaceR6, ws, nullptr,
                    SimdMode::kForceScalar);
  EXPECT_EQ(digest(ws), golden().born_part);

  const auto born = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                       f.params, nullptr,
                                       SimdMode::kForceScalar);
  const ChargeBins bins = build_charge_bins(f.trees.atoms, f.mol.charges(),
                                            born.radii, f.params.eps_epol);
  const std::size_t nv = f.trees.atoms.num_leaves();
  const InteractionPlan epol_plan = build_interaction_plan(
      f.trees.atoms, f.trees.qpoints, f.params,
      PlanScope::epol_only(nv / 3, 2 * nv / 3));
  const double part =
      execute_epol_plan(f.trees.atoms, f.mol, bins, born.radii, epol_plan,
                        f.params.approx_math, nullptr,
                        SimdMode::kForceScalar);
  EXPECT_EQ(bits(part), golden().epol_part);
}

TEST_P(BatchedVsFused, ScalarCrossTreePlanBitExact) {
  const Fixture rec(500, GetParam());
  const auto lig_mol = molecule::generate_ligand(40, 7);
  const auto lig_surf = surface::build_surface(lig_mol);
  const BornOctrees lig = build_born_octrees(lig_mol, lig_surf);
  const InteractionPlan plan = build_interaction_plan(
      rec.trees.atoms, lig.qpoints, rec.params, PlanScope::born_only());
  BornWorkspace ws(rec.trees.atoms);
  execute_born_plan({rec.trees.atoms, rec.mol, lig.qpoints,
                     lig.q_weighted_normal, lig_surf},
                    plan, BornKernel::kSurfaceR6, ws, nullptr,
                    SimdMode::kForceScalar);
  EXPECT_EQ(digest(ws), kGoldenCross);
}

TEST_P(BatchedVsFused, SimdWithinTightTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  // The full pipeline: SIMD radii feed SIMD E_pol, scalar feeds scalar.
  const Fixture f(1000, GetParam());
  const auto scalar = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                         f.params, nullptr,
                                         SimdMode::kForceScalar);
  const auto simd = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                       f.params, nullptr, SimdMode::kAuto);
  ASSERT_EQ(simd.radii.size(), scalar.radii.size());
  for (std::size_t a = 0; a < scalar.radii.size(); ++a) {
    EXPECT_LT(rel_diff(simd.radii[a], scalar.radii[a]), 1e-10)
        << "atom " << a;
  }
  const auto scalar_e =
      epol_batched(f.trees.atoms, f.mol, scalar.radii, f.plan, f.params, {},
                   nullptr, SimdMode::kForceScalar);
  const auto simd_e =
      epol_batched(f.trees.atoms, f.mol, simd.radii, f.plan, f.params, {},
                   nullptr, SimdMode::kAuto);
  EXPECT_LT(rel_diff(simd_e.energy, scalar_e.energy), 1e-10);
}

TEST_P(BatchedVsFused, PooledExecutionMatchesSerial) {
  const Fixture f(800, GetParam());
  parallel::WorkStealingPool pool(4);
  for (const SimdMode mode : {SimdMode::kForceScalar, SimdMode::kAuto}) {
    const auto serial = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                           f.params, nullptr, mode);
    const auto pooled = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                           f.params, &pool, mode);
    for (std::size_t a = 0; a < serial.radii.size(); ++a) {
      EXPECT_LT(rel_diff(pooled.radii[a], serial.radii[a]), 1e-12);
    }
    // E_pol chunks own whole v-leaves: pooled is bit-identical.
    const auto e_serial =
        epol_batched(f.trees.atoms, f.mol, serial.radii, f.plan, f.params,
                     {}, nullptr, mode);
    const auto e_pooled =
        epol_batched(f.trees.atoms, f.mol, serial.radii, f.plan, f.params,
                     {}, &pool, mode);
    EXPECT_EQ(bits(e_pooled.energy), bits(e_serial.energy));
  }
}

INSTANTIATE_TEST_SUITE_P(MathPolicies, BatchedVsFused,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "approx" : "exact";
                         });

TEST(BatchedEdgeTest, SingleAtomMoleculeBitExact) {
  const Fixture f(1);
  const auto born =
      born_radii_batched(f.trees, f.mol, f.surf, f.plan, f.params,
                         nullptr, SimdMode::kForceScalar);
  ASSERT_EQ(born.radii.size(), 1u);
  EXPECT_EQ(digest(born.radii), 0x43c1b2c966fa2029ull);
  const auto e =
      epol_batched(f.trees.atoms, f.mol, born.radii, f.plan, f.params, {},
                   nullptr, SimdMode::kForceScalar);
  EXPECT_EQ(bits(e.energy), 0x8000000000000000ull);  // -0.0: zero charge
}

TEST(BatchedEdgeTest, EmptyTreesYieldEmptyPlanAndZeroEnergy) {
  const BornOctrees empty;
  const InteractionPlan plan = build_interaction_plan(empty, {});
  EXPECT_EQ(plan.num_items(), 0u);
  const octree::Octree no_tree;
  molecule::Molecule none("empty");
  const auto epol = epol_batched(no_tree, none, {}, plan, {});
  EXPECT_EQ(epol.energy, 0.0);  // lint:allow(float-eq) exact empty-input contract
}

TEST(BatchedEdgeTest, AllEqualBornRadiiBitExact) {
  const Fixture f(600);
  const std::vector<double> born(f.mol.size(), 2.5);
  const auto scalar =
      epol_batched(f.trees.atoms, f.mol, born, f.plan, f.params, {},
                   nullptr, SimdMode::kForceScalar);
  EXPECT_EQ(bits(scalar.energy), 0xc095477fc410f6f7ull);
  if (simd_available()) {
    const auto simd = epol_batched(f.trees.atoms, f.mol, born, f.plan,
                                   f.params, {}, nullptr, SimdMode::kAuto);
    EXPECT_LT(rel_diff(simd.energy, scalar.energy), 1e-10);
  }
}

TEST(BatchedRowTest, SimdRowsMatchScalarRows) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const Fixture f(500);
  const BornSoA bsoa = build_born_soa(born_inputs(f.trees, f.mol, f.surf));
  const std::uint32_t qn = static_cast<std::uint32_t>(bsoa.qw.size());
  // Odd-length range exercises the vector body and the scalar tail.
  const std::uint32_t qe = std::min<std::uint32_t>(qn, 37);
  const double scalar = born_row(bsoa, 0, qe, 1.0, -2.0, 0.5, false);
  const double simd = born_row(bsoa, 0, qe, 1.0, -2.0, 0.5, true);
  EXPECT_LT(rel_diff(simd, scalar), 1e-10);

  const auto born = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const EpolSoA esoa = build_epol_soa(f.trees.atoms, f.mol, born.radii);
  const std::uint32_t ue =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(esoa.q.size()), 29);
  for (const bool approx : {true, false}) {
    const double es = epol_row(esoa, 0, ue, 0.3, 0.7, -1.1, 0.4, 2.0,
                               approx, false);
    const double ev = epol_row(esoa, 0, ue, 0.3, 0.7, -1.1, 0.4, 2.0,
                               approx, true);
    EXPECT_LT(rel_diff(ev, es), 1e-10) << "approx=" << approx;
  }
}

TEST(BatchedRowTest, SimdFarBinsMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const Fixture f(800);
  const auto born = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const ChargeBins bins = build_charge_bins(
      f.trees.atoms, f.mol.charges(), born.radii, f.params.eps_epol);
  const std::uint32_t root = f.trees.atoms.root_index();
  for (const bool approx : {true, false}) {
    const double scalar =
        epol_far_bins(bins, root, root, 900.0, approx, false);
    const double simd = epol_far_bins(bins, root, root, 900.0, approx,
                                      true);
    EXPECT_LT(rel_diff(simd, scalar), 1e-10) << "approx=" << approx;
  }
}

}  // namespace
}  // namespace octgb::gb
