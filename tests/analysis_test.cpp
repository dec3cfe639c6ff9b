// Tests for the contract layer (src/analysis): every deep validator
// must pass on healthy structures AND fire on deliberately corrupted
// ones -- a validator that accepts everything is worse than none. Also
// covers the FPE trap switches, the typed molecule/io errors, the
// mutation-hook death path, and the eps-tightening accuracy property
// the Born far criterion promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "src/analysis/contracts.h"
#include "src/analysis/fpe.h"
#include "src/analysis/validate.h"
#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/naive.h"
#include "src/molecule/generators.h"
#include "src/molecule/io.h"
#include "src/serve/service.h"
#include "src/serve/structure_cache.h"
#include "src/surface/quadrature.h"

namespace octgb::analysis {
namespace {

struct Fixture {
  molecule::Molecule mol;
  surface::QuadratureSurface surf;
  gb::BornOctrees trees;
  gb::ApproxParams params;
  gb::InteractionPlan plan;
  octree::OctreeParams oparams;

  explicit Fixture(std::size_t atoms, std::size_t leaf_capacity = 8) {
    oparams.leaf_capacity = leaf_capacity;
    mol = molecule::generate_protein(atoms, 417);
    surf = surface::build_surface(mol);
    trees = gb::build_born_octrees(mol, surf, oparams);
    plan = gb::build_interaction_plan(trees, params);
  }
};

// ---------------------------------------------------------------- octree

TEST(ValidateOctreeTest, HealthyTreePasses) {
  const Fixture f(600);
  EXPECT_TRUE(
      validate_octree(f.trees.atoms, f.mol.positions(), &f.oparams).ok());
  EXPECT_TRUE(
      validate_octree(f.trees.qpoints, f.surf.points, &f.oparams).ok());
}

TEST(ValidateOctreeTest, CatchesShrunkRadius) {
  Fixture f(400);
  f.trees.atoms.node_for_test(0).radius *= 0.25;
  const Report r = validate_octree(f.trees.atoms, f.mol.positions());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.str().find("excludes"), std::string::npos) << r.str();
}

TEST(ValidateOctreeTest, CatchesSwappedChildBounds) {
  Fixture f(600);
  // Find an internal node with at least two children and swap the two
  // children's point ranges: each child still has a plausible range,
  // but the partition of the parent's range is no longer in order.
  octree::Octree& tree = f.trees.atoms;
  bool corrupted = false;
  for (std::size_t n = 0; n < tree.num_nodes() && !corrupted; ++n) {
    const octree::Node& node = tree.node(n);
    if (node.leaf) continue;
    std::uint32_t first = octree::Node::kInvalid;
    for (const auto c : node.children) {
      if (c == octree::Node::kInvalid) continue;
      if (first == octree::Node::kInvalid) {
        first = c;
        continue;
      }
      octree::Node& a = tree.node_for_test(first);
      octree::Node& b = tree.node_for_test(c);
      std::swap(a.begin, b.begin);
      std::swap(a.end, b.end);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(validate_octree(tree, f.mol.positions()).ok());
}

TEST(ValidateOctreeTest, CatchesTransformWithoutMovingPoints) {
  Fixture f(400);
  // Public-API misuse the docking path must never commit: moving the
  // tree without moving the molecule.
  f.trees.atoms.transform(geom::Rigid::translate({50.0, 0.0, 0.0}));
  EXPECT_FALSE(validate_octree(f.trees.atoms, f.mol.positions()).ok());
}

TEST(ValidateOctreeTest, CatchesNonFiniteCenter) {
  Fixture f(300);
  f.trees.atoms.node_for_test(1).center.x =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(validate_octree(f.trees.atoms, f.mol.positions()).ok());
}

// ------------------------------------------------------- born aggregates

TEST(ValidateBornOctreesTest, HealthyAggregatesPass) {
  const Fixture f(500);
  EXPECT_TRUE(validate_born_octrees(f.trees, f.surf).ok());
}

TEST(ValidateBornOctreesTest, CatchesDriftedNormalAggregate) {
  Fixture f(500);
  ASSERT_FALSE(f.trees.q_weighted_normal.empty());
  f.trees.q_weighted_normal[0].x += 0.5;
  const Report r = validate_born_octrees(f.trees, f.surf);
  ASSERT_FALSE(r.ok());
}

// ------------------------------------------------------------------ plan

TEST(ValidatePlanTest, HealthyPlanPasses) {
  const Fixture f(800);
  ASSERT_GT(f.plan.born_near.size(), 0u);
  ASSERT_GT(f.plan.born_far.size(), 0u);
  EXPECT_TRUE(validate_plan(f.trees, f.plan, f.params).ok());
}

TEST(ValidatePlanTest, CatchesDroppedNearPair) {
  Fixture f(800);
  ASSERT_FALSE(f.plan.born_near.empty());
  f.plan.born_near.pop_back();
  f.plan.born_near_chunks.back() =
      static_cast<std::uint32_t>(f.plan.born_near.size());
  const Report r = validate_plan(f.trees, f.plan, f.params);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.str().find("covered"), std::string::npos) << r.str();
}

TEST(ValidatePlanTest, CatchesDuplicatedPair) {
  Fixture f(800);
  ASSERT_FALSE(f.plan.epol_near.empty());
  f.plan.epol_near.push_back(f.plan.epol_near.front());
  f.plan.epol_near_chunks.back() =
      static_cast<std::uint32_t>(f.plan.epol_near.size());
  EXPECT_FALSE(validate_plan(f.trees, f.plan, f.params).ok());
}

TEST(ValidatePlanTest, CatchesNearPairReclassifiedAsFar) {
  Fixture f(800);
  ASSERT_FALSE(f.plan.born_near.empty());
  // A near pair violates the separation criterion by definition, so
  // re-filing it under born_far must trip the far-pair check.
  f.plan.born_far.push_back(f.plan.born_near.back());
  f.plan.born_far_chunks.back() =
      static_cast<std::uint32_t>(f.plan.born_far.size());
  f.plan.born_near.pop_back();
  f.plan.born_near_chunks.back() =
      static_cast<std::uint32_t>(f.plan.born_near.size());
  const Report r = validate_plan(f.trees, f.plan, f.params);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.str().find("separation"), std::string::npos) << r.str();
}

TEST(ValidatePlanTest, CatchesBrokenChunkTable) {
  Fixture f(400);
  ASSERT_GE(f.plan.born_near_chunks.size(), 1u);
  f.plan.born_near_chunks.back() += 3;
  EXPECT_FALSE(validate_plan(f.trees, f.plan, f.params).ok());
}

// The first index i > 0 whose item continues the target run of item
// i - 1 (items.size() when every run is one item long).
std::size_t mid_run_index(const std::vector<gb::NodePair>& items) {
  std::size_t i = 1;
  while (i < items.size() && items[i].target != items[i - 1].target) ++i;
  return i;
}

TEST(ValidatePlanTest, CatchesChunkSplittingATarget) {
  // A chunk boundary inside one target's run gives that accumulator two
  // writers -- a data race under the executors' plain stores.
  Fixture f(800);
  const std::size_t split = mid_run_index(f.plan.born_far);
  ASSERT_LT(split, f.plan.born_far.size());
  f.plan.born_far_chunks = {
      0, static_cast<std::uint32_t>(split),
      static_cast<std::uint32_t>(f.plan.born_far.size())};
  const Report r = validate_plan(f.trees, f.plan, f.params);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.str().find("splits target"), std::string::npos) << r.str();
}

TEST(ValidatePlanTest, CatchesTargetItemsNotContiguous) {
  // Same items, same coverage, but one target's run is broken in two:
  // two chunks could own the same accumulator.
  Fixture f(800);
  auto& far = f.plan.born_far;
  const std::size_t i = mid_run_index(far);
  ASSERT_LT(i, far.size());
  const gb::NodePair moved = far[i];
  far.erase(far.begin() + static_cast<std::ptrdiff_t>(i));
  far.push_back(moved);
  const Report r = validate_plan(f.trees, f.plan, f.params);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.str().find("not contiguous"), std::string::npos) << r.str();
}

TEST(ValidatePlanTest, DualTreePlanWithInternalSourcesPasses) {
  const Fixture f(800);
  const gb::InteractionPlan dual = gb::build_interaction_plan(
      f.trees.atoms, f.trees.qpoints, f.params, gb::PlanScope::born_only(),
      nullptr, gb::Traversal::kDualTree);
  ASSERT_TRUE(std::any_of(dual.born_far.begin(), dual.born_far.end(),
                          [&](const gb::NodePair& p) {
                            return !f.trees.qpoints.node(p.source).leaf;
                          }));
  EXPECT_TRUE(validate_plan(f.trees, dual, f.params).ok());
}

// ------------------------------------------------------------ born radii

TEST(ValidateBornRadiiTest, HealthyRadiiPass) {
  const Fixture f(400);
  const auto born = gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
  EXPECT_TRUE(validate_born_radii(f.mol.radii(), born.radii).ok());
}

TEST(ValidateBornRadiiTest, CatchesNegativeRadius) {
  const Fixture f(300);
  auto born = gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
  born.radii[2] = -born.radii[2];
  const Report r = validate_born_radii(f.mol.radii(), born.radii);
  ASSERT_FALSE(r.ok());
}

TEST(ValidateBornRadiiTest, CatchesBelowVdwAndNonFinite) {
  const Fixture f(300);
  auto born = gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
  born.radii[0] = f.mol.radii()[0] * 0.5;
  born.radii[1] = std::numeric_limits<double>::infinity();
  const Report r = validate_born_radii(f.mol.radii(), born.radii);
  EXPECT_GE(r.errors.size(), 2u) << r.str();
}

// ----------------------------------------------------------- charge bins

TEST(ValidateChargeBinsTest, HealthyBinsPass) {
  const Fixture f(500);
  const auto born = gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const auto bins = gb::build_charge_bins(f.trees.atoms, f.mol.charges(),
                                          born.radii, 0.5);
  EXPECT_TRUE(
      validate_charge_bins(f.trees.atoms, bins, f.mol.charges()).ok());
}

TEST(ValidateChargeBinsTest, CatchesCharGeConservationBreak) {
  const Fixture f(500);
  const auto born = gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
  auto bins = gb::build_charge_bins(f.trees.atoms, f.mol.charges(),
                                    born.radii, 0.5);
  ASSERT_FALSE(bins.q.empty());
  bins.q[bins.q.size() / 2] += 0.25;
  EXPECT_FALSE(
      validate_charge_bins(f.trees.atoms, bins, f.mol.charges()).ok());
}

// ----------------------------------------------------------------- cache

std::shared_ptr<const serve::CacheEntry> make_entry(std::uint64_t key,
                                                    std::uint64_t skey) {
  auto e = std::make_shared<serve::CacheEntry>();
  e->key = key;
  e->skey = skey;
  e->positions.assign(8, geom::Vec3{1.0, 2.0, 3.0});
  e->born_radii.assign(8, 1.5);
  return e;
}

TEST(ValidateCacheTest, HealthyCachePassesAndBytesMatch) {
  serve::StructureCache cache(4);
  for (std::uint64_t k = 0; k < 6; ++k) cache.insert(make_entry(k, k % 2));
  EXPECT_EQ(cache.size(), 4u);  // two evicted
  const Report r = cache.validate();
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_GT(cache.memory_bytes(), 0u);
}

TEST(ValidateCacheTest, CatchesByteCountDrift) {
  serve::StructureCache cache(4);
  cache.insert(make_entry(1, 1));
  ASSERT_TRUE(cache.validate().ok());
  cache.test_only_corrupt_bytes(64);
  const Report r = cache.validate();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.str().find("drift"), std::string::npos) << r.str();
  cache.test_only_corrupt_bytes(-64);
  EXPECT_TRUE(cache.validate().ok());
}

// --------------------------------------------------------------- service

TEST(ValidateServiceTest, InvariantsHoldAcrossMixedTraffic) {
  serve::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.batch_linger = std::chrono::microseconds(0);
  serve::PolarizationService svc(cfg);
  const auto mol = molecule::generate_protein(300, 7);
  for (std::uint64_t i = 0; i < 3; ++i) {
    serve::Request req;
    req.id = i;
    req.mol = mol;  // repeats: cold build then cache hits
    (void)svc.serve_now(std::move(req));
  }
  svc.drain();
  const Report r = svc.validate_invariants();
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(svc.stats().completed, 3u);
}

// ------------------------------------------------------------------- fpe

TEST(FpeTest, EnableDisableToggle) {
  if (!fpe_supported()) GTEST_SKIP() << "no feenableexcept on this libc";
  const bool was_enabled = fpe_enabled();  // OCTGB_FPE=1 runs arrive armed
  fpe_enable();
  EXPECT_TRUE(fpe_enabled());
  {
    FpeSuspend suspend;
    EXPECT_FALSE(fpe_enabled());
    // Sanctioned non-finite arithmetic while suspended must not trap.
    volatile double zero = 0.0;
    volatile double nan_val = zero / zero;
    EXPECT_TRUE(std::isnan(nan_val));
  }
  EXPECT_TRUE(fpe_enabled());  // RAII restored the mask
  if (!was_enabled) fpe_disable();
}

TEST(FpeDeathTest, ArmedTrapKillsOnDivByZero) {
  if (!fpe_supported()) GTEST_SKIP() << "no feenableexcept on this libc";
  EXPECT_DEATH(
      {
        fpe_enable();
        volatile double zero = 0.0;
        volatile double r = 1.0 / zero;
        (void)r;
      },
      "");
}

// ------------------------------------------------------------- contracts

TEST(ContractsTest, TestCorruptionFalseWithoutEnv) {
  unsetenv("OCTGB_TEST_CORRUPT");
  EXPECT_FALSE(test_corruption("born_sign"));
}

TEST(ContractsTest, MacrosCompileInAnyBuild) {
  // In non-validate builds these are empty statements; in validate
  // builds the conditions hold. Either way: no output, no abort.
  OCTGB_REQUIRE(1 + 1 == 2, "arithmetic");
  OCTGB_ASSERT(true, "trivial");
  OCTGB_ENSURE(2 * 2 == 4, "arithmetic");
  SUCCEED();
}

#if defined(OCTGB_VALIDATE_BUILD)
TEST(ContractsDeathTest, RequireAbortsWithContext) {
  EXPECT_DEATH(
      { OCTGB_REQUIRE(false, "deliberate test failure"); },
      "contract violated.*REQUIRE");
}

TEST(ContractsDeathTest, MutationHookTripsPushIntegralsCheckpoint) {
  // The ci.sh mutation self-test in unit form: flip one radius sign via
  // the test-only hook; the PUSH-INTEGRALS checkpoint must abort.
  setenv("OCTGB_TEST_CORRUPT", "born_sign", 1);
  EXPECT_DEATH(
      {
        const Fixture f(300);
        (void)gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
      },
      "contract violated");
  unsetenv("OCTGB_TEST_CORRUPT");
}
#else
TEST(ContractsDeathTest, MutationHooksAreCompiledOutOfThisBuild) {
  setenv("OCTGB_TEST_CORRUPT", "born_sign", 1);
  EXPECT_FALSE(test_corruption("born_sign"));
  const Fixture f(200);
  const auto born =
      gb::born_radii_octree(f.trees, f.mol, f.surf, f.params);
  EXPECT_TRUE(validate_born_radii(f.mol.radii(), born.radii).ok());
  unsetenv("OCTGB_TEST_CORRUPT");
}
#endif

// ----------------------------------------------------------- io contract

TEST(IoErrorTest, RejectsNonPositiveRadiusWithTypedError) {
  std::istringstream is("0 0 0 -1.5 0.1\n");
  try {
    (void)molecule::read_xyzr(is);
    FAIL() << "negative radius accepted";
  } catch (const molecule::IoError& e) {
    EXPECT_EQ(e.kind(), molecule::IoError::Kind::kInvalidRadius);
  }
}

TEST(IoErrorTest, RejectsNonFiniteInputs) {
  // "nan"/"inf" either fail numeric extraction (malformed record) or
  // parse to a non-finite value (non-finite coordinate) depending on
  // the C++ library; both must surface as IoError.
  std::istringstream bad_coord("nan 0 0 1.5\n");
  EXPECT_THROW((void)molecule::read_xyzr(bad_coord), molecule::IoError);
  std::istringstream bad_charge("ATOM 1 C GLY 1 0 0 0 inf 1.7\n");
  EXPECT_THROW((void)molecule::read_pqr(bad_charge), molecule::IoError);
}

TEST(IoErrorTest, RejectsMalformedRecordsAndIsRuntimeError) {
  std::istringstream is("ATOM 1 C\n");
  try {
    (void)molecule::read_pqr(is);
    FAIL() << "truncated record accepted";
  } catch (const std::runtime_error& e) {  // IoError derives from it
    const auto* io = dynamic_cast<const molecule::IoError*>(&e);
    ASSERT_NE(io, nullptr);
    EXPECT_EQ(io->kind(), molecule::IoError::Kind::kMalformedRecord);
  }
}

TEST(IoErrorTest, AcceptsHealthyFiles) {
  std::istringstream pqr(
      "ATOM 1 C GLY 1 0.0 0.0 0.0 0.5 1.7\n"
      "ATOM 2 N GLY 1 1.4 0.0 0.0 -0.5 1.55\nEND\n");
  EXPECT_EQ(molecule::read_pqr(pqr).size(), 2u);
  std::istringstream xyzr("0 0 0 1.7 0.5\n1.4 0 0 1.55\n");
  EXPECT_EQ(molecule::read_xyzr(xyzr).size(), 2u);
}

// -------------------------------------------- eps-tightening (accuracy)

TEST(BornAccuracyTest, TighterEpsilonReducesMeanErrorVsNaive) {
  // The far-field criterion's promise: eps bounds the relative error of
  // each approximated integral, so shrinking eps must shrink the radii
  // error against the exact naive sum.
  const auto mol = molecule::generate_protein(500, 23);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  const auto exact = gb::born_radii_naive_r6(mol, surf);

  auto mean_rel_err = [&](double eps) {
    gb::ApproxParams p;
    p.eps_born = eps;
    const auto approx = gb::born_radii_octree(trees, mol, surf, p);
    double sum = 0.0;
    for (std::size_t i = 0; i < exact.radii.size(); ++i) {
      sum += std::abs(approx.radii[i] - exact.radii[i]) / exact.radii[i];
    }
    return sum / static_cast<double>(exact.radii.size());
  };

  const double loose = mean_rel_err(2.0);
  const double tight = mean_rel_err(0.2);
  EXPECT_LT(tight, loose);
  EXPECT_LT(tight, 0.01);  // eps=0.2 keeps radii within 1% on average
}

}  // namespace
}  // namespace octgb::analysis
