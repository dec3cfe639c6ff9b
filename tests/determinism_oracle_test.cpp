// Determinism divergence oracle (DESIGN.md section 17).
//
// scripts/detlint enforces the determinism contracts statically; this
// suite enforces them dynamically: every pipeline declared `strict` in
// scripts/detlint/contracts.txt is run repeatedly -- and, where a
// worker pool is an implementation detail rather than a model
// parameter, at 1/2/8 workers -- and its complete output is folded
// into an FNV-1a digest (src/analysis/digest.h). The digests must be
// EQUAL, bit for bit: a single reordered element or a single ulp of
// floating-point drift fails the test.
//
// The oracle also proves it can see: under OCTGB_VALIDATE_BUILD the
// OCTGB_TEST_CORRUPT=order_flip hook reverses one batch-processing
// loop in the load sim, and the digest must CHANGE (a divergence
// oracle that passes corrupted runs is worse than none -- same
// philosophy as scripts/ci.sh --validate-only's mutation tests).
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <span>
#include <thread>
#include <vector>

#include "src/analysis/digest.h"
#include "src/analysis/sched/sched.h"
#include "src/cluster/codec.h"
#include "src/docking/pose_scorer.h"
#include "src/gb/born.h"
#include "src/gb/calculator.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/gb/naive.h"
#include "src/load/shard_sim.h"
#include "src/load/sim.h"
#include "src/load/traffic.h"
#include "src/molecule/generators.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/runtime/drivers.h"
#include "src/serve/content_hash.h"
#include "src/serve/service.h"
#include "src/surface/marching.h"
#include "src/surface/quadrature.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace octgb {
namespace {

using analysis::Digest;

// Worker counts every pool-parameterized pipeline must agree across.
// 1 exercises the serial-elision path, 2 the smallest real work
// distribution, 8 an oversubscribed pool on the 1-core CI container
// (maximal interleaving variety).
constexpr int kWorkerCounts[] = {1, 2, 8};

std::uint64_t digest_tree(const octree::Octree& tree) {
  const octree::OctreeFlatData flat = tree.to_flat();
  Digest d;
  d.u64(flat.nodes.size());
  for (const octree::Node& n : flat.nodes) {
    // Field by field, never raw bytes: Node has tail padding.
    d.u32(n.begin).u32(n.end).u32(n.parent);
    d.u32(n.children.first).byte(n.children.count);
    d.byte(n.depth).boolean(n.leaf);
    d.f64(n.center.x).f64(n.center.y).f64(n.center.z);
    d.f64(n.radius);
  }
  d.span_u<std::uint32_t>(flat.point_index);
  d.span_u<std::uint32_t>(flat.leaves);
  d.span_u<std::uint32_t>(flat.level_offset);
  d.span_u<std::uint64_t>(flat.keys);
  d.span_u<std::uint64_t>(flat.node_key_lo);
  d.u64(flat.chunk_sums.size());
  for (const geom::Vec3& v : flat.chunk_sums) d.f64(v.x).f64(v.y).f64(v.z);
  d.span_u<std::uint32_t>(flat.inv_index);
  d.span_u<std::uint32_t>(flat.pos_leaf);
  return d.value();
}

std::uint64_t digest_plan(const gb::InteractionPlan& plan) {
  Digest d;
  const auto add_pairs = [&d](const std::vector<gb::NodePair>& pairs) {
    d.u64(pairs.size());
    for (const gb::NodePair& p : pairs) d.u32(p.target).u32(p.source);
  };
  add_pairs(plan.born_near);
  add_pairs(plan.born_far);
  add_pairs(plan.epol_near);
  add_pairs(plan.epol_far);
  return d.value();
}

std::uint64_t digest_outcomes(const std::vector<load::SimOutcome>& outcomes) {
  Digest d;
  d.u64(outcomes.size());
  for (const load::SimOutcome& o : outcomes) {
    d.u64(o.id).i64(o.arrival_ns).i64(o.dispatch_ns).i64(o.complete_ns);
    d.i64(o.deadline_ns);
    d.byte(static_cast<std::uint8_t>(o.status));
    d.byte(static_cast<std::uint8_t>(o.path));
    d.boolean(o.deadline_met).u64(o.atoms);
  }
  return d.value();
}

std::vector<geom::Vec3> positions_of(const molecule::Molecule& mol) {
  std::vector<geom::Vec3> out;
  out.reserve(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    out.push_back(mol.atom(i).position);
  }
  return out;
}

// ------------------------------------------------------------- octree

TEST(DeterminismOracleTest, OctreeBuildBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(3000, 41);
  const auto points = positions_of(mol);
  octree::OctreeParams params;
  params.leaf_capacity = 8;
  params.parallel_grain = 64;  // far below n: the pool really runs

  const octree::Octree serial(points, params, nullptr);
  const std::uint64_t want = digest_tree(serial);
  ASSERT_NE(want, Digest{}.value());
  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    const octree::Octree tree(points, params, &pool);
    EXPECT_EQ(digest_tree(tree), want) << "workers=" << workers;
  }
}

TEST(DeterminismOracleTest, OctreeRefitAndRekeyBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(2000, 43);
  auto points = positions_of(mol);
  octree::OctreeParams params;
  params.leaf_capacity = 8;
  params.parallel_grain = 64;

  // Jitter every position (small: refit keeps topology; a few larger
  // kicks force the re-key path to do real work).
  auto moved = points;
  util::Xoshiro256 rng(7);
  for (auto& p : moved) {
    p.x += 0.05 * rng.normal();
    p.y += 0.05 * rng.normal();
    p.z += 0.05 * rng.normal();
  }
  moved[10].x += 4.0;
  moved[500].y -= 4.0;

  octree::Octree ref(points, params, nullptr);
  ref.refit(moved, nullptr);
  const std::uint64_t want_refit = digest_tree(ref);
  octree::Octree ref2(points, params, nullptr);
  ref2.refit_rekey(moved, nullptr);
  const std::uint64_t want_rekey = digest_tree(ref2);

  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    octree::Octree t1(points, params, &pool);
    t1.refit(moved, &pool);
    EXPECT_EQ(digest_tree(t1), want_refit) << "refit workers=" << workers;
    octree::Octree t2(points, params, &pool);
    t2.refit_rekey(moved, &pool);
    EXPECT_EQ(digest_tree(t2), want_rekey) << "rekey workers=" << workers;
  }
}

// ------------------------------------------------------------ surface

std::uint64_t digest_mesh(const surface::TriMesh& mesh) {
  Digest d;
  d.u64(mesh.vertices.size());
  for (const geom::Vec3& v : mesh.vertices) d.f64(v.x).f64(v.y).f64(v.z);
  d.u64(mesh.triangles.size());
  for (const auto& t : mesh.triangles) d.u32(t[0]).u32(t[1]).u32(t[2]);
  return d.value();
}

std::uint64_t digest_qpoints(const surface::QuadratureSurface& surf) {
  Digest d;
  d.u64(surf.size());
  for (std::size_t q = 0; q < surf.size(); ++q) {
    d.f64(surf.points[q].x).f64(surf.points[q].y).f64(surf.points[q].z);
    d.f64(surf.normals[q].x).f64(surf.normals[q].y).f64(surf.normals[q].z);
    d.f64(surf.weights[q]);
  }
  return d.value();
}

// The mesh path's per-point loops run on the pool: grid samples, mesh
// vertices and triangles, and the q-points with their normals and
// weights must all equal the serial build bit for bit. The 10-atom
// ligand stays below the grain and runs inline; the empty molecule has
// no surface at all.
TEST(DeterminismOracleTest, SurfaceBitIdenticalAcrossWorkerCounts) {
  const molecule::Molecule mols[] = {molecule::generate_protein(1500, 61),
                                     molecule::generate_ligand(10, 900),
                                     molecule::Molecule("empty")};
  const surface::SurfaceParams sp;
  surface::MarchingParams mp;
  mp.spacing = sp.spacing;
  for (const molecule::Molecule& mol : mols) {
    const surface::GaussianDensityField field(mol, sp.blobbiness);
    const surface::TriMesh serial_mesh =
        surface::marching_tetrahedra(field, mp, nullptr);
    const surface::QuadratureSurface serial_surf =
        surface::build_surface(mol, sp, nullptr);
    const std::uint64_t want_mesh = digest_mesh(serial_mesh);
    const std::uint64_t want_surf = digest_qpoints(serial_surf);
    if (mol.size() > 100) {
      EXPECT_GT(serial_mesh.vertices.size(), surface::kSurfaceGrain);
      EXPECT_GT(serial_surf.size(), surface::kSurfaceGrain);
    }
    for (const int workers : kWorkerCounts) {
      parallel::WorkStealingPool pool(workers);
      for (int rep = 0; rep < 3; ++rep) {
        EXPECT_EQ(digest_mesh(surface::marching_tetrahedra(field, mp, &pool)),
                  want_mesh)
            << mol.size() << " atoms, workers=" << workers << " rep=" << rep;
        EXPECT_EQ(digest_qpoints(surface::build_surface(mol, sp, &pool)),
                  want_surf)
            << mol.size() << " atoms, workers=" << workers << " rep=" << rep;
      }
    }
  }
}

// ------------------------------------------------- interaction plans

TEST(DeterminismOracleTest, PlanConstructionBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(800, 47);
  const auto surf = surface::build_surface(mol);
  gb::ApproxParams approx;
  octree::OctreeParams oct;
  oct.leaf_capacity = 8;
  oct.parallel_grain = 64;

  const auto serial_trees = gb::build_born_octrees(mol, surf, oct, nullptr);
  const auto serial_plan =
      gb::build_interaction_plan(serial_trees, approx, nullptr);
  const std::uint64_t want = digest_plan(serial_plan);

  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    const auto trees = gb::build_born_octrees(mol, surf, oct, &pool);
    EXPECT_EQ(digest_tree(trees.atoms), digest_tree(serial_trees.atoms))
        << "workers=" << workers;
    EXPECT_EQ(digest_tree(trees.qpoints), digest_tree(serial_trees.qpoints))
        << "workers=" << workers;
    const auto plan = gb::build_interaction_plan(trees, approx, &pool);
    EXPECT_EQ(digest_plan(plan), want) << "workers=" << workers;
  }
}

// ----------------------------------------------------------- E_pol

// Regression for the real divergence bug detlint's shared-float-accum
// rule found in the E_pol phase: the pooled leaf reduction accumulated
// per-chunk partials into a std::atomic<double> in completion order,
// so E_pol differed by ulps run-to-run and across worker counts. The
// plan executor's chunks own whole v-leaves and its per-leaf
// accumulators are reduced in leaf order; this test pins that down for
// epol_octree and for epol_batched in both engines, on fixed naive
// Born radii. PlanPipelineBitIdenticalAcrossWorkerCounts below covers
// the Born phase feeding it.
TEST(DeterminismOracleTest, EpolBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(600, 53);
  const auto surf = surface::build_surface(mol);
  const auto born = gb::born_radii_naive_r6(mol, surf);
  gb::ApproxParams approx;

  octree::OctreeParams oct;
  oct.leaf_capacity = 8;
  oct.parallel_grain = 64;
  const auto points = positions_of(mol);
  const octree::Octree tree(points, oct, nullptr);
  gb::BornOctrees trees;
  trees.atoms = tree;
  const gb::InteractionPlan plan = gb::build_interaction_plan(trees, approx);

  const auto check = [&](const char* what, auto&& energy) {
    const double serial = energy(nullptr);
    const std::uint64_t want = std::bit_cast<std::uint64_t>(serial);
    for (const int workers : kWorkerCounts) {
      parallel::WorkStealingPool pool(workers);
      for (int rep = 0; rep < 3; ++rep) {
        const double pooled = energy(&pool);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled), want)
            << what << " workers=" << workers << " rep=" << rep
            << " serial=" << serial << " pooled=" << pooled;
      }
    }
  };
  check("epol_octree", [&](parallel::WorkStealingPool* pool) {
    return gb::epol_octree(tree, mol, born.radii, approx, {}, pool).energy;
  });
  for (const auto mode : {gb::SimdMode::kForceScalar, gb::SimdMode::kAuto}) {
    check(mode == gb::SimdMode::kAuto ? "epol_batched/auto"
                                      : "epol_batched/scalar",
          [&](parallel::WorkStealingPool* pool) {
            return gb::epol_batched(tree, mol, born.radii, plan, approx, {},
                                    pool, mode)
                .energy;
          });
  }
}

// ------------------------------------- Born phase and whole pipelines

std::uint64_t digest_energy(std::span<const double> radii, double energy) {
  Digest d;
  d.span_f64(radii).f64(energy);
  return d.value();
}

// `run(pool)` must reproduce `run(nullptr)`'s digest at every worker
// count, twice each.
template <typename Run>
void expect_pool_independent(const char* what, Run&& run) {
  const std::uint64_t want = run(nullptr);
  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(run(&pool), want)
          << what << " workers=" << workers << " rep=" << rep;
    }
  }
}

// Born plans are target-major and every chunk owns whole targets, so the
// pooled Born deposits take plain stores in plan order: the plan's own
// radii, and the energy from them, are pool-independent in both engines.
TEST(DeterminismOracleTest, PlanPipelineBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(800, 59);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  const gb::ApproxParams approx;
  const gb::InteractionPlan plan = gb::build_interaction_plan(trees, approx);
  for (const auto mode : {gb::SimdMode::kForceScalar, gb::SimdMode::kAuto}) {
    expect_pool_independent(
        mode == gb::SimdMode::kAuto ? "plan pipeline/auto"
                                    : "plan pipeline/scalar",
        [&](parallel::WorkStealingPool* pool) {
          const auto born = gb::born_radii_batched(trees, mol, surf, plan,
                                                   approx, pool, mode);
          const auto epol = gb::epol_batched(trees.atoms, mol, born.radii,
                                             plan, approx, {}, pool, mode);
          return digest_energy(born.radii, epol.energy);
        });
  }
}

TEST(DeterminismOracleTest, GbEnergyBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(700, 67);
  const gb::CalculatorParams params;
  for (const auto traversal :
       {gb::Traversal::kSingleTree, gb::Traversal::kDualTree}) {
    expect_pool_independent(
        traversal == gb::Traversal::kDualTree ? "compute_gb_energy/dual"
                                              : "compute_gb_energy/single",
        [&](parallel::WorkStealingPool* pool) {
          const gb::GBResult r =
              gb::compute_gb_energy(mol, params, pool, traversal);
          return digest_energy(r.born_radii, r.energy);
        });
  }
}

TEST(DeterminismOracleTest, OctCilkBitIdenticalAcrossThreadCounts) {
  // OCT_CILK always runs on its own pool; every thread count must give
  // the serial dual-tree pipeline's bits.
  const auto mol = molecule::generate_protein(700, 71);
  const gb::CalculatorParams params;
  const gb::GBResult serial =
      gb::compute_gb_energy(mol, params, nullptr, gb::Traversal::kDualTree);
  const std::uint64_t want = digest_energy(serial.born_radii, serial.energy);
  for (const int threads : kWorkerCounts) {
    const runtime::DriverResult r = runtime::run_oct_cilk(mol, threads, params);
    EXPECT_EQ(digest_energy(r.born_radii, r.energy), want)
        << "threads=" << threads;
  }
}

TEST(DeterminismOracleTest, PoseScoreBitIdenticalAcrossWorkerCounts) {
  const auto receptor = molecule::generate_protein(600, 73);
  const auto ligand = molecule::generate_ligand(30, 79);
  const gb::CalculatorParams params;
  const geom::Rigid pose =
      geom::Rigid::translate(
          {0.5 * receptor.center_bounds().max_extent() + 5.0, 1.0, -2.0}) *
      geom::Rigid{geom::Mat3::axis_angle({0, 1, 1}, 0.6), {}};
  expect_pool_independent("PoseScorer", [&](parallel::WorkStealingPool* pool) {
    const docking::PoseScorer scorer(receptor, ligand, params, pool);
    const docking::PoseScore score = scorer.score(pose);
    Digest d;
    d.f64(scorer.receptor_energy()).f64(scorer.ligand_energy());
    d.f64(score.complex_energy).f64(score.delta_energy);
    return d.value();
  });
}

TEST(DeterminismOracleTest, DistributedStaticDivisionsIgnoreThreadsPerRank) {
  const auto mol = molecule::generate_protein(700, 83);
  for (const auto division :
       {runtime::WorkDivision::kNodeNode,
        runtime::WorkDivision::kNodeNodeWeighted,
        runtime::WorkDivision::kAtomAtom}) {
    runtime::DriverConfig config;
    config.num_ranks = 2;
    config.division = division;
    config.threads_per_rank = 1;
    const runtime::DriverResult one = runtime::run_distributed(mol, config);
    config.threads_per_rank = 2;
    const runtime::DriverResult two = runtime::run_distributed(mol, config);
    EXPECT_EQ(digest_energy(two.born_radii, two.energy),
              digest_energy(one.born_radii, one.energy))
        << "division=" << static_cast<int>(division);
  }
}

// ----------------------------------------------------------- load sim

load::PolicyConfig sim_policy(int num_threads) {
  load::PolicyConfig policy;
  policy.num_threads = num_threads;
  return policy;
}

std::vector<load::RequestEvent> oracle_trace(std::size_t n,
                                             std::uint64_t seed) {
  load::ArrivalSpec arrival;
  arrival.kind = load::ArrivalKind::kBursty;
  arrival.rate_rps = 20000.0;  // deep queues: real batches form
  load::WorkloadSpec workload;
  workload.repeat_frac = 0.5;  // duplicates inside single batches
  return load::generate_trace(arrival, workload, n, seed);
}

TEST(DeterminismOracleTest, ServiceSimDigestStableAcrossRuns) {
  const auto trace = oracle_trace(1500, 0xdead5eed);
  for (const int threads : kWorkerCounts) {
    const load::CostModel cost;
    load::ServiceSim first(sim_policy(threads), cost);
    const std::uint64_t want = digest_outcomes(first.run(trace));
    for (int rep = 0; rep < 2; ++rep) {
      load::ServiceSim sim(sim_policy(threads), cost);
      EXPECT_EQ(digest_outcomes(sim.run(trace)), want)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(DeterminismOracleTest, ShardSimDigestStableWithMigrationFiring) {
  const auto trace = oracle_trace(2000, 0xca11ab1e);
  for (const int threads : kWorkerCounts) {
    load::ShardSimConfig config;
    config.router.num_shards = 4;
    config.router.shard_window = 4;
    // Aggressive policies so the replication AND migration paths --
    // including RouterState::maybe_migrate's full victim scan over
    // skeys_, the unordered-iteration hazard detlint flagged -- really
    // execute under the digest.
    config.router.hot_threshold = 4;
    config.router.migrate_check_period = 32;
    config.router.migrate_skew = 1.05;
    config.router.migrate_batch = 4;
    config.policy = sim_policy(threads);

    const auto first = load::run_shard_sim(config, trace);
    ASSERT_GT(first.router.migrations, 0u)
        << "config too tame: the migration victim scan never ran";
    ASSERT_GT(first.router.replications, 0u);
    Digest want;
    want.u64(digest_outcomes(first.outcomes));
    want.span_u<int>(first.shard_of);
    want.u64(first.router.migrations).u64(first.router.replications);
    want.u64(first.router.dispatched).u64(first.router.shed);

    for (int rep = 0; rep < 2; ++rep) {
      const auto result = load::run_shard_sim(config, trace);
      Digest got;
      got.u64(digest_outcomes(result.outcomes));
      got.span_u<int>(result.shard_of);
      got.u64(result.router.migrations).u64(result.router.replications);
      got.u64(result.router.dispatched).u64(result.router.shed);
      EXPECT_EQ(got.value(), want.value())
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// ------------------------------------------------------ codec round trip

TEST(DeterminismOracleTest, CodecEntryRoundTripDigestStable) {
  const auto build_frame = [](std::uint64_t seed) {
    serve::ServiceConfig config;
    config.num_threads = 1;
    serve::PolarizationService service(config);
    serve::Request req;
    req.id = 9;
    req.mol = molecule::generate_ligand(60, seed);
    const serve::Response resp = service.serve_now(req);
    EXPECT_EQ(resp.status, serve::Status::kOk);
    const auto entry = service.export_structure(
        serve::structure_key(req.mol, serve::resolved_params(req)));
    EXPECT_NE(entry, nullptr);
    return cluster::encode_entry(*entry);
  };

  const cluster::Bytes frame = build_frame(19);
  const cluster::Bytes again = build_frame(19);
  ASSERT_EQ(frame, again) << "two fresh services disagree on the frame";

  // decode -> re-encode is the identity on the wire bytes.
  const auto decoded = cluster::decode_entry(frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(cluster::encode_entry(*decoded), frame);

  Digest d1;
  for (const std::byte b : frame) d1.byte(static_cast<std::uint8_t>(b));
  Digest d2;
  for (const std::byte b : again) d2.byte(static_cast<std::uint8_t>(b));
  EXPECT_EQ(d1.value(), d2.value());
}

// ------------------------------------------------------- sched replay

TEST(DeterminismOracleTest, SchedReplayTraceByteIdentical) {
  const auto run_once = [](std::uint64_t seed) {
    analysis::sched::PctParams params;
    params.seed = seed;
    params.expected_participants = 3;
    analysis::sched::arm(params);
    util::Mutex mu;
    int counter = 0;
    std::thread a([&] {
      analysis::sched::Participant p("a");
      for (int i = 0; i < 4; ++i) {
        util::MutexLock lock(mu);
        ++counter;
      }
    });
    std::thread b([&] {
      analysis::sched::Participant p("b");
      for (int i = 0; i < 4; ++i) {
        util::MutexLock lock(mu);
        ++counter;
      }
    });
    {
      analysis::sched::Participant p("main");
      for (int i = 0; i < 4; ++i) {
        util::MutexLock lock(mu);
        ++counter;
      }
    }
    a.join();
    b.join();
    return analysis::sched::disarm();
  };

  const auto first = run_once(0x5eed);
  const auto second = run_once(0x5eed);
  EXPECT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace)
      << "same (seed, cast, workload) must replay the same schedule";
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(Digest{}.str(first.trace).value(),
            Digest{}.str(second.trace).value());

  // A different seed must explore a different schedule (otherwise the
  // explorer is not actually exploring).
  const auto other = run_once(0xa17e);
  EXPECT_NE(first.trace, other.trace);
}

// ---------------------------------------------- mutation self-test

// Proves the oracle NOTICES injected nondeterminism: the order_flip
// corruption hook (src/load/sim.cpp, armed via OCTGB_TEST_CORRUPT in
// validate builds) reverses one batch-processing loop -- exactly the
// effect of an unordered-container iteration sneaking into a strict
// pipeline -- and the digest must move.
TEST(DeterminismOracleTest, OrderFlipMutationChangesSimDigest) {
#if !defined(OCTGB_VALIDATE_BUILD)
  GTEST_SKIP() << "corruption hooks compile away outside validate builds";
#else
  const char* prior = std::getenv("OCTGB_TEST_CORRUPT");
  ASSERT_EQ(prior, nullptr)
      << "OCTGB_TEST_CORRUPT already set; refusing to clobber it";

  const auto trace = oracle_trace(1500, 0xf11bbeef);
  const load::CostModel cost;
  load::ServiceSim clean_sim(sim_policy(2), cost);
  const std::uint64_t clean = digest_outcomes(clean_sim.run(trace));

  ::setenv("OCTGB_TEST_CORRUPT", "order_flip", 1);
  load::ServiceSim corrupt_sim(sim_policy(2), cost);
  const std::uint64_t corrupted = digest_outcomes(corrupt_sim.run(trace));
  ::unsetenv("OCTGB_TEST_CORRUPT");

  EXPECT_NE(corrupted, clean)
      << "order_flip corruption was invisible to the digest: the "
         "divergence oracle cannot detect ordering bugs";
#endif
}

}  // namespace
}  // namespace octgb
