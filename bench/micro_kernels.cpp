// micro_kernels -- google-benchmark microbenchmarks for the hot pieces:
// math kernels, octree construction, quadrature surfaces, the
// work-stealing deque/pool and simmpi collectives. These are not paper
// figures; they guard the constants everything else is built on.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/common.h"
#include "src/baselines/gbmodels.h"
#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/gb/naive.h"
#include "src/geom/morton.h"
#include "src/molecule/generators.h"
#include "src/docking/pose_scorer.h"
#include "src/geom/celllist.h"
#include "src/octree/octree.h"
#include "src/octree/range_query.h"
#include "src/parallel/deque.h"
#include "src/parallel/pool.h"
#include "src/simmpi/comm.h"
#include "src/surface/quadrature.h"
#include "src/util/fastmath.h"
#include "src/util/rng.h"

namespace {

using namespace octgb;

void BM_FastRsqrt(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(0.1, 100.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::fast_rsqrt(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_FastRsqrt);

void BM_LibmRsqrt(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(0.1, 100.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(1.0 / std::sqrt(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_LibmRsqrt);

void BM_FastExp(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(-20.0, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::fast_exp(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_FastExp);

void BM_LibmExp(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  std::vector<double> xs(1024);
  for (auto& x : xs) x = rng.uniform(-20.0, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::exp(xs[i++ & 1023]));
  }
}
BENCHMARK(BM_LibmExp);

void BM_GbPairTerm(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gb::gb_pair_term(
        0.4, -0.3, rng.uniform(1.0, 400.0), 2.0, 2.5));
  }
}
BENCHMARK(BM_GbPairTerm);

void BM_DescreenIntegral(benchmark::State& state) {
  util::Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::descreen_integral_r4(
        rng.uniform(2.0, 20.0), 1.4, 1.6));
  }
}
BENCHMARK(BM_DescreenIntegral);

void BM_MortonEncode(benchmark::State& state) {
  std::uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::morton_encode(v, v + 1, v + 2));
    ++v;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_OctreeBuild(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    octree::Octree tree(mol.positions());
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SphereSurface(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    auto surf = surface::sphere_sampled_surface(mol, 8);
    benchmark::DoNotOptimize(surf.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SphereSurface)->Arg(1000)->Arg(10000);

void BM_BornOctree(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 7);
  surface::SurfaceParams sp;
  sp.mesh_atom_limit = 0;
  sp.sphere_points = 8;
  const auto surf = surface::build_surface(mol, sp);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  for (auto _ : state) {
    auto res = gb::born_radii_octree(trees, mol, surf, params);
    benchmark::DoNotOptimize(res.radii[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BornOctree)->Arg(2000)->Arg(8000);

void BM_EpolOctree(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 8);
  surface::SurfaceParams sp;
  sp.mesh_atom_limit = 0;
  sp.sphere_points = 8;
  const auto surf = surface::build_surface(mol, sp);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  const auto born = gb::born_radii_octree(trees, mol, surf, params);
  for (auto _ : state) {
    auto res = gb::epol_octree(trees.atoms, mol, born.radii, params);
    benchmark::DoNotOptimize(res.energy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpolOctree)->Arg(2000)->Arg(8000);

// Counterparts of BM_BornOctree/BM_EpolOctree with the interaction plan
// prebuilt (refit-path steady state), so these time the batched kernels
// alone; the pair above includes the plan build, which BM_PlanBuild
// times by itself.
void BM_PlanBuild(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 7);
  surface::SurfaceParams sp;
  sp.mesh_atom_limit = 0;
  sp.sphere_points = 8;
  const auto surf = surface::build_surface(mol, sp);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  for (auto _ : state) {
    auto plan = gb::build_interaction_plan(trees, params);
    benchmark::DoNotOptimize(plan.num_items());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanBuild)->Arg(2000)->Arg(8000);

void BM_BornBatched(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 7);
  surface::SurfaceParams sp;
  sp.mesh_atom_limit = 0;
  sp.sphere_points = 8;
  const auto surf = surface::build_surface(mol, sp);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  const auto plan = gb::build_interaction_plan(trees, params);
  const auto mode = state.range(1) != 0 ? gb::SimdMode::kAuto
                                        : gb::SimdMode::kForceScalar;
  for (auto _ : state) {
    auto res = gb::born_radii_batched(trees, mol, surf, plan, params,
                                      nullptr, mode);
    benchmark::DoNotOptimize(res.radii[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BornBatched)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({8000, 1});

void BM_EpolBatched(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 8);
  surface::SurfaceParams sp;
  sp.mesh_atom_limit = 0;
  sp.sphere_points = 8;
  const auto surf = surface::build_surface(mol, sp);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  const auto plan = gb::build_interaction_plan(trees, params);
  const auto born = gb::born_radii_octree(trees, mol, surf, params);
  const auto mode = state.range(1) != 0 ? gb::SimdMode::kAuto
                                        : gb::SimdMode::kForceScalar;
  for (auto _ : state) {
    auto res = gb::epol_batched(trees.atoms, mol, born.radii, plan, params,
                                {}, nullptr, mode);
    benchmark::DoNotOptimize(res.energy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpolBatched)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({8000, 1});

void BM_OctreeRefit(benchmark::State& state) {
  const auto mol = molecule::generate_protein(
      static_cast<std::size_t>(state.range(0)), 9);
  octree::Octree tree(mol.positions());
  std::vector<geom::Vec3> pts(mol.positions().begin(),
                              mol.positions().end());
  for (auto _ : state) {
    tree.refit(pts);
    benchmark::DoNotOptimize(tree.root().radius);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeRefit)->Arg(10000)->Arg(50000);

void BM_BallQueryOctree(benchmark::State& state) {
  const auto mol = molecule::generate_protein(20000, 10);
  const octree::Octree tree(mol.positions());
  util::Xoshiro256 rng(4);
  for (auto _ : state) {
    const auto center = mol.positions()[rng.below(mol.size())];
    auto hits = octree::ball_query(tree, mol.positions(), center, 8.0);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_BallQueryOctree);

void BM_BallQueryCellList(benchmark::State& state) {
  const auto mol = molecule::generate_protein(20000, 10);
  const geom::CellList cells(mol.positions(), 8.0);
  util::Xoshiro256 rng(4);
  for (auto _ : state) {
    const auto center = mol.positions()[rng.below(mol.size())];
    std::size_t count = 0;
    cells.for_each_within(center, 8.0,
                          [&](std::uint32_t, const geom::Vec3&) {
                            ++count;
                          });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BallQueryCellList);

void BM_PoseScore(benchmark::State& state) {
  const auto receptor = molecule::generate_protein(2000, 11);
  const auto ligand = molecule::generate_ligand(40, 12);
  const docking::PoseScorer scorer(receptor, ligand);
  double offset = 25.0;
  for (auto _ : state) {
    const auto score =
        scorer.score(geom::Rigid::translate({offset, 0, 0}));
    benchmark::DoNotOptimize(score.complex_energy);
    offset += 0.1;
  }
}
BENCHMARK(BM_PoseScore);

void BM_DequePushPop(benchmark::State& state) {
  parallel::ChaseLevDeque<int> dq;
  int item = 0;
  for (auto _ : state) {
    dq.push_bottom(&item);
    benchmark::DoNotOptimize(dq.pop_bottom());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_ParallelForOverhead(benchmark::State& state) {
  parallel::WorkStealingPool pool(static_cast<int>(state.range(0)));
  std::vector<double> data(10000, 1.0);
  for (auto _ : state) {
    pool.run([&] {
      parallel::parallel_for(pool, 0, data.size(), 256,
                             [&](std::size_t lo, std::size_t hi) {
                               double s = 0;
                               for (std::size_t i = lo; i < hi; ++i) {
                                 s += data[i];
                               }
                               benchmark::DoNotOptimize(s);
                             });
    });
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_SimMpiAllreduce(benchmark::State& state) {
  const auto ranks = static_cast<int>(state.range(0));
  const std::size_t n = 4096;
  for (auto _ : state) {
    simmpi::run(ranks, [n](simmpi::Comm& comm) {
      std::vector<double> x(n, static_cast<double>(comm.rank()));
      comm.all_reduce_sum(std::span<double>(x));
      benchmark::DoNotOptimize(x[0]);
    });
  }
}
BENCHMARK(BM_SimMpiAllreduce)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the run also produces the
// BENCH_micro_kernels.json record: the checksum folds in a small
// batched-engine energy, making silent numeric drift in the hot
// kernels visible across PRs.
int main(int argc, char** argv) {
  octgb::bench::json().begin("micro_kernels");
  octgb::bench::json().set_threads(1);
  {
    const auto mol = octgb::molecule::generate_protein(500, 7);
    octgb::bench::json().set_atoms(mol.size());
    octgb::surface::SurfaceParams sp;
    sp.mesh_atom_limit = 0;
    sp.sphere_points = 8;
    const auto surf = octgb::surface::build_surface(mol, sp);
    const auto trees = octgb::gb::build_born_octrees(mol, surf);
    octgb::gb::ApproxParams params;
    const auto plan = octgb::gb::build_interaction_plan(trees, params);
    const auto born =
        octgb::gb::born_radii_batched(trees, mol, surf, plan, params);
    const auto epol = octgb::gb::epol_batched(trees.atoms, mol, born.radii,
                                              plan, params);
    octgb::bench::json().checksum(born.radii[0]);
    octgb::bench::json().checksum(epol.energy);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
