// Tests for the weighted contiguous partitioner and the traversal
// diagnostics module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/gb/diagnostics.h"
#include "src/gb/interaction_lists.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/runtime/drivers.h"
#include "src/runtime/partition.h"
#include "src/surface/quadrature.h"
#include "src/util/rng.h"

namespace octgb {
namespace {

// Brute-force optimal bottleneck for tiny inputs.
double brute_bottleneck(const std::vector<double>& w, int parts) {
  const std::size_t n = w.size();
  std::vector<std::size_t> cuts(static_cast<std::size_t>(parts) - 1, 0);
  double best = 1e300;
  // Enumerate all cut positions (n small).
  std::function<void(std::size_t, std::size_t)> rec =
      [&](std::size_t k, std::size_t from) {
        if (k == cuts.size()) {
          double mx = 0.0, cur = 0.0;
          std::size_t c = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (c < cuts.size() && i == cuts[c]) {
              mx = std::max(mx, cur);
              cur = 0.0;
              ++c;
            }
            cur += w[i];
          }
          best = std::min(best, std::max(mx, cur));
          return;
        }
        for (std::size_t pos = from; pos <= n; ++pos) {
          cuts[k] = pos;
          rec(k + 1, pos);
        }
      };
  if (cuts.empty()) {
    double total = 0.0;
    for (double x : w) total += x;
    return total;
  }
  rec(0, 0);
  return best;
}

TEST(PartitionTest, MatchesBruteForceOnSmallInputs) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(8);
    std::vector<double> w(n);
    for (auto& x : w) x = rng.uniform(0.1, 10.0);
    const int parts = 1 + static_cast<int>(rng.below(4));
    const double got = runtime::bottleneck_cost(w, parts);
    const double want = brute_bottleneck(w, parts);
    EXPECT_NEAR(got, want, 1e-6 * (1.0 + want))
        << "n=" << n << " parts=" << parts;
  }
}

TEST(PartitionTest, BoundariesCoverAndRespectBottleneck) {
  util::Xoshiro256 rng(6);
  std::vector<double> w(500);
  for (auto& x : w) x = rng.uniform(1.0, 32.0);
  for (const int parts : {1, 3, 7, 16}) {
    const auto bounds = runtime::weighted_boundaries(w, parts);
    ASSERT_EQ(bounds.size(), static_cast<std::size_t>(parts) + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), w.size());
    const double cap = runtime::bottleneck_cost(w, parts);
    for (int seg = 0; seg < parts; ++seg) {
      ASSERT_LE(bounds[static_cast<std::size_t>(seg)],
                bounds[static_cast<std::size_t>(seg) + 1]);
      double sum = 0.0;
      for (std::size_t i = bounds[static_cast<std::size_t>(seg)];
           i < bounds[static_cast<std::size_t>(seg) + 1]; ++i) {
        sum += w[i];
      }
      EXPECT_LE(sum, cap * (1.0 + 1e-6));
    }
  }
}

TEST(PartitionTest, WeightedBeatsEvenCountOnSkewedWeights) {
  // Heavy items first: even-count split puts all heavy items in the
  // first segment; the weighted split balances them.
  std::vector<double> w;
  for (int i = 0; i < 50; ++i) w.push_back(10.0);
  for (int i = 0; i < 150; ++i) w.push_back(1.0);
  const int parts = 4;
  const double weighted = runtime::bottleneck_cost(w, parts);
  // Even-count bottleneck: first 50 items = 500 in the first segment.
  double even_max = 0.0;
  for (int seg = 0; seg < parts; ++seg) {
    double sum = 0.0;
    for (std::size_t i = static_cast<std::size_t>(seg) * 50;
         i < static_cast<std::size_t>(seg + 1) * 50; ++i) {
      sum += w[i];
    }
    even_max = std::max(even_max, sum);
  }
  EXPECT_LT(weighted, 0.5 * even_max);
}

TEST(PartitionTest, EdgeCases) {
  EXPECT_THROW(runtime::bottleneck_cost({}, 0), std::invalid_argument);
  const std::vector<double> neg{1.0, -2.0};
  EXPECT_THROW(runtime::bottleneck_cost(neg, 2), std::invalid_argument);
  // More parts than items: trailing segments empty.
  const std::vector<double> three{5.0, 1.0, 2.0};
  const auto bounds = runtime::weighted_boundaries(three, 8);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 3u);
}

TEST(PartitionTest, WeightedDivisionKeepsEnergyIdentical) {
  const auto mol = molecule::generate_protein(900, 155);
  runtime::DriverConfig config;
  config.num_ranks = 5;
  const double reference = runtime::run_distributed(mol, config).energy;
  config.division = runtime::WorkDivision::kNodeNodeWeighted;
  const double weighted = runtime::run_distributed(mol, config).energy;
  EXPECT_NEAR(weighted, reference, 1e-9 * std::abs(reference));
}

TEST(DiagnosticsTest, CountsArePlausibleAndCriterionRespected) {
  const auto mol = molecule::generate_protein(4000, 157);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;  // eps 0.9 -> spread bound 1 + eps = 1.9

  const auto born = gb::born_traversal_stats(trees, params);
  EXPECT_GT(born.far_boxes, 0u);
  EXPECT_GT(born.exact_blocks, 0u);
  EXPECT_GT(born.exact_pairs, 0u);
  EXPECT_LE(born.exact_pairs, born.naive_pairs);
  EXPECT_GT(born.pruning_ratio(), 0.0);
  // Every accepted far box satisfies (d+s)/(d-s) <= 1 + eps.
  EXPECT_LE(born.max_kernel_spread, 1.0 + params.eps_born + 1e-9);

  const auto epol = gb::epol_traversal_stats(trees.atoms, params);
  EXPECT_LE(epol.max_kernel_spread, 1.0 + params.eps_epol + 1e-9);
  EXPECT_LE(epol.exact_pairs, epol.naive_pairs);
}

TEST(DiagnosticsTest, CountsMatchThePlan) {
  // The statistics describe the plan the executor runs: a full pooled
  // plan over both phases has the same list sizes and point products.
  const auto mol = molecule::generate_protein(6000, 165);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  parallel::WorkStealingPool pool(2);
  const auto plan = gb::build_interaction_plan(trees, params, &pool);
  const auto count = [](const octree::Octree& t, std::uint32_t id) {
    return t.node(id).count();
  };

  const auto born = gb::born_traversal_stats(trees, params);
  std::size_t born_pairs = 0;
  for (const auto& p : plan.born_near) {
    born_pairs +=
        count(trees.atoms, p.target) * count(trees.qpoints, p.source);
  }
  EXPECT_EQ(born.far_boxes, plan.born_far.size());
  EXPECT_EQ(born.exact_blocks, plan.born_near.size());
  EXPECT_EQ(born.exact_pairs, born_pairs);

  const auto epol = gb::epol_traversal_stats(trees.atoms, params);
  const auto leaves = trees.atoms.leaves();
  std::size_t epol_pairs = 0;
  for (const auto& p : plan.epol_near) {
    epol_pairs += count(trees.atoms, leaves[p.target]) *
                  count(trees.atoms, p.source);
  }
  EXPECT_EQ(epol.far_boxes, plan.epol_far.size());
  EXPECT_EQ(epol.exact_blocks, plan.epol_near.size());
  EXPECT_EQ(epol.exact_pairs, epol_pairs);
  EXPECT_GT(epol.far_boxes, 0u);
  EXPECT_LE(epol.max_kernel_spread, 1.0 + params.eps_epol + 1e-9);
}

TEST(DiagnosticsTest, PruningGrowsWithEps) {
  const auto mol = molecule::generate_protein(3000, 159);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams tight, loose;
  tight.eps_born = 0.1;
  loose.eps_born = 0.9;
  EXPECT_LT(gb::born_traversal_stats(trees, tight).pruning_ratio(),
            gb::born_traversal_stats(trees, loose).pruning_ratio() + 1e-12);
}

TEST(DiagnosticsTest, PruningGrowsWithMoleculeSize) {
  gb::ApproxParams params;
  auto ratio = [&](std::size_t atoms) {
    const auto mol = molecule::generate_protein(atoms, 161);
    const auto surf = surface::build_surface(mol);
    const auto trees = gb::build_born_octrees(mol, surf);
    return gb::born_traversal_stats(trees, params).pruning_ratio();
  };
  EXPECT_GT(ratio(6000), ratio(600));
}

TEST(DiagnosticsTest, StrictCriterionPrunesLess) {
  const auto mol = molecule::generate_protein(3000, 163);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams loose, strict;
  strict.strict_born_criterion = true;
  EXPECT_GE(gb::born_traversal_stats(trees, loose).pruning_ratio(),
            gb::born_traversal_stats(trees, strict).pruning_ratio());
}

}  // namespace
}  // namespace octgb
