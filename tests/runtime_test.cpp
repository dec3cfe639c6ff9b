// Tests for the execution drivers: OCT_CILK / OCT_MPI / OCT_MPI+CILK must
// agree with each other and with the naive reference; node-based division
// must be P-invariant while atom-based division varies with P (the
// Section IV-A observation).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "src/gb/calculator.h"
#include "src/gb/naive.h"
#include "src/molecule/generators.h"
#include "src/runtime/drivers.h"

namespace octgb::runtime {
namespace {

class DriverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DriverAgreement, DistributedMatchesSerialForAnyRankCount) {
  // The SPMD algorithm (Figure 4) must produce the same energy as the
  // one-rank run regardless of P: node-based division makes the
  // partition boundaries irrelevant to the result.
  const int ranks = GetParam();
  const auto mol = molecule::generate_protein(900, 111);
  const DriverResult one = run_oct_mpi(mol, 1);
  const DriverResult many = run_oct_mpi(mol, ranks);
  EXPECT_NEAR(many.energy, one.energy, 1e-9 * std::abs(one.energy))
      << "P=" << ranks;
  ASSERT_EQ(many.born_radii.size(), one.born_radii.size());
  for (std::size_t i = 0; i < one.born_radii.size(); i += 17) {
    EXPECT_NEAR(many.born_radii[i], one.born_radii[i],
                1e-9 * one.born_radii[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, DriverAgreement,
                         ::testing::Values(2, 3, 4, 7, 12));

TEST(DriverTest, HybridMatchesDistributed) {
  const auto mol = molecule::generate_protein(800, 113);
  const DriverResult mpi = run_oct_mpi(mol, 4);
  const DriverResult hybrid = run_oct_mpi_cilk(mol, 2, 2);
  EXPECT_NEAR(hybrid.energy, mpi.energy, 1e-9 * std::abs(mpi.energy));
}

TEST(DriverTest, AllThreeProgramsAgreeWithinApproximationClass) {
  const auto mol = molecule::generate_protein(1000, 117);
  gb::CalculatorParams params;  // eps = 0.9 / 0.9
  const DriverResult cilk = run_oct_cilk(mol, 2, params);
  const DriverResult mpi = run_oct_mpi(mol, 3, params);
  const DriverResult hybrid = run_oct_mpi_cilk(mol, 3, 2, params);
  // Dual-tree (OCT_CILK) uses a different traversal: same eps class but
  // not bit-identical; the paper's Figure 9 shows "approximately the
  // same energy value" for all octree programs.
  EXPECT_LT(gb::relative_error(cilk.energy, mpi.energy), 0.05);
  EXPECT_NEAR(hybrid.energy, mpi.energy, 1e-9 * std::abs(mpi.energy));
}

TEST(DriverTest, DistributedCloseToNaive) {
  const auto mol = molecule::generate_protein(700, 119);
  gb::CalculatorParams params;
  const DriverResult mpi = run_oct_mpi(mol, 4, params);
  const gb::GBResult naive = gb::compute_gb_energy_naive(mol, params);
  EXPECT_LT(gb::relative_error(mpi.energy, naive.energy), 0.05);
}

TEST(DriverTest, ReplicatedDataRunMatchesShared) {
  const auto mol = molecule::generate_protein(500, 121);
  DriverConfig shared;
  shared.num_ranks = 3;
  DriverConfig replicated = shared;
  replicated.replicate_data = true;
  const DriverResult a = run_distributed(mol, shared);
  const DriverResult b = run_distributed(mol, replicated);
  EXPECT_NEAR(a.energy, b.energy, 1e-9 * std::abs(a.energy));
}

TEST(DriverTest, CommBytesGrowWithRanks) {
  const auto mol = molecule::generate_protein(600, 123);
  const DriverResult p2 = run_oct_mpi(mol, 2);
  const DriverResult p6 = run_oct_mpi(mol, 6);
  EXPECT_GT(p6.comm_bytes, p2.comm_bytes);
  EXPECT_GT(p6.modeled_comm_seconds, 0.0);
  // One rank still pays allreduce staging in our ledger? No: log2(1)=0.
  const DriverResult p1 = run_oct_mpi(mol, 1);
  EXPECT_DOUBLE_EQ(p1.modeled_comm_seconds, 0.0);
}

TEST(DriverTest, ReportsDataFootprint) {
  const auto mol = molecule::generate_protein(1000, 127);
  const DriverResult res = run_oct_mpi(mol, 2);
  // At minimum the molecule + q-points themselves.
  EXPECT_GT(res.data_bytes_per_rank,
            mol.size() * (sizeof(geom::Vec3) + 2 * sizeof(double)));
}

TEST(WorkDivisionTest, NodeDivisionErrorIsInvariantInP) {
  const auto mol = molecule::generate_protein(800, 131);
  std::set<long long> energies;
  for (int ranks : {1, 2, 5, 8}) {
    const DriverResult res = run_oct_mpi(mol, ranks);
    energies.insert(std::llround(res.energy * 1e6));
  }
  EXPECT_EQ(energies.size(), 1u)
      << "node-node division must give identical energy for every P";
}

TEST(WorkDivisionTest, AtomDivisionErrorVariesWithP) {
  // Pseudo-leaves at division boundaries change the approximation, so
  // the energy depends (slightly) on the partition -- the paper's
  // argument for preferring node-based division. Needs a spatially
  // extended molecule (capsid shell) so the E_pol far field actually
  // fires: for compact sub-1000-atom globules every node pair is near
  // and both divisions are exact (and identical).
  const auto mol = molecule::generate_capsid(8000, 131);
  surface::SurfaceParams sp;
  sp.mesh_atom_limit = 0;  // O(N) surface path
  sp.sphere_points = 16;
  const auto surf = surface::build_surface(mol, sp);
  const auto trees = gb::build_born_octrees(mol, surf);
  gb::ApproxParams params;
  const auto born = gb::born_radii_octree(trees, mol, surf, params);
  const auto bins = gb::build_charge_bins(trees.atoms, mol.charges(),
                                          born.radii, params.eps_epol);

  auto sum_with_cuts = [&](std::size_t pieces) {
    double total = 0.0;
    const std::size_t step = mol.size() / pieces + 1;
    for (std::size_t lo = 0; lo < mol.size(); lo += step) {
      total += approx_epol_atom_division(
          trees.atoms, mol, bins, born.radii, lo,
          std::min(lo + step, mol.size()), params);
    }
    return total;
  };
  const double whole = sum_with_cuts(1);
  const double split = sum_with_cuts(5);
  // Different partitions give measurably different sums (boundary
  // pseudo-leaves are classified/aggregated differently)...
  EXPECT_GT(std::abs(split - whole), 1e-10 * std::abs(whole));
  // ...but the approximation class is unchanged.
  EXPECT_LT(std::abs(split - whole), 2e-2 * std::abs(whole));
}

TEST(WorkDivisionTest, AtomDivisionStillAccurate) {
  const auto mol = molecule::generate_protein(600, 137);
  DriverConfig config;
  config.num_ranks = 4;
  config.division = WorkDivision::kAtomAtom;
  const DriverResult atom = run_distributed(mol, config);
  config.division = WorkDivision::kNodeNode;
  const DriverResult node = run_distributed(mol, config);
  EXPECT_LT(gb::relative_error(atom.energy, node.energy), 0.02);
}

TEST(WorkDivisionTest, AtomDivisionSegmentsSumToWhole) {
  const auto mol = molecule::generate_protein(500, 139);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  const auto born = gb::born_radii_naive_r6(mol, surf);
  gb::ApproxParams params;
  const auto bins = gb::build_charge_bins(trees.atoms, mol.charges(),
                                          born.radii, params.eps_epol);
  const double whole = approx_epol_atom_division(
      trees.atoms, mol, bins, born.radii, 0, mol.size(), params);
  double pieces = 0.0;
  const std::size_t step = mol.size() / 5 + 1;
  for (std::size_t lo = 0; lo < mol.size(); lo += step) {
    pieces += approx_epol_atom_division(trees.atoms, mol, bins, born.radii,
                                        lo, std::min(lo + step, mol.size()),
                                        params);
  }
  // Segments change pseudo-leaf boundaries, so the sum is close but not
  // identical -- equality would mean the division has no boundary effect.
  EXPECT_NEAR(pieces, whole, 5e-3 * std::abs(whole));
}

TEST(WorkDivisionTest, AtomDivisionHonoursApproxMath) {
  // The pseudo-leaf kernels run through fgb_term<Math>, so approx_math
  // selects the fast exp/rsqrt: a different value in the last digits,
  // within the fast-math error of the exact one.
  const auto mol = molecule::generate_protein(400, 141);
  const auto surf = surface::build_surface(mol);
  const auto trees = gb::build_born_octrees(mol, surf);
  const auto born = gb::born_radii_naive_r6(mol, surf);
  gb::ApproxParams exact;
  gb::ApproxParams fast = exact;
  fast.approx_math = true;
  const auto bins = gb::build_charge_bins(trees.atoms, mol.charges(),
                                          born.radii, exact.eps_epol);
  const double e_exact = approx_epol_atom_division(
      trees.atoms, mol, bins, born.radii, 0, mol.size() / 2, exact);
  const double e_fast = approx_epol_atom_division(
      trees.atoms, mol, bins, born.radii, 0, mol.size() / 2, fast);
  EXPECT_NE(e_fast, e_exact);
  EXPECT_LT(gb::relative_error(e_fast, e_exact), 1e-3);
}

TEST(DriverTest, RepeatedSingleThreadRunsAreBitIdentical) {
  // One worker per rank: the rank-local plans are evaluated serially,
  // so repeated runs reproduce the energy and radii bit for bit. The
  // dynamic chunk server sums the chunks' partials in chunk order, so
  // request timing does not reach the result either.
  const auto mol = molecule::generate_protein(700, 143);
  for (const WorkDivision division :
       {WorkDivision::kNodeNode, WorkDivision::kNodeNodeWeighted,
        WorkDivision::kDynamicChunks}) {
    DriverConfig config;
    config.num_ranks = 3;
    config.division = division;
    const DriverResult a = run_distributed(mol, config);
    const DriverResult b = run_distributed(mol, config);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy),
              std::bit_cast<std::uint64_t>(b.energy));
    EXPECT_TRUE(a.born_radii == b.born_radii);
  }
}

TEST(WorkDivisionTest, DynamicChunksMatchStaticExactly) {
  // Master-worker self-scheduling hands out whole leaves, so the energy
  // is bit-identical to the static node division for any P.
  const auto mol = molecule::generate_protein(700, 141);
  DriverConfig config;
  config.num_ranks = 1;
  const double reference = run_distributed(mol, config).energy;
  config.division = WorkDivision::kDynamicChunks;
  for (int ranks : {2, 3, 5}) {
    config.num_ranks = ranks;
    const DriverResult res = run_distributed(mol, config);
    EXPECT_NEAR(res.energy, reference, 1e-9 * std::abs(reference))
        << "P=" << ranks;
  }
}

TEST(WorkDivisionTest, DynamicChunksSingleRankDegenerates) {
  const auto mol = molecule::generate_protein(400, 143);
  DriverConfig config;
  config.num_ranks = 1;
  config.division = WorkDivision::kDynamicChunks;
  const DriverResult dynamic = run_distributed(mol, config);
  config.division = WorkDivision::kNodeNode;
  const DriverResult fixed = run_distributed(mol, config);
  EXPECT_NEAR(dynamic.energy, fixed.energy,
              1e-9 * std::abs(fixed.energy));
}

TEST(DataDistributionTest, DistributedQPointsMatchReplicatedRun) {
  // Section VI future work: each rank generates/owns only its slice of
  // the quadrature surface. The union of slices is the full sphere-
  // sampled surface, so results agree with a run on that same surface
  // (grouping differences in the per-rank q-trees shift the far field
  // within the approximation class).
  const auto mol = molecule::generate_protein(900, 151);
  gb::CalculatorParams params;
  params.surface.mesh_atom_limit = 0;  // both runs on the sphere path
  DriverConfig config;
  config.params = params;
  config.num_ranks = 4;
  const DriverResult replicated = run_distributed(mol, config);
  config.distribute_qpoints = true;
  const DriverResult distributed = run_distributed(mol, config);
  EXPECT_EQ(distributed.num_qpoints, replicated.num_qpoints);
  EXPECT_LT(gb::relative_error(distributed.energy, replicated.energy),
            0.01);
}

TEST(DataDistributionTest, SliceUnionEqualsFullSurface) {
  const auto mol = molecule::generate_protein(500, 153);
  const auto full = surface::sphere_sampled_surface(mol, 16, 1.1);
  std::size_t total = 0;
  double area = 0.0;
  const std::size_t step = mol.size() / 3 + 1;
  for (std::size_t lo = 0; lo < mol.size(); lo += step) {
    const auto slice = surface::sphere_sampled_surface_slice(
        mol, 16, 1.1, lo, std::min(lo + step, mol.size()));
    total += slice.size();
    area += slice.total_area();
  }
  EXPECT_EQ(total, full.size());
  EXPECT_NEAR(area, full.total_area(), 1e-9 * full.total_area());
}

TEST(DriverTest, TimingsArePopulated) {
  const auto mol = molecule::generate_protein(400, 149);
  const DriverResult res = run_oct_mpi_cilk(mol, 2, 2);
  EXPECT_GT(res.t_born, 0.0);
  EXPECT_GT(res.t_epol, 0.0);
  EXPECT_GT(res.t_total, 0.0);
  EXPECT_GE(res.t_total, res.t_born);
}

}  // namespace
}  // namespace octgb::runtime
