// Tests for geom::CellList (previously covered only transitively) and
// a few cross-cutting gaps: calculator timing fields, PoseScorer under
// a scheduler pool, ledger accounting of the newer collectives, and
// perfmodel packing edge cases.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/docking/pose_scorer.h"
#include "src/geom/celllist.h"
#include "src/gb/calculator.h"
#include "src/molecule/generators.h"
#include "src/perfmodel/cluster.h"
#include "src/simmpi/comm.h"
#include "src/util/rng.h"

namespace octgb {
namespace {

TEST(CellListTest, FindsExactlyThePointsInRange) {
  util::Xoshiro256 rng(31);
  std::vector<geom::Vec3> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20),
                   rng.uniform(-20, 20)});
  }
  const geom::CellList cells(pts, 4.0);
  for (int trial = 0; trial < 15; ++trial) {
    const geom::Vec3 q{rng.uniform(-22, 22), rng.uniform(-22, 22),
                       rng.uniform(-22, 22)};
    const double radius = rng.uniform(0.5, 15.0);  // > cell size too
    std::set<std::uint32_t> got;
    cells.for_each_within(q, radius, [&](std::uint32_t id,
                                         const geom::Vec3&) {
      // No duplicates allowed.
      EXPECT_TRUE(got.insert(id).second);
    });
    std::set<std::uint32_t> expected;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (geom::distance(pts[i], q) <= radius) {
        expected.insert(static_cast<std::uint32_t>(i));
      }
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(CellListTest, EmptyAndSinglePoint) {
  const geom::CellList empty(std::vector<geom::Vec3>{}, 2.0);
  int calls = 0;
  empty.for_each_within({0, 0, 0}, 10.0,
                        [&](std::uint32_t, const geom::Vec3&) { ++calls; });
  EXPECT_EQ(calls, 0);

  const std::vector<geom::Vec3> one{{1, 2, 3}};
  const geom::CellList single(one, 2.0);
  single.for_each_within({1, 2, 3}, 0.0,
                         [&](std::uint32_t id, const geom::Vec3& p) {
                           ++calls;
                           EXPECT_EQ(id, 0u);
                           EXPECT_EQ(p, geom::Vec3(1, 2, 3));
                         });
  EXPECT_EQ(calls, 1);
}

TEST(CellListTest, QueryOutsideBoundsIsSafe) {
  const std::vector<geom::Vec3> pts{{0, 0, 0}, {1, 1, 1}};
  const geom::CellList cells(pts, 1.0);
  int calls = 0;
  cells.for_each_within({1000, 1000, 1000}, 5.0,
                        [&](std::uint32_t, const geom::Vec3&) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Huge radius from far away still finds everything.
  cells.for_each_within({1000, 1000, 1000}, 2000.0,
                        [&](std::uint32_t, const geom::Vec3&) { ++calls; });
  EXPECT_EQ(calls, 2);
}

// The layout CellList had before it stored points in cell order: one
// index range per cell, read through an order_ indirection into the
// input array, with the cells of a query visited one at a time.
class PerCellReference {
 public:
  PerCellReference(const std::vector<geom::Vec3>& pts, double cell)
      : pts_(pts), cell_(cell) {
    geom::Aabb bounds;
    for (const auto& p : pts) bounds.extend(p);
    origin_ = bounds.lo - geom::Vec3{cell, cell, cell};
    const geom::Vec3 span = bounds.hi - origin_;
    nx_ = static_cast<int>(span.x / cell) + 2;
    ny_ = static_cast<int>(span.y / cell) + 2;
    nz_ = static_cast<int>(span.z / cell) + 2;
    start_.assign(static_cast<std::size_t>(nx_ * ny_ * nz_) + 1, 0);
    std::vector<std::size_t> cell_of(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      cell_of[i] = linear(coord(pts[i].x - origin_.x),
                          coord(pts[i].y - origin_.y),
                          coord(pts[i].z - origin_.z));
      ++start_[cell_of[i] + 1];
    }
    for (std::size_t c = 0; c + 1 < start_.size(); ++c) {
      start_[c + 1] += start_[c];
    }
    order_.resize(pts.size());
    std::vector<std::size_t> cursor(start_.begin(), start_.end() - 1);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      order_[cursor[cell_of[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  const geom::Vec3& origin() const { return origin_; }

  std::vector<std::pair<std::uint32_t, geom::Vec3>> query(
      const geom::Vec3& q, double radius) const {
    std::vector<std::pair<std::uint32_t, geom::Vec3>> out;
    const int reach = static_cast<int>(std::ceil(radius / cell_));
    const int cx = coord(q.x - origin_.x), cy = coord(q.y - origin_.y),
              cz = coord(q.z - origin_.z);
    for (int z = std::max(0, cz - reach); z <= std::min(nz_ - 1, cz + reach);
         ++z) {
      for (int y = std::max(0, cy - reach);
           y <= std::min(ny_ - 1, cy + reach); ++y) {
        for (int x = std::max(0, cx - reach);
             x <= std::min(nx_ - 1, cx + reach); ++x) {
          const std::size_t c = linear(x, y, z);
          for (std::size_t k = start_[c]; k < start_[c + 1]; ++k) {
            const std::uint32_t id = order_[k];
            if (geom::distance2(pts_[id], q) <= radius * radius) {
              out.emplace_back(id, pts_[id]);
            }
          }
        }
      }
    }
    return out;
  }

 private:
  int coord(double offset) const { return static_cast<int>(offset / cell_); }
  std::size_t linear(int x, int y, int z) const {
    return static_cast<std::size_t>((z * ny_ + y) * nx_ + x);
  }

  std::vector<geom::Vec3> pts_;
  double cell_;
  geom::Vec3 origin_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::size_t> start_;
  std::vector<std::uint32_t> order_;
};

// Storing the points in cell order must not change what a query sees:
// the same (id, point) callbacks, in the same order, bit for bit. Half
// the points sit on a half-cell lattice, so many lie exactly on cell
// faces, and so do a third of the queries; the radii span reach 1 and
// reach 2, including radii of exactly one and two cells.
TEST(CellListTest, RowLayoutKeepsThePerCellCallbackSequence) {
  constexpr double kCell = 2.0;
  util::Xoshiro256 rng(2024);
  std::vector<geom::Vec3> pts;
  for (int i = 0; i < 1500; ++i) {
    if (i % 2 == 0) {
      pts.push_back({rng.uniform(-12, 12), rng.uniform(-12, 12),
                     rng.uniform(-12, 12)});
    } else {
      auto lattice = [&] {
        return 0.5 * kCell * static_cast<double>(rng.below(25)) - 12.0;
      };
      pts.push_back({lattice(), lattice(), lattice()});
    }
  }
  // Duplicates: equal points must keep their input order in a cell.
  pts.push_back(pts[1]);
  pts.push_back(pts[3]);
  const geom::CellList cells(pts, kCell);
  const PerCellReference ref(pts, kCell);

  const double radii[] = {0.3 * kCell, 0.99 * kCell, kCell, 1.01 * kCell,
                          1.7 * kCell, 2.0 * kCell};
  std::size_t callbacks = 0;
  for (int trial = 0; trial < 300; ++trial) {
    geom::Vec3 q{rng.uniform(-14, 14), rng.uniform(-14, 14),
                 rng.uniform(-14, 14)};
    if (trial % 3 == 0) {
      // On a cell face in every axis.
      auto face = [&](double o) {
        return o + kCell * static_cast<double>(rng.below(14));
      };
      q = {face(ref.origin().x), face(ref.origin().y), face(ref.origin().z)};
    }
    const double radius = radii[static_cast<std::size_t>(trial) % 6];
    std::vector<std::pair<std::uint32_t, geom::Vec3>> got;
    cells.for_each_within(q, radius,
                          [&](std::uint32_t id, const geom::Vec3& p) {
                            got.emplace_back(id, p);
                          });
    const auto want = ref.query(q, radius);
    callbacks += got.size();
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, want[i].first) << "trial " << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].second.x),
                std::bit_cast<std::uint64_t>(want[i].second.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].second.y),
                std::bit_cast<std::uint64_t>(want[i].second.y));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].second.z),
                std::bit_cast<std::uint64_t>(want[i].second.z));
    }
  }
  EXPECT_GT(callbacks, 1000u);  // the queries are not vacuous
}

TEST(CalculatorTest, TimingFieldsAreConsistent) {
  const auto mol = molecule::generate_protein(600, 191);
  const gb::GBResult r = gb::compute_gb_energy(mol);
  EXPECT_GT(r.t_surface, 0.0);
  EXPECT_GT(r.t_tree_build, 0.0);
  EXPECT_GT(r.t_born, 0.0);
  EXPECT_GT(r.t_epol, 0.0);
  EXPECT_GE(r.t_plan, 0.0);  // > 0 on the batched engine, 0 when fused
  EXPECT_NEAR(r.total_seconds(),
              r.t_surface + r.t_tree_build + r.t_plan + r.t_born + r.t_epol,
              1e-12);
}

TEST(PoseScorerTest, WorksUnderSchedulerPool) {
  const auto receptor = molecule::generate_protein(500, 193);
  const auto ligand = molecule::generate_ligand(30, 195);
  const docking::PoseScorer serial(receptor, ligand);
  parallel::WorkStealingPool pool(3);
  const docking::PoseScorer parallel_scorer(receptor, ligand, {}, &pool);
  const geom::Rigid pose = geom::Rigid::translate({30, 5, -2});
  const double a = serial.score(pose).complex_energy;
  const double b = parallel_scorer.score(pose).complex_energy;
  EXPECT_NEAR(b, a, 1e-9 * std::abs(a));
}

TEST(SimMpiLedgerTest, ScatterAndSendrecvAreAccounted) {
  const auto ledgers = simmpi::run(2, [](simmpi::Comm& comm) {
    std::vector<double> all(4, 1.0);
    std::vector<double> mine(2);
    comm.scatter(std::span<const double>(all), std::span<double>(mine), 0);
    std::vector<double> theirs(2);
    comm.sendrecv(std::span<const double>(mine),
                  std::span<double>(theirs), 1 - comm.rank(), 3);
  });
  // scatter = 1 collective; sendrecv = 1 p2p send each.
  EXPECT_EQ(ledgers[0].collectives, 1u);
  EXPECT_EQ(ledgers[0].p2p_messages, 1u);
  EXPECT_EQ(ledgers[0].p2p_bytes, 16u);
  EXPECT_GT(ledgers[0].modeled_seconds, 0.0);
}

TEST(PerfModelTest, OverwideRanksStillPack) {
  // threads_per_rank > cores_per_node: one rank per node.
  const perfmodel::ClusterSpec spec;  // 12 cores/node
  perfmodel::Workload w;
  w.phases.push_back({10.0, 1 << 20});
  w.data_bytes_per_rank = 1 << 20;
  const auto run = perfmodel::model_run(spec, w, 4, 24);
  EXPECT_EQ(run.nodes, 4);
  EXPECT_GT(run.compute_seconds, 0.0);
}

TEST(PerfModelTest, ZeroPhaseWorkloadIsFree) {
  const perfmodel::ClusterSpec spec;
  perfmodel::Workload w;  // no phases
  const auto run = perfmodel::model_run(spec, w, 8, 1);
  EXPECT_DOUBLE_EQ(run.total_seconds(), 0.0);
}

}  // namespace
}  // namespace octgb
