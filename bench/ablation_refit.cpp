// ablation_refit -- dynamic-octree maintenance for flexible molecules.
//
// The paper's companion work ([8] in its references: "Space-efficient
// maintenance of nonbonded lists for flexible molecules using dynamic
// octrees") motivates keeping the octree alive across MD steps instead
// of rebuilding. This ablation measures, on an MD-like perturbation
// stream, (a) refit vs rebuild cost per step and (b) how the frozen
// topology degrades (leaf radii inflate) as cumulative deformation
// grows.
#include <cmath>

#include "bench/common.h"
#include "src/octree/octree.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

int main() {
  using namespace octgb;
  bench::banner("ablation_refit",
                "dynamic octree maintenance (companion work [8]): refit "
                "vs rebuild across MD-like steps");

  const std::size_t atoms =
      static_cast<std::size_t>(util::env_int("REPRO_REFIT_ATOMS", 20000));
  bench::json().set_atoms(atoms);
  const molecule::Molecule mol = molecule::generate_protein(atoms, 0xa70b);
  std::vector<geom::Vec3> positions(mol.positions().begin(),
                                    mol.positions().end());
  std::printf("protein, %zu atoms; per-step RMS displacement 0.05 A (a\n"
              "typical MD step scale)\n\n",
              atoms);

  octree::Octree tree{std::span<const geom::Vec3>(positions)};
  octree::Octree rekey_tree{std::span<const geom::Vec3>(positions)};
  const double base_leaf_radius = [&] {
    double sum = 0.0;
    for (const auto leaf : tree.leaves()) sum += tree.node(leaf).radius;
    return sum / static_cast<double>(tree.num_leaves());
  }();

  util::Xoshiro256 rng(0x57e9);
  const double step_sigma = 0.05;

  util::Table table({"step", "refit time", "rekey time", "rebuild time",
                     "speedup", "mean leaf radius", "inflation %"});
  double refit_total = 0.0, rekey_total = 0.0, rebuild_total = 0.0;
  std::size_t rekey_fallbacks = 0;
  for (int step = 1; step <= 64; ++step) {
    for (auto& p : positions) {
      p += {step_sigma * rng.normal(), step_sigma * rng.normal(),
            step_sigma * rng.normal()};
    }
    util::WallTimer t1;
    tree.refit(positions);
    const double refit_s = t1.seconds();
    refit_total += refit_s;

    // The re-key policy on the same stream: with *every* atom moving,
    // some key escapes its octant almost every step, so this column is
    // the price of the never-stale-topology contract (refit cost
    // degrades to a rebuild; the clustered in-cell drift case that
    // takes the resort-free path is pinned by tests/octree_test).
    util::WallTimer t3;
    const auto rr = rekey_tree.refit_rekey(positions);
    const double rekey_s = t3.seconds();
    rekey_total += rekey_s;
    rekey_fallbacks += rr.rebuilt ? 1u : 0u;

    util::WallTimer t2;
    const octree::Octree rebuilt{std::span<const geom::Vec3>(positions)};
    const double rebuild_s = t2.seconds();
    rebuild_total += rebuild_s;

    if ((step & (step - 1)) == 0) {  // powers of two
      double sum = 0.0;
      for (const auto leaf : tree.leaves()) sum += tree.node(leaf).radius;
      const double mean = sum / static_cast<double>(tree.num_leaves());
      table.row()
          .cell(static_cast<std::int64_t>(step))
          .cell(util::format_seconds(refit_s))
          .cell(util::format_seconds(rekey_s))
          .cell(util::format_seconds(rebuild_s))
          .cell(rebuild_s / refit_s, 3)
          .cell(mean, 4)
          .cell(100.0 * (mean / base_leaf_radius - 1.0), 3);
    }
  }
  bench::emit(table, "ablation_refit");
  bench::json().field("refit_total_ms", refit_total * 1e3);
  bench::json().field("rekey_total_ms", rekey_total * 1e3);
  bench::json().field("rebuild_total_ms", rebuild_total * 1e3);
  bench::json().field("refit_speedup", rebuild_total / refit_total);
  bench::json().field("rekey_fallbacks",
                      static_cast<double>(rekey_fallbacks));
  std::printf("\n64 steps total: refit %s vs rebuild %s (%.2fx); re-key "
              "%s with %zu/64 fallback rebuilds\n",
              util::format_seconds(refit_total).c_str(),
              util::format_seconds(rebuild_total).c_str(),
              rebuild_total / refit_total,
              util::format_seconds(rekey_total).c_str(), rekey_fallbacks);
  std::printf("inflation grows as sqrt(steps) * sigma: rebuild once the\n"
              "weakened pruning costs more than the rebuild saves.\n");
  return 0;
}
