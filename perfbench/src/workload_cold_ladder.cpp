// cold_ladder: one-shot gb::compute_gb_energy at a 2k-atom and a 20k-atom
// rung on a 2-worker pool, rungs interleaved within every round. The 2k
// rung shows fixed per-call cost, the 20k rung the far field; together
// they are the whole cold pipeline (surface, trees, plan, Born, E_pol).
//
// The 2k rung is one fixed molecule on every seed: its accuracy against
// the exact reference is a deterministic property of the code, and it
// ranged over 10x between generated molecules (E_pol error 0.0002 to
// 0.003 over eight seeds), so a seed-drawn molecule would make the
// accuracy metrics measure the seed. The 20k rung is drawn from the seed.
#include <cmath>
#include <cstdio>

#include "layers.h"
#include "reference.h"
#include "src/gb/kernels_batch.h"
#include "src/molecule/generators.h"
#include "src/surface/quadrature.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gb = octgb::gb;
using octgb::molecule::Molecule;

constexpr std::size_t kSmallAtoms = 2000;
constexpr std::uint64_t kSmallSeed = 2012;
constexpr std::size_t kLargeAtoms = 20000;
constexpr int kMinRounds = 3;
constexpr std::size_t kSampledAtoms = 48;
// The paper's accuracy claim: within about 1 % of the exact energy.
constexpr double kEpolTol = 0.01;
constexpr double kBornMeanTol = 0.01;
// Pooled calls deposit through atomics, so repeated calls agree only to
// rounding (see CHANGES.md FOUND on src/gb/kernels_batch.cpp).
constexpr double kRepeatTol = 1e-9;

struct Rung {
  const Molecule* mol = nullptr;
  const char* name = "";
  std::vector<double> seconds;
  std::vector<double> traced_seconds;
  double first_energy = NAN;
  bool bit_repeat = true;  // every repeated call returned the same bits
  std::vector<double> last_radii;
  double last_energy = NAN;
  std::size_t qpoints = 0;
  std::vector<LayeredRun> layered;
};

}  // namespace

Outcome run_cold_ladder(const RunArgs& args) {
  Outcome out;
  const gb::CalculatorParams params;  // eps 0.9 / 0.9, mesh surface
  const Molecule small = octgb::molecule::generate_protein(kSmallAtoms,
                                                           kSmallSeed);
  const Molecule large = octgb::molecule::generate_protein(
      kLargeAtoms, mix_seed(args.seed, 20000));

  Yardstick yard;

  // ---- set-up: pool start and one warm-up call ----
  octgb::parallel::WorkStealingPool pool(2);
  const gb::GBResult warm = gb::compute_gb_energy(small, params, &pool);
  const double setup_s = now_s() - args.process_start;
  std::printf("setup %.4f s (warm-up energy %.6f)\n", setup_s, warm.energy);

  // ---- timed phase: rounds of small, large, small ----
  Rung rs;
  rs.mol = &small;
  rs.name = "2k";
  Rung rl;
  rl.mol = &large;
  rl.name = "20k";
  Rung* order[] = {&rs, &rl, &rs};
  if (args.trace) tracer().enable();
  const octgb::parallel::PoolStats pool_before = pool.stats();
  const double start = now_s();
  int rounds = 0;
  std::uint64_t request = 0;
  while (more_rounds(start, args.seconds, rounds, args.trace ? 2 : kMinRounds)) {
    for (Rung* r : order) {
      yard.sample(3);
      const double t0 = now_s();
      const gb::GBResult res = gb::compute_gb_energy(*r->mol, params, &pool);
      r->seconds.push_back(now_s() - t0);
      ++out.attempted;
      if (std::isnan(r->first_energy)) r->first_energy = res.energy;
      r->bit_repeat = r->bit_repeat && bit_equal(res.energy, r->first_energy);
      if (!within_rel(res.energy, r->first_energy, kRepeatTol)) {
        out.correct = false;
        out.problems.push_back(std::string("repeated cold call drifted, rung ") +
                               r->name);
      }
      r->last_energy = res.energy;
      r->last_radii = res.born_radii;
      r->qpoints = res.num_qpoints;
      if (args.trace) {
        // The same call once more, one layer at a time under spans.
        LayeredRun lr = layered_energy(*r->mol, params, &pool, ++request);
        r->traced_seconds.push_back(lr.total_s);
        ++out.traced_ops;
        if (!within_rel(lr.energy, r->first_energy, kRepeatTol)) {
          out.correct = false;
          out.problems.push_back("layered pipeline disagrees with "
                                 "compute_gb_energy");
        }
        r->layered.push_back(std::move(lr));
      }
    }
    ++rounds;
  }
  const double timed = now_s() - start;
  tracer().disable();
  std::printf("timed phase %.3f s, %d rounds; 2k: %zu calls, min %.4f median "
              "%.4f s; 20k: %zu calls, min %.4f median %.4f s; yardstick "
              "scale %.4f; repeated energies bit-identical: 2k %s, 20k %s\n",
              timed, rounds, rs.seconds.size(), minimum(rs.seconds),
              median(rs.seconds), rl.seconds.size(), minimum(rl.seconds),
              median(rl.seconds), yard.scale(), rs.bit_repeat ? "yes" : "no",
              rl.bit_repeat ? "yes" : "no");

  // ---- checks against the exact reference and the method's properties
  // (single-threaded, outside the timed phase and the set-up) ----
  const octgb::surface::QuadratureSurface surf_small =
      octgb::surface::build_surface(small, params.surface);
  const QPoints q_small{surf_small.points, surf_small.normals,
                        surf_small.weights};
  if (surf_small.size() != rs.qpoints) {
    out.correct = false;
    out.problems.push_back("reference surface differs from the program's");
  }
  const std::vector<double> exact_radii = exact_born_radii(small, q_small);
  const double exact_energy = exact_epol(small, exact_radii);
  std::vector<std::size_t> all_atoms(small.size());
  for (std::size_t i = 0; i < all_atoms.size(); ++i) all_atoms[i] = i;
  const double born_err = mean_rel_err(rs.last_radii, exact_radii, all_atoms);
  const double epol_err =
      std::abs(rs.last_energy - exact_energy) / std::abs(exact_energy);
  std::printf("2k rung: E %.6f exact %.6f rel err %.3e, Born mean rel err "
              "%.3e, %zu q-points\n",
              rs.last_energy, exact_energy, epol_err, born_err,
              surf_small.size());
  std::vector<double> inflated = rs.last_radii;
  for (double& r : inflated) r *= 1.05;
  out.check(
      "2k Born radii within 1% of exact (mean)",
      [&] { return born_err < kBornMeanTol; },
      [&] {
        return mean_rel_err(inflated, exact_radii, all_atoms) < kBornMeanTol;
      });
  out.check(
      "2k E_pol within 1% of exact",
      [&] { return within_rel(rs.last_energy, exact_energy, kEpolTol); },
      [&] {
        return within_rel(exact_energy * (1 + 2 * kEpolTol), exact_energy,
                          kEpolTol);
      });

  // Plan coverage, surface closure and the charge scaling of E_pol, on
  // serial layer calls over the 2k rung.
  const gb::BornOctrees trees = gb::build_born_octrees(small, surf_small,
                                                       params.octree);
  const gb::InteractionPlan plan = gb::build_interaction_plan(trees,
                                                              params.approx);
  const PlanCounts counts = count_plan(trees, plan);
  gb::InteractionPlan dropped = plan;
  dropped.born_near.pop_back();
  out.check(
      "plan covers every atom/q-point and atom/atom pair once",
      [&] { return plan_covers(counts, small.size(), surf_small.size()); },
      [&] {
        return plan_covers(count_plan(trees, dropped), small.size(),
                           surf_small.size());
      });
  octgb::surface::QuadratureSurface flipped = surf_small;
  for (std::size_t i = 0; i < flipped.size() / 4; ++i) {
    flipped.normals[i] = flipped.normals[i] * -1.0;
  }
  const double leak = surface_leak(surf_small);
  std::printf("surface leak |sum w n| / sum w = %.3e\n", leak);
  out.check(
      "mesh surface is closed (|sum w n| / sum w < 1e-2)",
      [&] { return leak < 1e-2; },
      [&] { return surface_leak(flipped) < 1e-2; });
  const gb::BornRadiiResult radii = gb::born_radii_batched(
      trees, small, surf_small, plan, params.approx);
  const double e1 = gb::epol_batched(trees.atoms, small, radii.radii, plan,
                                     params.approx, params.physics)
                        .energy;
  const double e2 = gb::epol_batched(trees.atoms, scale_charges(small, 2.0),
                                     radii.radii, plan, params.approx,
                                     params.physics)
                        .energy;
  out.check(
      "E_pol < 0 and E_pol(2q) = 4 E_pol(q)",
      [&] { return e1 < 0 && within_rel(e2, 4 * e1, 1e-12); },
      [&] { return e1 < 0 && within_rel(next_up(e2) * (1 + 1e-9), 4 * e1, 1e-12); });
  out.check(
      "serial layer calls match the pooled one-shot call",
      [&] { return within_rel(e1, rs.last_energy, kRepeatTol); },
      [&] {
        return within_rel(rs.last_energy * (1 + 1e-6), rs.last_energy,
                          kRepeatTol);
      });

  // Sampled-atom Born check on the 20k rung.
  const octgb::surface::QuadratureSurface surf_large =
      octgb::surface::build_surface(large, params.surface);
  const QPoints q_large{surf_large.points, surf_large.normals,
                        surf_large.weights};
  const std::vector<std::size_t> sampled =
      sample_indices(large.size(), kSampledAtoms, mix_seed(args.seed, 7));
  std::vector<double> ref_large(large.size(), 1.0);
  std::vector<double> errs;
  for (const std::size_t i : sampled) {
    ref_large[i] = exact_born_radius(large, i, q_large);
    errs.push_back(std::abs(rl.last_radii[i] - ref_large[i]) / ref_large[i]);
  }
  const double large_med = median(errs);
  const double large_mean = mean_rel_err(rl.last_radii, ref_large, sampled);
  std::printf("20k rung: %zu sampled atoms, Born rel err median %.3e mean "
              "%.3e, E %.6f\n",
              sampled.size(), large_med, large_mean, rl.last_energy);
  std::vector<double> shifted = rl.last_radii;
  for (double& r : shifted) r *= 1.05;
  out.check(
      "20k sampled Born radii within 1% of exact (median)",
      [&] { return large_med < kBornMeanTol; },
      [&] {
        std::vector<double> e;
        for (const std::size_t i : sampled) {
          e.push_back(std::abs(shifted[i] - ref_large[i]) / ref_large[i]);
        }
        return median(e) < kBornMeanTol;
      });
  out.check(
      "20k E_pol < 0",
      [&] { return rl.last_energy < 0; },
      [&] { return -rl.last_energy < 0; });

  if (!args.trace) {
    // One operation is one cold call; a round is 2k, 20k, 2k.
    const double round_s = 2 * minimum(rs.seconds) + minimum(rl.seconds);
    out.add("setup_s", setup_s, "s");
    out.add("op_ms", round_s / 3 * yard.scale() * 1e3, "ms");
    return out;
  }

  out.add("born.rel_err", born_err, "1");
  out.add("epol.rel_err", epol_err, "1");
  // ---- per-layer metrics: medians over the traced 20k-rung calls ----
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const LayeredRun& lr : rl.layered) v.push_back(field(lr));
    return median(v);
  };
  const LayeredRun& any = rl.layered.front();
  const double surface_s =
      med([](const LayeredRun& r) { return r.density_s + r.march_s + r.quad_s; });
  out.add("surface.density_s", med([](const LayeredRun& r) { return r.density_s; }), "s");
  out.add("surface.march_s", med([](const LayeredRun& r) { return r.march_s; }), "s");
  out.add_count("surface.triangles", static_cast<double>(any.triangles));
  out.add("surface.quad_s", med([](const LayeredRun& r) { return r.quad_s; }), "s");
  out.add_count("surface.qpoints", static_cast<double>(any.qpoints));
  out.add("surface.ns_per_qpoint", surface_s / static_cast<double>(any.qpoints) * 1e9, "ns");
  out.add("octree.build_s", med([](const LayeredRun& r) { return r.tree_s; }), "s");
  out.add_count("octree.nodes", static_cast<double>(any.nodes));
  out.add("plan.build_s", med([](const LayeredRun& r) { return r.plan_s; }), "s");
  out.add_count("plan.born_near", static_cast<double>(any.born_near));
  out.add_count("plan.born_far", static_cast<double>(any.born_far));
  out.add_count("plan.epol_near", static_cast<double>(any.epol_near));
  out.add_count("plan.epol_far", static_cast<double>(any.epol_far));
  out.add_count("plan.bytes", static_cast<double>(any.plan_bytes), "bytes");
  const double born_s = med([](const LayeredRun& r) { return r.born_s; });
  const double born_work = static_cast<double>(any.counts.born_near_evals + any.born_far);
  out.add("born.s", born_s, "s");
  out.add_count("born.near_evals", static_cast<double>(any.counts.born_near_evals));
  out.add_count("born.far_deposits", static_cast<double>(any.born_far));
  out.add("born.ns_per_eval", born_s / born_work * 1e9, "ns");
  const double epol_s = med([](const LayeredRun& r) { return r.epol_s; });
  const double epol_work = static_cast<double>(any.counts.epol_near_evals + any.epol_far);
  out.add("epol.s", epol_s, "s");
  out.add_count("epol.near_evals", static_cast<double>(any.counts.epol_near_evals));
  out.add_count("epol.far_blocks", static_cast<double>(any.epol_far));
  out.add("epol.ns_per_eval", epol_s / epol_work * 1e9, "ns");
  // Scheduler work per cold call over the timed phase.
  const octgb::parallel::PoolStats ps = pool.stats();
  const double calls = static_cast<double>(out.attempted + out.traced_ops);
  out.add("pool.tasks",
          static_cast<double>(ps.tasks_executed - pool_before.tasks_executed) / calls,
          "count");
  out.add("pool.steals",
          static_cast<double>(ps.successful_steals - pool_before.successful_steals) /
              calls,
          "count");
  out.add("trace.overhead_pct",
          (minimum(rl.traced_seconds) / minimum(rl.seconds) - 1.0) * 100.0, "%");
  return out;
}

}  // namespace perfbench
