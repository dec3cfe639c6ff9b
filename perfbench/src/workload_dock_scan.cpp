// dock_scan: docking::PoseScorer on a 4k-atom receptor and a 40-atom
// ligand, scoring a seeded set of contact poses plus two far-away control
// poses per round on a 2-worker pool. The per-pose cost is the cross-tree
// Born traversal and a fused complex E_pol, a layer no other workload
// measures.
//
// Control poses put the ligand 1000 A and 5000 A away, where the
// desolvation energy must vanish. PoseScorer::score takes the complex
// energy from a fresh octree and fresh charge bins, so the far-field
// error of that one call does not cancel against the isolated energies:
// the controls score -25.8 and -38.0 kcal/mol. They are counted as
// failed operations while |dE| exceeds kControlTol. Receptor and ligand
// are fixed so that this failure is the same on every seed; the seed
// draws the contact poses.
#include <algorithm>
#include <cmath>
#include <memory>
#include <cstdio>
#include <limits>
#include <numbers>

#include "reference.h"
#include "src/docking/pose_scorer.h"
#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/molecule/generators.h"
#include "src/surface/quadrature.h"
#include "src/util/rng.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gb = octgb::gb;
namespace docking = octgb::docking;
using octgb::geom::Mat3;
using octgb::geom::Rigid;
using octgb::geom::Vec3;
using octgb::molecule::Molecule;

constexpr std::size_t kReceptorAtoms = 4000;
constexpr std::uint64_t kReceptorSeed = 7;
constexpr std::size_t kLigandAtoms = 40;
constexpr std::uint64_t kLigandSeed = 9;
constexpr int kContactPoses = 16;
constexpr double kContactGap = 3.0;  // A beyond the receptor's extent
constexpr double kControlTol = 1.0;  // kcal/mol
constexpr int kMinRounds = 3;
constexpr double kRepeatTol = 1e-9;  // pooled cross traversal, atomics
constexpr double kComplexTol = 0.01;

struct Pose {
  Rigid rigid;
  bool control = false;
};

/// Ligand rotated about its centroid, centroid moved to `at`.
Rigid place(const Molecule& ligand, const Mat3& rot, const Vec3& at) {
  const Vec3 c = ligand.centroid();
  return Rigid{rot, at - rot.apply(c)};
}

std::vector<Pose> make_poses(const Molecule& receptor, const Molecule& ligand,
                             std::uint64_t seed) {
  octgb::util::Xoshiro256 rng(seed);
  const Vec3 rc = receptor.centroid();
  std::vector<Pose> poses;
  for (int i = 0; i < kContactPoses; ++i) {
    Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
    dir = dir.normalized();
    double extent = 0.0;
    for (const Vec3& p : receptor.positions()) {
      extent = std::max(extent, (p - rc).dot(dir));
    }
    const Mat3 rot = Mat3::euler_zyx(rng.uniform(0, 2 * std::numbers::pi),
                                     rng.uniform(-1.5, 1.5),
                                     rng.uniform(0, 2 * std::numbers::pi));
    poses.push_back({place(ligand, rot, rc + dir * (extent + kContactGap)),
                     false});
    if (i == kContactPoses / 2 - 1) {
      poses.push_back({place(ligand, Mat3::identity(), rc + Vec3{1000, 0, 0}),
                       true});
    }
  }
  poses.push_back({place(ligand, Mat3::identity(), rc + Vec3{0, 0, 5000}),
                   true});
  return poses;
}

/// PoseScorer::score's per-pose steps from public layer calls, with a
/// span around each, for the traced run.
struct TracedScorer {
  const Molecule& receptor;
  const Molecule& ligand;
  const gb::CalculatorParams& params;
  octgb::parallel::WorkStealingPool* pool;
  octgb::surface::QuadratureSurface rsurf, lsurf;
  gb::BornOctrees rtrees, ltrees;
  std::vector<double> rself, lself;
  double cross_s = 0.0, tree_s = 0.0, epol_s = 0.0;

  TracedScorer(const Molecule& r, const Molecule& l,
               const gb::CalculatorParams& p,
               octgb::parallel::WorkStealingPool* pl)
      : receptor(r), ligand(l), params(p), pool(pl) {
    rsurf = octgb::surface::build_surface(receptor, params.surface);
    lsurf = octgb::surface::build_surface(ligand, params.surface);
    rtrees = gb::build_born_octrees(receptor, rsurf, params.octree);
    ltrees = gb::build_born_octrees(ligand, lsurf, params.octree);
    rself = self_sums(rtrees, receptor, rsurf);
    lself = self_sums(ltrees, ligand, lsurf);
  }

  std::vector<double> self_sums(const gb::BornOctrees& trees,
                                const Molecule& mol,
                                const octgb::surface::QuadratureSurface& surf) {
    gb::BornWorkspace ws(trees);
    gb::approx_integrals(trees, mol, surf, 0, trees.qpoints.num_leaves(),
                         params.approx, ws, pool);
    std::vector<double> sums(mol.size(), 0.0);
    gb::collect_integrals_to_atoms(trees.atoms, ws, sums);
    return sums;
  }

  double complex_energy(const Rigid& pose, std::uint64_t request) {
    SpanScope root("bench", "dock/score", request);
    Molecule posed = ligand;
    posed.transform(pose);
    octgb::surface::QuadratureSurface psurf = lsurf;
    for (auto& p : psurf.points) p = pose.apply(p);
    for (auto& n : psurf.normals) n = pose.apply_dir(n);
    gb::BornOctrees ptrees = ltrees;
    ptrees.atoms.transform(pose);
    ptrees.qpoints.transform(pose);
    for (auto& v : ptrees.q_weighted_normal) v = pose.apply_dir(v);

    double t = now_s();
    std::vector<double> rsum(receptor.size(), 0.0), lsum(ligand.size(), 0.0);
    {
      SpanScope s("dock", "dock/approx_integrals_cross", request);
      gb::BornWorkspace wr(rtrees.atoms);
      gb::approx_integrals_cross(rtrees.atoms, receptor, ptrees.qpoints,
                                 ptrees.q_weighted_normal, psurf,
                                 params.approx, wr, pool);
      gb::collect_integrals_to_atoms(rtrees.atoms, wr, rsum);
      gb::BornWorkspace wl(ptrees.atoms);
      gb::approx_integrals_cross(ptrees.atoms, posed, rtrees.qpoints,
                                 rtrees.q_weighted_normal, rsurf,
                                 params.approx, wl, pool);
      gb::collect_integrals_to_atoms(ptrees.atoms, wl, lsum);
    }
    cross_s += now_s() - t;

    Molecule complex = receptor;
    complex.append(posed);
    std::vector<double> radii(complex.size());
    const auto intrinsic = complex.radii();
    for (std::size_t i = 0; i < complex.size(); ++i) {
      const double sum = i < receptor.size()
                             ? rself[i] + rsum[i]
                             : lself[i - receptor.size()] +
                                   lsum[i - receptor.size()];
      const double s = sum / (4.0 * std::numbers::pi);
      radii[i] = std::max(intrinsic[i],
                          s > 0.0 ? 1.0 / std::cbrt(s) : intrinsic[i]);
    }
    t = now_s();
    const octgb::octree::Octree tree = [&] {
      SpanScope s("dock", "dock/complex_tree", request);
      return octgb::octree::Octree(complex.positions(), params.octree);
    }();
    tree_s += now_s() - t;
    t = now_s();
    double e = 0.0;
    {
      SpanScope s("epol", "dock/epol_octree", request);
      e = gb::epol_octree(tree, complex, radii, params.approx, params.physics,
                          pool)
              .energy;
    }
    epol_s += now_s() - t;
    return e;
  }
};

}  // namespace

Outcome run_dock_scan(const RunArgs& args) {
  Outcome out;
  const gb::CalculatorParams params;
  const Molecule receptor =
      octgb::molecule::generate_protein(kReceptorAtoms, kReceptorSeed);
  const Molecule ligand =
      octgb::molecule::generate_ligand(kLigandAtoms, kLigandSeed);
  const std::vector<Pose> poses =
      make_poses(receptor, ligand, mix_seed(args.seed, 5));

  Yardstick yard;

  // ---- set-up: pool start and the scorer's pose-invariant work ----
  octgb::parallel::WorkStealingPool pool(2);
  const docking::PoseScorer scorer(receptor, ligand, params, &pool);
  const double setup_s = now_s() - args.process_start;
  std::printf("setup %.4f s (receptor %.4f, ligand %.4f kcal/mol)\n", setup_s,
              scorer.receptor_energy(), scorer.ligand_energy());
  std::unique_ptr<TracedScorer> traced;
  if (args.trace) {
    traced = std::make_unique<TracedScorer>(receptor, ligand, params, &pool);
    tracer().enable();
  }

  // ---- timed phase: whole rounds over the pose set ----
  // Best time of each pose over the rounds, untraced and traced.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best_plain(poses.size(), inf);
  std::vector<double> best_traced(poses.size(), inf);
  std::vector<docking::PoseScore> first(poses.size());
  std::vector<double> control_de;
  const double start = now_s();
  int rounds = 0;
  std::uint64_t request = 0;
  while (more_rounds(start, args.seconds, rounds, args.trace ? 2 : kMinRounds)) {
    for (std::size_t i = 0; i < poses.size(); ++i) {
      yard.sample(2);
      const double t0 = now_s();
      const docking::PoseScore s = scorer.score(poses[i].rigid);
      best_plain[i] = std::min(best_plain[i], now_s() - t0);
      ++out.attempted;
      if (rounds == 0) first[i] = s;
      if (!std::isfinite(s.delta_energy) ||
          !within_rel(s.complex_energy, first[i].complex_energy, kRepeatTol)) {
        out.correct = false;
        out.problems.push_back("pose score not finite or not repeatable");
      }
      if (poses[i].control) {
        if (rounds == 0) control_de.push_back(s.delta_energy);
        if (std::abs(s.delta_energy) > kControlTol) ++out.failed;
      }
      if (traced) {
        const double t1 = now_s();
        const double e = traced->complex_energy(poses[i].rigid, ++request);
        best_traced[i] = std::min(best_traced[i], now_s() - t1);
        ++out.traced_ops;
        if (!within_rel(e, s.complex_energy, kRepeatTol)) {
          out.correct = false;
          out.problems.push_back("layered pose score disagrees with "
                                 "PoseScorer::score");
        }
      }
    }
    ++rounds;
  }
  const double timed = now_s() - start;
  tracer().disable();
  auto sum = [](const std::vector<double>& v) {
    double t = 0.0;
    for (double x : v) t += x;
    return t;
  };
  const double plain_s = sum(best_plain);  // one pass over the pose set
  std::printf("timed phase %.3f s, %d rounds of %zu poses, best pass %.4f s, "
              "yardstick scale %.4f; control dE",
              timed, rounds, poses.size(), plain_s, yard.scale());
  for (double d : control_de) std::printf(" %.4f", d);
  std::printf(" kcal/mol\n");

  // ---- checks: complex energy of the first contact pose against the
  // exact reference over the union of the two isolated surfaces ----
  const Rigid& pose = poses.front().rigid;
  Molecule complex = receptor;
  {
    Molecule posed = ligand;
    posed.transform(pose);
    complex.append(posed);
  }
  const octgb::surface::QuadratureSurface rsurf =
      octgb::surface::build_surface(receptor, params.surface);
  octgb::surface::QuadratureSurface usurf =
      octgb::surface::build_surface(ligand, params.surface);
  for (auto& p : usurf.points) p = pose.apply(p);
  for (auto& n : usurf.normals) n = pose.apply_dir(n);
  usurf.points.insert(usurf.points.begin(), rsurf.points.begin(),
                      rsurf.points.end());
  usurf.normals.insert(usurf.normals.begin(), rsurf.normals.begin(),
                       rsurf.normals.end());
  usurf.weights.insert(usurf.weights.begin(), rsurf.weights.begin(),
                       rsurf.weights.end());
  const QPoints q{usurf.points, usurf.normals, usurf.weights};
  const double exact = exact_epol(complex, exact_born_radii(complex, q));
  const double got = first.front().complex_energy;
  std::printf("contact pose: complex E %.6f exact %.6f rel err %.3e, dE "
              "%.4f\n",
              got, exact, std::abs(got - exact) / std::abs(exact),
              first.front().delta_energy);
  out.check(
      "complex E_pol of a contact pose within 1% of exact",
      [&] { return within_rel(got, exact, kComplexTol); },
      [&] {
        return within_rel(exact * (1 + 2 * kComplexTol), exact, kComplexTol);
      });
  out.check(
      "complex E_pol < 0", [&] { return got < 0; }, [&] { return -got < 0; });

  if (!args.trace) {
    out.add("setup_s", setup_s, "s");
    // One operation is one pose score.
    out.add("op_ms",
            plain_s * yard.scale() / static_cast<double>(poses.size()) * 1e3,
            "ms");
    return out;
  }
  const double n = static_cast<double>(out.traced_ops);
  out.add("dock.cross_s", traced->cross_s / n, "s");
  out.add("dock.complex_tree_s", traced->tree_s / n, "s");
  out.add("dock.epol_s", traced->epol_s / n, "s");
  out.add("trace.overhead_pct",
          (sum(best_traced) / plain_s - 1.0) * 100.0, "%");
  return out;
}

}  // namespace perfbench
