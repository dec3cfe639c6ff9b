// capsid_mpi: runtime::run_distributed with node-node division on 2
// simmpi ranks x 1 worker over a generate_capsid hollow shell -- the
// paper's distributed algorithm (Figure 4). It runs the fused per-rank
// traversals, the allreduce/allgather steps and the sphere-sampled
// surface, and bypasses the interaction plan and the batched kernels.
//
// The shell has 16k atoms and is put on the sphere-sampled surface
// through SurfaceParams::mesh_atom_limit. Under the default limit the
// shell would need over 60k atoms, where one run took 8.5 to 11.6 s on a
// 4-core Xeon host: two samples per run are too few for a steady median.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "layers.h"
#include "reference.h"
#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/molecule/generators.h"
#include "src/runtime/drivers.h"
#include "src/surface/quadrature.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gb = octgb::gb;
namespace runtime = octgb::runtime;
using octgb::molecule::Molecule;

constexpr std::size_t kCapsidAtoms = 16000;
constexpr std::size_t kWarmAtoms = 2000;
constexpr int kMinRuns = 4;
constexpr std::size_t kSampledAtoms = 48;
constexpr double kBornTol = 0.01;
// Two independent engines (fused per-rank traversals vs the batched
// plan) agree to rounding.
constexpr double kEngineTol = 1e-10;
constexpr double kRankTol = 1e-12;

runtime::DriverConfig capsid_config(int ranks) {
  runtime::DriverConfig config;
  config.num_ranks = ranks;
  config.threads_per_rank = 1;
  config.division = runtime::WorkDivision::kNodeNode;
  config.params.surface.mesh_atom_limit = 0;  // sphere-sampled surface
  return config;
}

struct FusedRun {
  double energy = 0.0;
  double born_s = 0.0, push_s = 0.0, bins_s = 0.0, epol_s = 0.0;
};

/// The distributed run's primitives over the full range, serially.
FusedRun fused_serial(const Molecule& mol, const gb::CalculatorParams& params,
                      LayeredRun& layers) {
  FusedRun f;
  const octgb::surface::QuadratureSurface surf =
      layered_surface(mol, params.surface, layers);
  double t = now_s();
  const gb::BornOctrees trees = [&] {
    SpanScope s("octree", "octree/build_born_octrees");
    return gb::build_born_octrees(mol, surf, params.octree);
  }();
  layers.tree_s = now_s() - t;
  layers.nodes = trees.atoms.num_nodes() + trees.qpoints.num_nodes();

  gb::BornWorkspace ws(trees);
  t = now_s();
  {
    SpanScope s("fused", "fused/approx_integrals");
    gb::approx_integrals(trees, mol, surf, 0, trees.qpoints.num_leaves(),
                         params.approx, ws);
  }
  f.born_s = now_s() - t;
  std::vector<double> radii(mol.size(), 0.0);
  t = now_s();
  {
    SpanScope s("fused", "fused/push_integrals_to_atoms");
    gb::push_integrals_to_atoms(trees, mol, ws, 0, mol.size(), params.approx,
                                radii);
  }
  f.push_s = now_s() - t;
  t = now_s();
  const gb::ChargeBins bins = [&] {
    SpanScope s("fused", "fused/build_charge_bins");
    return gb::build_charge_bins(trees.atoms, mol.charges(), radii,
                                 params.approx.eps_epol);
  }();
  f.bins_s = now_s() - t;
  t = now_s();
  double sum = 0.0;
  {
    SpanScope s("fused", "fused/approx_epol");
    sum = gb::approx_epol(trees.atoms, mol, bins, radii, 0,
                          trees.atoms.num_leaves(), params.approx);
  }
  f.epol_s = now_s() - t;
  f.energy = -0.5 * params.physics.tau() * params.physics.coulomb_k * sum;
  return f;
}

}  // namespace

Outcome run_capsid_mpi(const RunArgs& args) {
  Outcome out;
  const Molecule capsid =
      octgb::molecule::generate_capsid(kCapsidAtoms, mix_seed(args.seed, 16000));
  const Molecule warm_mol =
      octgb::molecule::generate_capsid(kWarmAtoms, mix_seed(args.seed, 1));
  const runtime::DriverConfig config = capsid_config(2);

  Yardstick yard;

  // ---- set-up: one warm-up distributed run on a small shell ----
  const runtime::DriverResult warm = runtime::run_distributed(warm_mol, config);
  const double setup_s = now_s() - args.process_start;
  std::printf("setup %.4f s (warm-up energy %.6f)\n", setup_s, warm.energy);

  // ---- timed phase ----
  std::vector<double> seconds, traced_seconds;
  std::vector<LayeredRun> layered;
  std::vector<FusedRun> fused;
  runtime::DriverResult first;
  bool have_first = false;
  if (args.trace) tracer().enable();
  const double start = now_s();
  int runs = 0;
  while (more_rounds(start, args.seconds, runs, args.trace ? 2 : kMinRuns)) {
    yard.sample(3);
    double t0 = now_s();
    runtime::DriverResult res = runtime::run_distributed(capsid, config);
    seconds.push_back(now_s() - t0);
    ++out.attempted;
    if (!have_first) {
      first = std::move(res);
      have_first = true;
    } else if (!bit_equal(res.energy, first.energy)) {
      out.correct = false;
      out.problems.push_back("repeated distributed runs differ in energy");
    }
    if (args.trace) {
      t0 = now_s();
      {
        SpanScope s("mpi", "mpi/run_distributed", static_cast<std::uint64_t>(runs + 1));
        runtime::run_distributed(capsid, config);
      }
      traced_seconds.push_back(now_s() - t0);
      LayeredRun lr;
      fused.push_back(fused_serial(capsid, config.params, lr));
      layered.push_back(lr);
      out.traced_ops += 2;
    }
    ++runs;
  }
  const double timed = now_s() - start;
  tracer().disable();
  std::printf("timed phase %.3f s, %d runs, min %.4f median %.4f s, "
              "yardstick scale %.4f, E %.8f, %zu q-points\n",
              timed, runs, minimum(seconds), median(seconds), yard.scale(),
              first.energy, first.num_qpoints);

  // ---- checks (outside the timed phase and the set-up) ----
  const runtime::DriverResult one_rank =
      runtime::run_distributed(capsid, capsid_config(1));
  // Ranks allreduce their partial sums, so the summation order depends
  // on the rank count and 1 and 2 ranks differ in the last bits (see the
  // README, Checks): checked to a tolerance, with the bit comparison
  // reported.
  std::printf("1 vs 2 ranks bit-identical: %s\n",
              bit_equal(one_rank.energy, first.energy) ? "yes" : "no");
  out.check(
      "energy at 1 and 2 ranks agrees to 1e-12",
      [&] { return within_rel(first.energy, one_rank.energy, kRankTol); },
      [&] {
        return within_rel(one_rank.energy * (1 + 1e-10), one_rank.energy,
                          kRankTol);
      });
  const double engine = gb::compute_gb_energy(capsid, config.params).energy;
  std::printf("2 ranks %.17g, 1 rank %.17g, compute_gb_energy %.17g\n",
              first.energy, one_rank.energy, engine);
  out.check(
      "distributed energy agrees with compute_gb_energy to 1e-10",
      [&] { return within_rel(first.energy, engine, kEngineTol); },
      [&] { return within_rel(engine * (1 + 1e-9), engine, kEngineTol); });
  out.check(
      "E_pol < 0", [&] { return first.energy < 0; },
      [&] { return -first.energy < 0; });

  const octgb::surface::QuadratureSurface surf =
      octgb::surface::build_surface(capsid, config.params.surface);
  if (surf.size() != first.num_qpoints) {
    out.correct = false;
    out.problems.push_back("reference surface differs from the program's");
  }
  const QPoints q{surf.points, surf.normals, surf.weights};
  const std::vector<std::size_t> sampled =
      sample_indices(capsid.size(), kSampledAtoms, mix_seed(args.seed, 7));
  std::vector<double> errs, shifted_errs;
  for (const std::size_t i : sampled) {
    const double ref = exact_born_radius(capsid, i, q);
    errs.push_back(std::abs(first.born_radii[i] - ref) / ref);
    shifted_errs.push_back(std::abs(first.born_radii[i] * 1.05 - ref) / ref);
  }
  std::printf("%zu sampled atoms: Born rel err median %.3e max %.3e; "
              "surface leak %.3e\n",
              sampled.size(), median(errs),
              *std::max_element(errs.begin(), errs.end()), surface_leak(surf));
  out.check(
      "sampled Born radii within 1% of exact (median)",
      [&] { return median(errs) < kBornTol; },
      [&] { return median(shifted_errs) < kBornTol; });

  if (!args.trace) {
    out.add("setup_s", setup_s, "s");
    // One operation is one distributed run.
    out.add("op_ms", minimum(seconds) * yard.scale() * 1e3, "ms");
    return out;
  }
  auto med = [](const auto& runs_v, auto field) {
    std::vector<double> v;
    for (const auto& r : runs_v) v.push_back(field(r));
    return median(v);
  };
  for (const FusedRun& f : fused) {
    if (!within_rel(f.energy, first.energy, kEngineTol)) {
      out.correct = false;
      out.problems.push_back("serial fused primitives disagree with the "
                             "distributed run");
    }
  }
  const LayeredRun& any = layered.front();
  const double sphere_s = med(layered, [](const LayeredRun& r) { return r.sphere_s; });
  out.add("surface.sphere_s", sphere_s, "s");
  out.add_count("surface.qpoints", static_cast<double>(any.qpoints));
  out.add("surface.ns_per_qpoint", sphere_s / static_cast<double>(any.qpoints) * 1e9, "ns");
  out.add("octree.build_s", med(layered, [](const LayeredRun& r) { return r.tree_s; }), "s");
  out.add_count("octree.nodes", static_cast<double>(any.nodes));
  out.add("fused.born_s", med(fused, [](const FusedRun& r) { return r.born_s; }), "s");
  out.add("fused.push_s", med(fused, [](const FusedRun& r) { return r.push_s; }), "s");
  out.add("fused.bins_s", med(fused, [](const FusedRun& r) { return r.bins_s; }), "s");
  out.add("fused.epol_s", med(fused, [](const FusedRun& r) { return r.epol_s; }), "s");
  out.add_count("mpi.comm_bytes", static_cast<double>(first.comm_bytes), "bytes");
  out.add_count("mpi.data_bytes_per_rank", static_cast<double>(first.data_bytes_per_rank),
                "bytes");
  out.add("mpi.modeled_comm_s", first.modeled_comm_seconds, "s");
  out.add("trace.overhead_pct",
          (minimum(traced_seconds) / minimum(seconds) - 1.0) * 100.0, "%");
  return out;
}

}  // namespace perfbench
