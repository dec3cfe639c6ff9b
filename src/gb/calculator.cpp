#include "src/gb/calculator.h"

#include <cmath>

#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/gb/naive.h"
#include "src/telemetry/telemetry.h"
#include "src/util/timer.h"

namespace octgb::gb {

GBResult compute_gb_energy(const molecule::Molecule& mol,
                           const CalculatorParams& params,
                           parallel::WorkStealingPool* pool,
                           Traversal traversal) {
  GBResult result;
  util::WallTimer timer;

  // Phase spans mirror the t_* timer fields; IIFEs keep the const locals.
  const surface::QuadratureSurface surf = [&] {
    OCTGB_TRACE_SCOPE("calc/surface");
    return surface::build_surface(mol, params.surface, pool);
  }();
  result.num_qpoints = surf.size();
  result.t_surface = timer.seconds();

  timer.restart();
  const BornOctrees trees = [&] {
    OCTGB_TRACE_SCOPE("calc/tree_build");
    return build_born_octrees(mol, surf, params.octree, pool);
  }();
  result.t_tree_build = timer.seconds();

  // Single-tree runs build one plan for both phases and evaluate it
  // with either Born kernel. The dual-tree walkers classify and
  // evaluate in one pass; r^4 has no dual-tree walker, so its Born
  // phase stays on the plan.
  const bool dual = traversal == Traversal::kDualTree;
  const bool dual_born = dual && params.kernel == BornKernel::kSurfaceR6;
  PlanScope scope;
  if (dual_born) scope.born_end = 0;
  if (dual) scope.epol_end = 0;
  timer.restart();
  const InteractionPlan plan = [&] {
    OCTGB_TRACE_SCOPE("calc/plan_build");
    return build_interaction_plan(trees.atoms, trees.qpoints, params.approx,
                                  scope, pool);
  }();
  result.t_plan = timer.seconds();

  timer.restart();
  BornRadiiResult born = [&] {
    OCTGB_TRACE_SCOPE("calc/born");
    return dual_born ? born_radii_dualtree(trees, mol, surf, params.approx,
                                           pool)
                     : born_radii_batched(trees, mol, surf, plan,
                                          params.approx, params.kernel, pool);
  }();
  result.t_born = timer.seconds();

  timer.restart();
  const EpolResult epol = [&] {
    OCTGB_TRACE_SCOPE("calc/epol");
    return dual ? epol_dualtree(trees.atoms, mol, born.radii, params.approx,
                                params.physics, pool)
                : epol_batched(trees.atoms, mol, born.radii, plan,
                               params.approx, params.physics, pool);
  }();
  result.t_epol = timer.seconds();

  result.born_radii = std::move(born.radii);
  result.energy = epol.energy;
  return result;
}

GBResult compute_gb_energy_naive(const molecule::Molecule& mol,
                                 const CalculatorParams& params) {
  GBResult result;
  util::WallTimer timer;

  const surface::QuadratureSurface surf =
      surface::build_surface(mol, params.surface);
  result.num_qpoints = surf.size();
  result.t_surface = timer.seconds();

  timer.restart();
  BornRadiiResult born =
      params.kernel == BornKernel::kSurfaceR4
          ? born_radii_naive_r4(mol, surf, params.approx.approx_math)
          : born_radii_naive_r6(mol, surf, params.approx.approx_math);
  result.t_born = timer.seconds();

  timer.restart();
  const EpolResult epol = epol_naive(mol, born.radii, params.physics,
                                     params.approx.approx_math);
  result.t_epol = timer.seconds();

  result.born_radii = std::move(born.radii);
  result.energy = epol.energy;
  return result;
}

double relative_error(double value, double reference) {
  const double denom = std::abs(reference);
  if (denom == 0.0) return std::abs(value) == 0.0 ? 0.0 : 1.0;  // lint:allow(float-eq) exact zero-reference guard
  return std::abs(value - reference) / denom;
}

}  // namespace octgb::gb
