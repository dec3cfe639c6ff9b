// layers.h -- the cold pipeline of gb::compute_gb_energy driven one
// public layer call at a time, so a traced run can time and count each
// layer (surface, octree, plan, born, epol) with spans of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/gb/calculator.h"
#include "src/gb/interaction_lists.h"
#include "src/parallel/pool.h"

namespace perfbench {

/// Work counts implied by an interaction plan and the trees' leaf sizes.
struct PlanCounts {
  std::uint64_t born_near_evals = 0;   // sum |A| * |Q| over near pairs
  std::uint64_t born_far_cover = 0;    // sum |A| * |Q| over far pairs
  std::uint64_t epol_near_evals = 0;   // sum |U| * |V| over near pairs
  std::uint64_t epol_far_cover = 0;    // sum |U| * |V| over far pairs
};

PlanCounts count_plan(const octgb::gb::BornOctrees& trees,
                      const octgb::gb::InteractionPlan& plan);

/// Plan coverage property: every (atom, q-point) pair is covered exactly
/// once (near + far = N * N_q) and every ordered (atom, atom) pair too
/// (near + far = N^2).
bool plan_covers(const PlanCounts& c, std::size_t atoms, std::size_t qpoints);

/// |sum w n| / sum w: zero for a closed surface.
double surface_leak(const octgb::surface::QuadratureSurface& surf);

/// One traced run of the cold pipeline and what each layer did.
struct LayeredRun {
  double energy = 0.0;
  std::vector<double> born_radii;
  double density_s = 0.0, march_s = 0.0, quad_s = 0.0, sphere_s = 0.0;
  std::size_t triangles = 0, qpoints = 0;
  double tree_s = 0.0;
  std::size_t nodes = 0;
  double plan_s = 0.0;
  std::size_t born_near = 0, born_far = 0, epol_near = 0, epol_far = 0;
  std::size_t plan_bytes = 0;
  PlanCounts counts;
  double born_s = 0.0, epol_s = 0.0;
  double total_s = 0.0;
};

/// The surface pipeline of surface::build_surface, layer by layer:
/// density field, marching tetrahedra and mesh quadrature, or the
/// sphere-sampled path past the mesh atom limit. Fills the surface
/// fields of `run`.
octgb::surface::QuadratureSurface layered_surface(
    const octgb::molecule::Molecule& mol,
    const octgb::surface::SurfaceParams& params, LayeredRun& run);

/// The whole batched pipeline with spans around every layer call.
LayeredRun layered_energy(const octgb::molecule::Molecule& mol,
                          const octgb::gb::CalculatorParams& params,
                          octgb::parallel::WorkStealingPool* pool,
                          std::uint64_t request);

}  // namespace perfbench
