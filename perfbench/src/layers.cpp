#include "layers.h"

#include <cmath>
#include <stdexcept>

#include "common.h"
#include "src/gb/kernels_batch.h"
#include "src/surface/density.h"
#include "src/surface/marching.h"
#include "trace.h"

namespace perfbench {

using octgb::gb::BornOctrees;
using octgb::gb::InteractionPlan;

PlanCounts count_plan(const BornOctrees& trees, const InteractionPlan& plan) {
  const auto& atoms = trees.atoms;
  const auto& qtree = trees.qpoints;
  const auto leaves = atoms.leaves();
  PlanCounts c;
  for (const auto& p : plan.born_near) {
    c.born_near_evals += static_cast<std::uint64_t>(atoms.node(p.target).count()) *
                         qtree.node(p.source).count();
  }
  for (const auto& p : plan.born_far) {
    c.born_far_cover += static_cast<std::uint64_t>(atoms.node(p.target).count()) *
                        qtree.node(p.source).count();
  }
  for (const auto& p : plan.epol_near) {
    c.epol_near_evals +=
        static_cast<std::uint64_t>(atoms.node(leaves[p.target]).count()) *
        atoms.node(p.source).count();
  }
  for (const auto& p : plan.epol_far) {
    c.epol_far_cover +=
        static_cast<std::uint64_t>(atoms.node(leaves[p.target]).count()) *
        atoms.node(p.source).count();
  }
  return c;
}

bool plan_covers(const PlanCounts& c, std::size_t atoms, std::size_t qpoints) {
  const std::uint64_t n = atoms;
  return c.born_near_evals + c.born_far_cover == n * qpoints &&
         c.epol_near_evals + c.epol_far_cover == n * n;
}

double surface_leak(const octgb::surface::QuadratureSurface& surf) {
  octgb::geom::Vec3 sum;
  double area = 0.0;
  for (std::size_t i = 0; i < surf.size(); ++i) {
    sum += surf.normals[i] * surf.weights[i];
    area += surf.weights[i];
  }
  return area > 0.0 ? sum.norm() / area : INFINITY;
}

octgb::surface::QuadratureSurface layered_surface(
    const octgb::molecule::Molecule& mol,
    const octgb::surface::SurfaceParams& params, LayeredRun& run) {
  namespace surface = octgb::surface;
  if (mol.size() <= params.mesh_atom_limit) {
    double t = now_s();
    const surface::GaussianDensityField field = [&] {
      SpanScope s("surface", "surface/density");
      return surface::GaussianDensityField(mol, params.blobbiness);
    }();
    run.density_s = now_s() - t;
    surface::MarchingParams mp;
    mp.spacing = params.spacing;
    try {
      t = now_s();
      const surface::TriMesh mesh = [&] {
        SpanScope s("surface", "surface/march");
        return surface::marching_tetrahedra(field, mp);
      }();
      run.march_s = now_s() - t;
      run.triangles = mesh.num_triangles();
      if (!mesh.triangles.empty()) {
        t = now_s();
        SpanScope s("surface", "surface/quadrature");
        surface::QuadratureSurface surf =
            surface::sample_mesh(mesh, field, params.quadrature_degree);
        run.quad_s = now_s() - t;
        run.qpoints = surf.size();
        return surf;
      }
    } catch (const std::runtime_error&) {
      // Grid over budget: build_surface falls through to sphere sampling.
    }
  }
  const double t = now_s();
  SpanScope s("surface", "surface/sphere");
  surface::QuadratureSurface surf = surface::sphere_sampled_surface(
      mol, params.sphere_points, params.sphere_probe);
  run.sphere_s = now_s() - t;
  run.qpoints = surf.size();
  return surf;
}

LayeredRun layered_energy(const octgb::molecule::Molecule& mol,
                          const octgb::gb::CalculatorParams& params,
                          octgb::parallel::WorkStealingPool* pool,
                          std::uint64_t request) {
  namespace gb = octgb::gb;
  LayeredRun run;
  const double start = now_s();
  SpanScope root("bench", "cold_call", request);

  const octgb::surface::QuadratureSurface surf =
      layered_surface(mol, params.surface, run);

  double t = now_s();
  const BornOctrees trees = [&] {
    SpanScope s("octree", "octree/build_born_octrees", request);
    return gb::build_born_octrees(mol, surf, params.octree, pool);
  }();
  run.tree_s = now_s() - t;
  run.nodes = trees.atoms.num_nodes() + trees.qpoints.num_nodes();

  t = now_s();
  const InteractionPlan plan = [&] {
    SpanScope s("plan", "plan/build_interaction_plan", request);
    return gb::build_interaction_plan(trees, params.approx, pool);
  }();
  run.plan_s = now_s() - t;
  run.born_near = plan.born_near.size();
  run.born_far = plan.born_far.size();
  run.epol_near = plan.epol_near.size();
  run.epol_far = plan.epol_far.size();
  run.plan_bytes = plan.memory_bytes();
  run.counts = count_plan(trees, plan);

  t = now_s();
  gb::BornRadiiResult born = [&] {
    SpanScope s("born", "born/born_radii_batched", request);
    return gb::born_radii_batched(trees, mol, surf, plan, params.approx,
                                  pool);
  }();
  run.born_s = now_s() - t;

  t = now_s();
  {
    SpanScope s("epol", "epol/epol_batched", request);
    run.energy = gb::epol_batched(trees.atoms, mol, born.radii, plan,
                                  params.approx, params.physics, pool)
                     .energy;
  }
  run.epol_s = now_s() - t;
  run.born_radii = std::move(born.radii);
  run.total_s = now_s() - start;
  return run;
}

}  // namespace perfbench
