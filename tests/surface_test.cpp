// Tests for the surface pipeline: density field, marching tetrahedra,
// Dunavant rules, quadrature surfaces. The decisive checks are the
// divergence-theorem identities the Born-radius integrals rely on:
// for a sphere of radius R and its center x,
//   (1/4pi)  sum w (r-x).n / |r-x|^4  = 1/R      (r^4 form, Eq. 3)
//   (1/4pi)  sum w (r-x).n / |r-x|^6  = 1/R^3    (r^6 form, Eq. 4)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <tuple>
#include <vector>

#include "src/gb/calculator.h"
#include "src/geom/celllist.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/surface/density.h"
#include "src/surface/marching.h"
#include "src/surface/mesh.h"
#include "src/surface/quadrature.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace octgb::surface {
namespace {

constexpr double kPi = std::numbers::pi;

molecule::Molecule single_atom(double radius) {
  molecule::Molecule mol("atom");
  mol.add_atom({{0, 0, 0}, radius, -0.5, molecule::Element::O});
  return mol;
}

// Discrete Born-integral of the quadrature surface at observation point x.
double surface_integral(const QuadratureSurface& s, const geom::Vec3& x,
                        int power) {
  double sum = 0.0;
  for (std::size_t q = 0; q < s.size(); ++q) {
    const geom::Vec3 d = s.points[q] - x;
    const double r2 = d.norm2();
    const double denom = power == 4 ? r2 * r2 : r2 * r2 * r2;
    sum += s.weights[q] * d.dot(s.normals[q]) / denom;
  }
  return sum / (4.0 * kPi);
}

TEST(DensityTest, SingleAtomIsoSurfaceIsItsSphere) {
  const auto mol = single_atom(1.7);
  const GaussianDensityField field(mol);
  EXPECT_NEAR(field.value({1.7, 0, 0}), 1.0, 1e-9);
  EXPECT_GT(field.value({1.0, 0, 0}), 1.0);  // inside
  EXPECT_LT(field.value({2.5, 0, 0}), 1.0);  // outside
}

TEST(DensityTest, GradientMatchesFiniteDifferences) {
  const auto mol = molecule::generate_ligand(20, 3);
  const GaussianDensityField field(mol);
  const geom::Vec3 x = mol.atom(0).position + geom::Vec3{1.2, 0.4, -0.6};
  const geom::Vec3 g = field.gradient(x);
  const double h = 1e-6;
  EXPECT_NEAR(g.x,
              (field.value(x + geom::Vec3{h, 0, 0}) -
               field.value(x - geom::Vec3{h, 0, 0})) /
                  (2 * h),
              1e-5);
  EXPECT_NEAR(g.z,
              (field.value(x + geom::Vec3{0, 0, h}) -
               field.value(x - geom::Vec3{0, 0, h})) /
                  (2 * h),
              1e-5);
}

TEST(DensityTest, OutwardNormalPointsAwayFromAtom) {
  const auto mol = single_atom(1.5);
  const GaussianDensityField field(mol);
  const geom::Vec3 on_surface{1.5, 0, 0};
  const geom::Vec3 n = field.outward_normal(on_surface);
  EXPECT_NEAR(n.x, 1.0, 1e-9);
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
}

TEST(DensityTest, SurfaceBoundsContainIsoSurface) {
  const auto mol = molecule::generate_protein(300, 4);
  const GaussianDensityField field(mol);
  const geom::Aabb bounds = field.surface_bounds();
  // Everywhere on the bounds' faces F must be < 1 (outside the surface).
  EXPECT_LT(field.value(bounds.lo), 1.0);
  EXPECT_LT(field.value(bounds.hi), 1.0);
}

// The fused sweep must reproduce the separate calls bit for bit, and
// both must equal a plain per-atom sweep over the same neighbours in
// the same order with the field's arithmetic.
TEST(DensityTest, ValueAndGradientBitwiseEqualsSeparateCalls) {
  const auto mol = molecule::generate_protein(300, 21);
  const double blobbiness = 1.0;
  const GaussianDensityField field(mol, blobbiness);
  const geom::CellList cells(mol.positions(),
                             std::max(field.cutoff() / 2.0, 1.0));
  const auto radii = mol.radii();
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t atom = rng.below(mol.size());
    const double reach = trial % 10 == 0 ? 40.0 : 4.0;  // some far away
    const geom::Vec3 x =
        mol.atom(atom).position + geom::Vec3{rng.uniform(-reach, reach),
                                             rng.uniform(-reach, reach),
                                             rng.uniform(-reach, reach)};
    double want_f = 0.0;
    geom::Vec3 want_g;
    cells.for_each_within(
        x, field.cutoff(), [&](std::uint32_t i, const geom::Vec3& c) {
          const double inv_r2 = blobbiness / (radii[i] * radii[i]);
          const double e =
              std::exp(-(geom::distance2(x, c) * inv_r2 - blobbiness));
          want_f += e;
          want_g += (x - c) * (-2.0 * inv_r2 * e);
        });
    const auto vg = field.value_and_gradient(x);
    const double f = field.value(x);
    const geom::Vec3 g = field.gradient(x);
    ASSERT_EQ(bits(vg.value), bits(f)) << "trial " << trial;
    ASSERT_EQ(bits(vg.value), bits(want_f)) << "trial " << trial;
    for (const auto& [got, sep, want] :
         {std::tuple{vg.gradient.x, g.x, want_g.x},
          std::tuple{vg.gradient.y, g.y, want_g.y},
          std::tuple{vg.gradient.z, g.z, want_g.z}}) {
      ASSERT_EQ(bits(got), bits(sep)) << "trial " << trial;
      ASSERT_EQ(bits(got), bits(want)) << "trial " << trial;
    }
  }
}

TEST(MarchingTest, SphereAreaConverges) {
  const double r = 1.7;
  const auto mol = single_atom(r);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.25;
  const TriMesh mesh = marching_tetrahedra(field, params);
  EXPECT_GT(mesh.num_triangles(), 100u);
  EXPECT_NEAR(mesh.area(), 4.0 * kPi * r * r, 0.05 * 4.0 * kPi * r * r);
}

TEST(MarchingTest, VerticesLieOnTheIsoSurface) {
  const auto mol = molecule::generate_ligand(15, 8);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.4;
  const TriMesh mesh = marching_tetrahedra(field, params);
  ASSERT_GT(mesh.vertices.size(), 0u);
  // Linear interpolation along short edges keeps |F - 1| small.
  double worst = 0.0;
  for (const auto& v : mesh.vertices) {
    worst = std::max(worst, std::abs(field.value(v) - 1.0));
  }
  EXPECT_LT(worst, 0.05);  // Newton-refined vertices
}

TEST(MarchingTest, TrianglesAreOrientedOutward) {
  const auto mol = single_atom(1.6);
  const GaussianDensityField field(mol);
  const TriMesh mesh = marching_tetrahedra(field, {});
  for (std::size_t t = 0; t < mesh.num_triangles(); ++t) {
    const geom::Vec3 centroid = (mesh.triangle_vertex(t, 0) +
                                 mesh.triangle_vertex(t, 1) +
                                 mesh.triangle_vertex(t, 2)) /
                                3.0;
    // For a sphere at origin, outward == radial.
    EXPECT_GT(mesh.triangle_normal(t).dot(centroid.normalized()), 0.0);
  }
}

TEST(MarchingTest, GridBudgetGuardThrows) {
  const auto mol = molecule::generate_protein(500, 2);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.5;
  params.max_grid_vertices = 10;
  EXPECT_THROW(marching_tetrahedra(field, params), std::runtime_error);
}

TEST(DunavantTest, WeightsSumToOne) {
  for (int degree = 1; degree <= 5; ++degree) {
    const TriangleRule& rule = dunavant_rule(degree);
    double sum = 0.0;
    for (double w : rule.weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12) << "degree " << degree;
    EXPECT_EQ(rule.nodes.size(), rule.weights.size());
  }
}

TEST(DunavantTest, InvalidDegreeThrows) {
  EXPECT_THROW(dunavant_rule(0), std::invalid_argument);
  EXPECT_THROW(dunavant_rule(6), std::invalid_argument);
}

// Exact integral of x^p y^q over the reference triangle
// {(0,0),(1,0),(0,1)} is p! q! / (p+q+2)!.
double monomial_integral(int p, int q) {
  auto fact = [](int n) {
    double f = 1.0;
    for (int i = 2; i <= n; ++i) f *= i;
    return f;
  };
  return fact(p) * fact(q) / fact(p + q + 2);
}

class DunavantExactness : public ::testing::TestWithParam<int> {};

TEST_P(DunavantExactness, IntegratesPolynomialsUpToDegree) {
  const int degree = GetParam();
  const TriangleRule& rule = dunavant_rule(degree);
  // Reference triangle corners for barycentric evaluation.
  const double area = 0.5;
  for (int p = 0; p <= degree; ++p) {
    for (int q = 0; p + q <= degree; ++q) {
      double sum = 0.0;
      for (std::size_t k = 0; k < rule.nodes.size(); ++k) {
        // Cartesian point: x = b1, y = b2 with corners (0,0),(1,0),(0,1).
        const double x = rule.nodes[k][1];
        const double y = rule.nodes[k][2];
        sum += rule.weights[k] * std::pow(x, p) * std::pow(y, q);
      }
      sum *= area;
      EXPECT_NEAR(sum, monomial_integral(p, q), 1e-12)
          << "degree " << degree << " monomial x^" << p << " y^" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, DunavantExactness,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(QuadratureTest, MeshSamplingPreservesArea) {
  const auto mol = single_atom(1.7);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.3;
  const TriMesh mesh = marching_tetrahedra(field, params);
  for (int degree : {1, 2, 3, 5}) {
    const QuadratureSurface s = sample_mesh(mesh, field, degree);
    EXPECT_NEAR(s.total_area(), mesh.area(), 1e-9 * mesh.area())
        << "degree " << degree;
    EXPECT_EQ(s.size(),
              mesh.num_triangles() * dunavant_rule(degree).nodes.size());
  }
}

TEST(QuadratureTest, BornIntegralIdentityOnSphereMesh) {
  const double r = 2.0;
  const auto mol = single_atom(r);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.2;
  const TriMesh mesh = marching_tetrahedra(field, params);
  const QuadratureSurface s = sample_mesh(mesh, field, 2);
  // r^4 identity: 1/R.
  EXPECT_NEAR(surface_integral(s, {0, 0, 0}, 4), 1.0 / r, 0.03 / r);
  // r^6 identity: 1/R^3.
  EXPECT_NEAR(surface_integral(s, {0, 0, 0}, 6), 1.0 / (r * r * r),
              0.05 / (r * r * r));
}

TEST(QuadratureTest, SphereSampledSingleAtomIsExactSphere) {
  const double r = 1.6;
  const auto mol = single_atom(r);
  const QuadratureSurface s =
      sphere_sampled_surface(mol, 200, /*probe=*/0.0);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_NEAR(s.total_area(), 4.0 * kPi * r * r, 1e-9);
  for (std::size_t q = 0; q < s.size(); ++q) {
    EXPECT_NEAR(s.points[q].norm(), r, 1e-12);
    EXPECT_NEAR(s.normals[q].dot(s.points[q].normalized()), 1.0, 1e-12);
  }
  // Fibonacci sampling is an equal-area rule: the r^6 identity holds
  // very accurately at the center.
  EXPECT_NEAR(surface_integral(s, {0, 0, 0}, 6), 1.0 / (r * r * r),
              1e-6);
}

TEST(QuadratureTest, SphereSampledDiscardsBuriedPoints) {
  molecule::Molecule mol("dimer");
  mol.add_atom({{0, 0, 0}, 1.5, 0, molecule::Element::C});
  mol.add_atom({{1.5, 0, 0}, 1.5, 0, molecule::Element::C});
  const QuadratureSurface s =
      sphere_sampled_surface(mol, 300, /*probe=*/0.0);
  const double isolated = 2.0 * 4.0 * kPi * 1.5 * 1.5;
  EXPECT_LT(s.total_area(), 0.95 * isolated);  // overlap removed
  EXPECT_GT(s.total_area(), 0.5 * isolated);   // but most area remains
  // No retained point may be strictly inside either atom.
  for (const auto& p : s.points) {
    EXPECT_GE(geom::distance(p, {0, 0, 0}), 1.5 * (1 - 1e-6));
    EXPECT_GE(geom::distance(p, {1.5, 0, 0}), 1.5 * (1 - 1e-6));
  }
}

TEST(QuadratureTest, BuildSurfaceSelectsMeshPathForSmallMolecules) {
  const auto mol = molecule::generate_ligand(30, 5);
  SurfaceParams params;
  params.spacing = 0.5;
  const QuadratureSurface s = build_surface(mol, params);
  EXPECT_GT(s.size(), 100u);
  EXPECT_GT(s.total_area(), 0.0);
}

TEST(QuadratureTest, BuildSurfaceFallsBackToSpheresForLargeMolecules) {
  const auto mol = molecule::generate_protein(2000, 6);
  SurfaceParams params;
  params.mesh_atom_limit = 100;  // force the O(N) path
  params.sphere_points = 32;
  const QuadratureSurface s = build_surface(mol, params);
  EXPECT_GT(s.size(), 0u);
  // Buried-atom points are discarded, so we get far fewer than 32/atom.
  EXPECT_LT(s.size(), mol.size() * 32);
}

TEST(QuadratureTest, ProbeInflatesTheSphereSurface) {
  const double r = 1.5, probe = 1.1;
  const auto mol = single_atom(r);
  const QuadratureSurface s = sphere_sampled_surface(mol, 100, probe);
  const double want = 4.0 * std::numbers::pi * (r + probe) * (r + probe);
  EXPECT_NEAR(s.total_area(), want, 1e-9);
  for (const auto& p : s.points) EXPECT_NEAR(p.norm(), r + probe, 1e-12);
}

TEST(QuadratureTest, ProbeBringsSpherePathNearMeshPath) {
  // The probe-inflated sphere surface approximates the smooth Gaussian
  // surface; the two pipelines' total areas should be within ~2x
  // (the bare vdW union is ~3-5x larger than either).
  const auto mol = molecule::generate_protein(1200, 44);
  SurfaceParams mesh_params;
  const QuadratureSurface mesh_surf = build_surface(mol, mesh_params);
  const QuadratureSurface sphere_surf =
      sphere_sampled_surface(mol, 48, 1.1);
  const QuadratureSurface bare = sphere_sampled_surface(mol, 48, 0.0);
  EXPECT_LT(sphere_surf.total_area(), 2.0 * mesh_surf.total_area());
  EXPECT_GT(sphere_surf.total_area(), 0.5 * mesh_surf.total_area());
  EXPECT_GT(bare.total_area(), 1.5 * mesh_surf.total_area());
}

TEST(QuadratureTest, ProteinSurfaceQPointDensityIsPaperLike) {
  // The paper's molecules carry roughly 2-6 q-points per atom (CMV:
  // 509,640 atoms / 1.93M q-points). Check the default pipeline lands in
  // a sane band for a mid-size protein.
  const auto mol = molecule::generate_protein(1500, 9);
  const QuadratureSurface s = build_surface(mol);
  const double per_atom = static_cast<double>(s.size()) /
                          static_cast<double>(mol.size());
  EXPECT_GT(per_atom, 0.5);
  EXPECT_LT(per_atom, 60.0);
}

// A cold call's surface phase reports its five steps as child spans of
// calc/surface, on the calling thread even when the loops run on a
// pool, and its work counters equal the sizes of the mesh it built.
TEST(SurfaceTelemetryTest, PhaseSpansNestUnderCalcSurfaceAndCountersMatch) {
  const auto mol = molecule::generate_protein(800, 33);
  gb::CalculatorParams params;
  auto& registry = telemetry::MetricsRegistry::instance();
  const char* const kCounters[] = {"surface.grid_vertices",
                                   "surface.mesh_vertices",
                                   "surface.triangles", "surface.qpoints"};
  std::vector<std::uint64_t> before;
  for (const char* name : kCounters) {
    before.push_back(registry.counter(name).value());
  }
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::instance();
  rec.reset();
  rec.set_enabled(true);
  parallel::WorkStealingPool pool(2);
  const gb::GBResult result = gb::compute_gb_energy(mol, params, &pool);
  rec.set_enabled(false);
  const std::vector<telemetry::TraceEvent> events = rec.collect();
  rec.reset();
  std::vector<std::uint64_t> delta;
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    delta.push_back(registry.counter(kCounters[i]).value() - before[i]);
  }

#if defined(OCTGB_TELEMETRY_ENABLED)
  const GaussianDensityField field(mol, params.surface.blobbiness);
  MarchingParams mp;
  mp.spacing = params.surface.spacing;
  const geom::Vec3 size = field.surface_bounds().size();
  const auto axis = [&](double extent) {
    return static_cast<std::uint64_t>(std::ceil(extent / mp.spacing)) + 1;
  };
  const TriMesh mesh = marching_tetrahedra(field, mp);
  EXPECT_EQ(delta[0], axis(size.x) * axis(size.y) * axis(size.z));
  EXPECT_EQ(delta[1], mesh.vertices.size());
  EXPECT_EQ(delta[2], mesh.num_triangles());
  EXPECT_EQ(delta[3], result.num_qpoints);
  EXPECT_GT(delta[0], kSurfaceGrain);  // the pool really ran the loops

  const auto parent = std::find_if(
      events.begin(), events.end(), [](const telemetry::TraceEvent& e) {
        return std::strcmp(e.name, "calc/surface") == 0;
      });
  ASSERT_NE(parent, events.end());
  const char* const kPhases[] = {"surface/grid", "surface/march",
                                 "surface/project", "surface/orient",
                                 "surface/quadrature"};
  std::uint64_t last_start = parent->t0_ns;
  for (const char* phase : kPhases) {
    int seen = 0;
    for (const telemetry::TraceEvent& e : events) {
      if (std::strcmp(e.name, phase) != 0) continue;
      ++seen;
      EXPECT_EQ(e.tid, parent->tid) << phase;
      EXPECT_EQ(e.depth, parent->depth + 1) << phase;
      EXPECT_GE(e.t0_ns, last_start) << phase << " out of order";
      EXPECT_LE(e.t1_ns, parent->t1_ns) << phase;
      last_start = e.t0_ns;
    }
    EXPECT_EQ(seen, 1) << phase;
  }
#else
  // The macros compile to nothing: no spans, no counts.
  EXPECT_TRUE(events.empty());
  for (const std::uint64_t d : delta) EXPECT_EQ(d, 0u);
  EXPECT_GT(result.num_qpoints, 0u);
#endif
}

}  // namespace
}  // namespace octgb::surface
