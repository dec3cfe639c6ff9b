// reference.h -- the benchmark's own exact reference, written from the
// paper's equations without calling into src/gb:
//
//   Eq. (4)  1/R_i^3 = (1/4pi) sum_q w_q (p_q - x_i).n_q / |p_q - x_i|^6,
//            R_i = max(r_i, (that sum)^(-1/3)), r_i when the sum is <= 0;
//   Eq. (2)  E = -(tau/2) k sum_{i,j} q_i q_j / f_GB(i, j),
//            f_GB = sqrt(r_ij^2 + R_i R_j exp(-r_ij^2 / (4 R_i R_j))),
//            over all ordered pairs, i == j included (f_GB(i, i) = R_i).
//
// Sums are compensated (Neumaier), so the reference is exact to a few
// ulps of the result rather than carrying the accumulation error of a
// plain loop. Single-threaded by design.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/geom/vec3.h"
#include "src/molecule/molecule.h"

namespace perfbench {

/// The q-point set the reference integrates over (positions, unit
/// normals, weights), as plain arrays.
struct QPoints {
  std::span<const octgb::geom::Vec3> points;
  std::span<const octgb::geom::Vec3> normals;
  std::span<const double> weights;
};

/// Exact r^6 Born radius of atom `i` of `mol` over `q` (Eq. 4).
double exact_born_radius(const octgb::molecule::Molecule& mol, std::size_t i,
                         const QPoints& q);

/// Exact r^6 Born radii of every atom.
std::vector<double> exact_born_radii(const octgb::molecule::Molecule& mol,
                                     const QPoints& q);

/// Exact STILL polarization energy (Eq. 2) in kcal/mol, with
/// eps_solvent = 80 and k = 332.0636 kcal A / (mol e^2).
double exact_epol(const octgb::molecule::Molecule& mol,
                  std::span<const double> born_radii);

/// Mean over `atoms` of |R - R_ref| / R_ref.
double mean_rel_err(std::span<const double> radii,
                    std::span<const double> ref,
                    std::span<const std::size_t> atoms);

}  // namespace perfbench
