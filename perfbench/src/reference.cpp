#include "reference.h"

#include <cmath>
#include <numbers>

namespace perfbench {

namespace {

constexpr double kEpsSolvent = 80.0;
constexpr double kCoulomb = 332.0636;

/// Neumaier-compensated running sum.
class CompensatedSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    comp_ += std::abs(sum_) >= std::abs(x) ? (sum_ - t) + x : (x - t) + sum_;
    sum_ = t;
  }
  double value() const { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

}  // namespace

double exact_born_radius(const octgb::molecule::Molecule& mol, std::size_t i,
                         const QPoints& q) {
  const octgb::geom::Vec3 x = mol.positions()[i];
  CompensatedSum sum;
  for (std::size_t k = 0; k < q.points.size(); ++k) {
    const double dx = q.points[k].x - x.x;
    const double dy = q.points[k].y - x.y;
    const double dz = q.points[k].z - x.z;
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double dot =
        dx * q.normals[k].x + dy * q.normals[k].y + dz * q.normals[k].z;
    sum.add(q.weights[k] * dot / (r2 * r2 * r2));
  }
  const double s = sum.value() / (4.0 * std::numbers::pi);
  const double intrinsic = mol.radii()[i];
  if (!(s > 0.0)) return intrinsic;
  return std::max(intrinsic, std::pow(s, -1.0 / 3.0));
}

std::vector<double> exact_born_radii(const octgb::molecule::Molecule& mol,
                                     const QPoints& q) {
  std::vector<double> radii(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    radii[i] = exact_born_radius(mol, i, q);
  }
  return radii;
}

double exact_epol(const octgb::molecule::Molecule& mol,
                  std::span<const double> born_radii) {
  const auto pos = mol.positions();
  const auto charge = mol.charges();
  const std::size_t n = mol.size();
  CompensatedSum sum;
  for (std::size_t i = 0; i < n; ++i) {
    CompensatedSum row;
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pos[i].x - pos[j].x;
      const double dy = pos[i].y - pos[j].y;
      const double dz = pos[i].z - pos[j].z;
      const double r2 = dx * dx + dy * dy + dz * dz;
      const double rr = born_radii[i] * born_radii[j];
      const double f = std::sqrt(r2 + rr * std::exp(-r2 / (4.0 * rr)));
      row.add(charge[i] * charge[j] / f);
    }
    sum.add(row.value());
  }
  const double tau = 1.0 - 1.0 / kEpsSolvent;
  return -0.5 * tau * kCoulomb * sum.value();
}

double mean_rel_err(std::span<const double> radii,
                    std::span<const double> ref,
                    std::span<const std::size_t> atoms) {
  double sum = 0.0;
  for (const std::size_t i : atoms) {
    sum += std::abs(radii[i] - ref[i]) / ref[i];
  }
  return atoms.empty() ? 0.0 : sum / static_cast<double>(atoms.size());
}

}  // namespace perfbench
