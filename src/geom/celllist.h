// celllist.h -- uniform-grid spatial hashing over a fixed point set.
//
// Used by the surface pipeline (density evaluation near the iso-surface)
// and by the nblist baselines (Amber/Gromacs-style neighbor search). This
// is the "traditional" structure the paper contrasts the octree against:
// note that *queries* scale with cutoff^3, which is exactly the behaviour
// the nonbonded-list baselines are meant to exhibit.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geom/aabb.h"
#include "src/geom/vec3.h"

namespace octgb::geom {

/// Buckets a point set into cubic cells of edge `cell_size`. Points are
/// stored in cell order (CSR): the cells of one (y, z) row are adjacent
/// in the linear cell index, so a query scans one contiguous slice of
/// points per row instead of one slice per cell.
class CellList {
 public:
  CellList() = default;

  CellList(std::span<const Vec3> points, double cell_size)
      : cell_size_(cell_size) {
    if (points.empty()) return;
    for (const auto& p : points) bounds_.extend(p);
    // One cell of padding so neighbor loops never index out of range.
    origin_ = bounds_.lo - Vec3{cell_size, cell_size, cell_size};
    const Vec3 span = bounds_.hi - origin_;
    nx_ = static_cast<int>(span.x / cell_size) + 2;
    ny_ = static_cast<int>(span.y / cell_size) + 2;
    nz_ = static_cast<int>(span.z / cell_size) + 2;

    const std::size_t ncells =
        static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) *
        static_cast<std::size_t>(nz_);
    cell_start_.assign(ncells + 1, 0);
    std::vector<std::uint32_t> cell_of(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      cell_of[i] = cell_index(points[i]);
      ++cell_start_[cell_of[i] + 1];
    }
    for (std::size_t c = 0; c < ncells; ++c) {
      cell_start_[c + 1] += cell_start_[c];
    }
    // Stable scatter: within a cell, points keep their input order.
    ids_.resize(points.size());
    points_.resize(points.size());
    std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                      cell_start_.end() - 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint32_t k = cursor[cell_of[i]]++;
      ids_[k] = static_cast<std::uint32_t>(i);
      points_[k] = points[i];
    }
  }

  std::size_t size() const { return points_.size(); }
  double cell_size() const { return cell_size_; }

  /// Calls fn(point_id, point) for every stored point within `radius`
  /// of `q` (inclusive), cell by cell in linear cell order and in input
  /// order within a cell. `radius` may exceed the cell size; the loop
  /// visits ceil(radius/cell)^3 cells -- the cubic cutoff growth the
  /// nblist baselines exhibit by construction.
  template <typename Fn>
  void for_each_within(const Vec3& q, double radius, Fn&& fn) const {
    if (points_.empty()) return;
    const double r2 = radius * radius;
    const int reach = static_cast<int>(std::ceil(radius / cell_size_));
    const int cx = coord(q.x - origin_.x), cy = coord(q.y - origin_.y),
              cz = coord(q.z - origin_.z);
    const int x0 = std::max(0, cx - reach);
    const int x1 = std::min(nx_ - 1, cx + reach);
    if (x0 > x1) return;
    for (int z = std::max(0, cz - reach); z <= std::min(nz_ - 1, cz + reach);
         ++z) {
      for (int y = std::max(0, cy - reach);
           y <= std::min(ny_ - 1, cy + reach); ++y) {
        // Cells x0..x1 of this row are consecutive, so their points
        // form one slice.
        const std::uint32_t end = cell_start_[linear(x1, y, z) + 1];
        for (std::uint32_t k = cell_start_[linear(x0, y, z)]; k < end; ++k) {
          if (distance2(points_[k], q) <= r2) fn(ids_[k], points_[k]);
        }
      }
    }
  }

 private:
  int coord(double offset) const {
    const int c = static_cast<int>(offset / cell_size_);
    return c;
  }
  std::uint32_t cell_index(const Vec3& p) const {
    return static_cast<std::uint32_t>(
        linear(coord(p.x - origin_.x), coord(p.y - origin_.y),
               coord(p.z - origin_.z)));
  }
  std::size_t linear(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }

  std::vector<Vec3> points_;        // cell order
  std::vector<std::uint32_t> ids_;  // input index of points_[k]
  double cell_size_ = 1.0;
  Aabb bounds_;
  Vec3 origin_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::uint32_t> cell_start_;
};

}  // namespace octgb::geom
