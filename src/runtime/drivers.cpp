#include "src/runtime/drivers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/naive.h"
#include "src/parallel/det_reduce.h"
#include "src/runtime/partition.h"
#include "src/telemetry/telemetry.h"
#include "src/util/fastmath.h"
#include "src/util/log.h"
#include "src/util/timer.h"

namespace octgb::runtime {

namespace {

/// Even partition of n items over P ranks: rank r gets [lo, hi).
std::pair<std::size_t, std::size_t> partition(std::size_t n, int ranks,
                                              int rank) {
  const std::size_t p = static_cast<std::size_t>(ranks);
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t base = n / p, extra = n % p;
  const std::size_t lo = r * base + std::min(r, extra);
  const std::size_t hi = lo + base + (r < extra ? 1 : 0);
  return {lo, hi};
}

std::size_t estimate_data_bytes(const molecule::Molecule& mol,
                                const surface::QuadratureSurface& surf,
                                const gb::BornOctrees& trees) {
  const std::size_t mol_bytes =
      mol.size() * (sizeof(geom::Vec3) + 2 * sizeof(double) + 1);
  const std::size_t surf_bytes =
      surf.size() * (2 * sizeof(geom::Vec3) + sizeof(double));
  const std::size_t tree_bytes =
      trees.atoms.memory_bytes() + trees.qpoints.memory_bytes() +
      trees.q_weighted_normal.size() * sizeof(geom::Vec3);
  const std::size_t workspace_bytes =
      (trees.atoms.num_nodes() + trees.atoms.num_points() + mol.size()) *
      sizeof(double);
  return mol_bytes + surf_bytes + tree_bytes + workspace_bytes;
}

struct PhaseTimes {
  double surface = 0.0, tree = 0.0, born = 0.0, epol = 0.0, total = 0.0;
};

}  // namespace

DriverResult run_oct_cilk(const molecule::Molecule& mol, int threads,
                          const gb::CalculatorParams& params) {
  DriverResult result;
  util::WallTimer total;
  OCTGB_TRACE_SCOPE("driver/oct_cilk");
  parallel::WorkStealingPool pool(threads);

  // The immediately-invoked lambdas exist to scope the phase spans;
  // they inline away and are present in both telemetry configurations.
  util::WallTimer timer;
  const surface::QuadratureSurface surf = [&] {
    OCTGB_TRACE_SCOPE("driver/surface");
    return surface::build_surface(mol, params.surface, &pool);
  }();
  result.num_qpoints = surf.size();
  result.t_surface = timer.seconds();

  timer.restart();
  const gb::BornOctrees trees = [&] {
    OCTGB_TRACE_SCOPE("driver/tree_build");
    return gb::build_born_octrees(mol, surf, params.octree, &pool);
  }();
  result.t_tree_build = timer.seconds();

  timer.restart();
  gb::BornRadiiResult born = [&] {
    OCTGB_TRACE_SCOPE("driver/born");
    return gb::born_radii_dualtree(trees, mol, surf, params.approx, &pool);
  }();
  result.t_born = timer.seconds();

  timer.restart();
  const gb::EpolResult epol = [&] {
    OCTGB_TRACE_SCOPE("driver/epol");
    return gb::epol_dualtree(trees.atoms, mol, born.radii, params.approx,
                             params.physics, &pool);
  }();
  result.t_epol = timer.seconds();

  result.energy = epol.energy;
  result.born_radii = std::move(born.radii);
  result.t_total = total.seconds();
  // One address space: a single copy of the data.
  result.data_bytes_per_rank = estimate_data_bytes(mol, surf, trees);
  return result;
}

DriverResult run_distributed(const molecule::Molecule& mol,
                             const DriverConfig& config) {
  const int P = std::max(1, config.num_ranks);
  const int p = std::max(1, config.threads_per_rank);
  util::log_debug("run_distributed: ", mol.size(), " atoms, P=", P,
                  " p=", p, (config.distribute_qpoints ? ", q-distributed"
                                                       : ""));
  DriverResult result;
  util::WallTimer total_timer;

  // Shared immutable inputs (used when replicate_data == false). Built
  // up front so construction cost is attributed to the surface/tree
  // phases exactly once, matching the paper's treatment of octree
  // construction as preprocessing (Section IV-C, step 1).
  std::optional<surface::QuadratureSurface> shared_surf;
  std::optional<gb::BornOctrees> shared_trees;
  util::WallTimer phase_timer;
  if (config.distribute_qpoints) {
    // Data-distributed runs share only the atoms octree; the surface is
    // generated in per-rank slices inside the SPMD section.
    OCTGB_TRACE_SCOPE("driver/tree_build");
    shared_trees.emplace();
    shared_trees->atoms = octree::Octree(mol.positions(), config.params.octree);
    result.t_tree_build = phase_timer.seconds();
  } else if (!config.replicate_data) {
    {
      OCTGB_TRACE_SCOPE("driver/surface");
      shared_surf.emplace(surface::build_surface(mol, config.params.surface));
    }
    result.t_surface = phase_timer.seconds();
    phase_timer.restart();
    {
      OCTGB_TRACE_SCOPE("driver/tree_build");
      shared_trees.emplace(
          gb::build_born_octrees(mol, *shared_surf, config.params.octree));
    }
    result.t_tree_build = phase_timer.seconds();
  }

  std::vector<PhaseTimes> times(static_cast<std::size_t>(P));
  std::vector<double> final_radii(mol.size(), 0.0);
  // Written by rank 0 only, read after simmpi::run joins every rank
  // thread (join gives the happens-before); no atomic needed, and a
  // float atomic would trip detlint's shared-float-accum rule.
  double final_energy = 0.0;
  std::atomic<std::size_t> qpoints{0};
  std::atomic<std::size_t> data_bytes{0};

  const auto ledgers = simmpi::run(P, config.cost, [&](simmpi::Comm& comm) {
    OCTGB_TRACE_SCOPE("driver/rank");
    const int r = comm.rank();
    PhaseTimes& t = times[static_cast<std::size_t>(r)];
    util::WallTimer rank_timer;

    // Per-rank worker pool, created before step 1 so the rank-local
    // tree builds can use it too (the paper's hybrid layout: P ranks
    // times p workers).
    std::optional<parallel::WorkStealingPool> pool;
    if (p > 1) pool.emplace(p);
    parallel::WorkStealingPool* pool_ptr = pool ? &*pool : nullptr;

    // Step 1: every rank owns (a copy of) the data structures.
    std::optional<surface::QuadratureSurface> local_surf;
    std::optional<gb::BornOctrees> local_trees;
    if (config.distribute_qpoints) {
      // Generate only this rank's slice of the surface and a private
      // q-point octree over it; reuse the shared atoms octree.
      util::WallTimer timer;
      {
        OCTGB_TRACE_SCOPE("driver/surface");
        const auto [slo, shi] = partition(mol.size(), P, r);
        local_surf.emplace(surface::sphere_sampled_surface_slice(
            mol, config.params.surface.sphere_points,
            config.params.surface.sphere_probe, slo, shi));
      }
      t.surface = timer.seconds();
      timer.restart();
      OCTGB_TRACE_SCOPE("driver/tree_build");
      local_trees.emplace();
      local_trees->atoms = shared_trees->atoms;  // replicated (small)
      local_trees->qpoints = octree::Octree(local_surf->points,
                                            config.params.octree, pool_ptr);
      local_trees->q_weighted_normal = gb::q_weighted_normals(
          local_trees->qpoints, *local_surf, pool_ptr);
      t.tree = timer.seconds();
    } else if (config.replicate_data) {
      util::WallTimer timer;
      {
        OCTGB_TRACE_SCOPE("driver/surface");
        local_surf.emplace(
            surface::build_surface(mol, config.params.surface));
      }
      t.surface = timer.seconds();
      timer.restart();
      {
        OCTGB_TRACE_SCOPE("driver/tree_build");
        local_trees.emplace(gb::build_born_octrees(
            mol, *local_surf, config.params.octree, pool_ptr));
      }
      t.tree = timer.seconds();
    }
    const bool rank_local = config.distribute_qpoints || config.replicate_data;
    const surface::QuadratureSurface& surf =
        rank_local ? *local_surf : *shared_surf;
    const gb::BornOctrees& trees =
        rank_local ? *local_trees : *shared_trees;
    if (config.distribute_qpoints) {
      qpoints.fetch_add(surf.size());
      if (r == 0) data_bytes.store(estimate_data_bytes(mol, surf, trees));
    } else if (r == 0) {
      qpoints.store(surf.size());
      data_bytes.store(estimate_data_bytes(mol, surf, trees));
    }

    // Step 2: APPROX-INTEGRALS over this rank's q-leaves. In the
    // data-distributed mode the private q-tree *is* the segment; in the
    // replicated modes the shared tree's leaves are divided statically.
    // Each call builds the rank-local plan of its leaf range (and step
    // 6's approx_epol that of its v-leaves), so no rank traverses the
    // other ranks' share of Figure 4's work.
    util::WallTimer timer;
    gb::BornWorkspace ws(trees);
    {
      OCTGB_TRACE_SCOPE("driver/approx_integrals");
      if (config.distribute_qpoints) {
        gb::approx_integrals(trees, mol, surf, 0,
                             trees.qpoints.num_leaves(),
                             config.params.approx, ws, pool_ptr);
      } else {
        const auto [qlo, qhi] = partition(trees.qpoints.num_leaves(), P, r);
        gb::approx_integrals(trees, mol, surf, qlo, qhi,
                             config.params.approx, ws, pool_ptr);
      }
    }

    // Step 3: merge partial integrals (MPI_Allreduce).
    {
      OCTGB_TRACE_SCOPE("driver/allreduce");
      comm.all_reduce_sum(std::span<double>(ws.node_s));
      comm.all_reduce_sum(std::span<double>(ws.atom_s));
    }

    // Step 4: PUSH-INTEGRALS for this rank's atom segment.
    std::vector<double> radii(mol.size(), 0.0);
    const auto [alo, ahi] = partition(mol.size(), P, r);
    {
      OCTGB_TRACE_SCOPE("driver/push_integrals");
      gb::push_integrals_to_atoms(trees, mol, ws, alo, ahi,
                                  config.params.approx, radii, pool_ptr);
    }

    // Step 5: gather everyone's Born radii (disjoint segments, so an
    // element-wise sum is an allgather).
    {
      OCTGB_TRACE_SCOPE("driver/allreduce");
      comm.all_reduce_sum(std::span<double>(radii));
    }
    t.born = timer.seconds();

    // Step 6: E_pol over this rank's leaf (or atom) segment.
    timer.restart();
    double partial = 0.0;
    {
      OCTGB_TRACE_SCOPE("driver/approx_epol");
      const gb::ChargeBins bins = gb::build_charge_bins(
          trees.atoms, mol.charges(), radii, config.params.approx.eps_epol);
      if (config.division == WorkDivision::kNodeNode) {
        const auto [llo, lhi] = partition(trees.atoms.num_leaves(), P, r);
        partial = gb::approx_epol(trees.atoms, mol, bins, radii, llo, lhi,
                                  config.params.approx, pool_ptr);
      } else if (config.division == WorkDivision::kNodeNodeWeighted) {
        // Balance by per-leaf atom count (the dominant epol cost factor).
        std::vector<double> costs;
        costs.reserve(trees.atoms.num_leaves());
        for (const auto leaf : trees.atoms.leaves()) {
          costs.push_back(
              static_cast<double>(trees.atoms.node(leaf).count()));
        }
        const auto bounds = weighted_boundaries(costs, P);
        partial = gb::approx_epol(
            trees.atoms, mol, bins, radii,
            bounds[static_cast<std::size_t>(r)],
            bounds[static_cast<std::size_t>(r) + 1], config.params.approx,
            pool_ptr);
      } else if (config.division == WorkDivision::kDynamicChunks) {
        partial = approx_epol_dynamic(comm, trees.atoms, mol, bins, radii,
                                      config.params.approx, pool_ptr);
      } else {
        partial = approx_epol_atom_division(trees.atoms, mol, bins, radii,
                                            alo, ahi, config.params.approx,
                                            pool_ptr);
      }
    }

    // Step 7: accumulate the final energy.
    std::vector<double> acc{partial};
    {
      OCTGB_TRACE_SCOPE("driver/allreduce");
      comm.all_reduce_sum(std::span<double>(acc));
    }
    t.epol = timer.seconds();
    t.total = rank_timer.seconds();

    if (r == 0) {
      final_energy = -0.5 * config.params.physics.tau() *
                     config.params.physics.coulomb_k * acc[0];
      std::copy(radii.begin(), radii.end(), final_radii.begin());
    }
  });

  for (const auto& t : times) {
    result.t_surface = std::max(result.t_surface, t.surface);
    result.t_tree_build = std::max(result.t_tree_build, t.tree);
    result.t_born = std::max(result.t_born, t.born);
    result.t_epol = std::max(result.t_epol, t.epol);
  }
  result.t_total = total_timer.seconds();
  result.energy = final_energy;
  result.born_radii = std::move(final_radii);
  result.num_qpoints = qpoints.load();
  result.data_bytes_per_rank = data_bytes.load();
  for (const auto& led : ledgers) {
    result.modeled_comm_seconds =
        std::max(result.modeled_comm_seconds, led.modeled_seconds);
    result.comm_bytes += led.p2p_bytes + led.collective_bytes;
  }
  return result;
}

double approx_epol_dynamic(simmpi::Comm& comm, const octree::Octree& tree,
                           const molecule::Molecule& mol,
                           const gb::ChargeBins& bins,
                           std::span<const double> born_radii,
                           const gb::ApproxParams& params,
                           parallel::WorkStealingPool* pool,
                           std::size_t chunk) {
  constexpr int kTagRequest = 0x5e1f;
  constexpr int kTagChunk = 0x5e20;
  const int P = comm.size();
  const std::size_t n = tree.num_leaves();
  if (P == 1) {
    // Degenerate world: nobody to serve; compute everything locally.
    return gb::approx_epol(tree, mol, bins, born_radii, 0, n, params,
                           pool);
  }
  if (chunk == 0) {
    chunk = n / (8 * static_cast<std::size_t>(P - 1)) + 1;
  }

  if (comm.rank() == 0) {
    // Chunk server: hand out [lo, hi) leaf ranges on request, then a
    // [0, 0) sentinel per worker. The master computes nothing -- the
    // classic master-worker tradeoff (one rank of compute buys
    // automatic load balance across the rest).
    std::size_t next = 0;
    int retired = 0;
    while (retired < P - 1) {
      std::uint64_t req = 0;
      const int src = comm.recv_any(
          std::span<std::uint64_t>(&req, 1), kTagRequest);
      std::uint64_t range[2];
      if (next < n) {
        range[0] = next;
        range[1] = std::min(n, next + chunk);
        next = range[1];
      } else {
        range[0] = range[1] = 0;  // sentinel
        ++retired;
      }
      comm.send(std::span<const std::uint64_t>(range, 2), src, kTagChunk);
    }
    return 0.0;
  }

  // Worker: request-compute loop.
  double sum = 0.0;
  for (;;) {
    const std::uint64_t req = 1;
    comm.send(std::span<const std::uint64_t>(&req, 1), 0, kTagRequest);
    std::uint64_t range[2];
    comm.recv(std::span<std::uint64_t>(range, 2), 0, kTagChunk);
    if (range[0] == range[1]) break;
    sum += gb::approx_epol(tree, mol, bins, born_radii, range[0], range[1],
                           params, pool);
  }
  return sum;
}

namespace {

// Raw kernel sum of one pseudo-leaf (sorted atom positions [begin, end))
// against the whole tree. The pseudo-leaf's center, radius and charge
// bins are recomputed from its sub-range: this is what makes the
// approximation depend on the division boundaries (the error-vs-P effect
// of Section IV-A). It is no tree node, so the plan builder -- whose
// E_pol targets are leaf ordinals -- cannot encode it; the walk below is
// Figure 3's, with the kernels of kernel_primitives.h.
template <typename Math>
double pseudo_leaf_sum(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       const gb::ChargeBins& bins,
                       std::span<const double> born_radii,
                       std::size_t begin, std::size_t end, double far_mult) {
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  geom::Vec3 center;
  for (std::size_t ai = begin; ai < end; ++ai) {
    center += positions[index[ai]];
  }
  center /= static_cast<double>(end - begin);
  double rad2 = 0.0;
  std::vector<double> vrow(static_cast<std::size_t>(bins.num_bins), 0.0);
  for (std::size_t ai = begin; ai < end; ++ai) {
    const auto a = index[ai];
    rad2 = std::max(rad2, geom::distance2(center, positions[a]));
    vrow[static_cast<std::size_t>(bins.bin_of(born_radii[a]))] += charges[a];
  }
  const double v_radius = std::sqrt(rad2);
  std::vector<int> v_nz;  // non-empty bins of vrow, ascending
  for (int k = 0; k < bins.num_bins; ++k) {
    if (vrow[static_cast<std::size_t>(k)] != 0.0) v_nz.push_back(k);  // lint:allow(float-eq) empty charge bin, stored exact
  }

  double sum = 0.0;
  std::uint32_t stack[256];
  int top = 0;
  stack[top++] = tree.root_index();
  while (top > 0) {
    const std::uint32_t u_idx = stack[--top];
    const auto& u_node = tree.node(u_idx);
    if (u_node.leaf) {
      // Exact ordered pairs (u anywhere in leaf U, v in pseudo-range).
      for (std::size_t vi = begin; vi < end; ++vi) {
        const auto v = index[vi];
        const geom::Vec3 pv = positions[v];
        const double qv = charges[v];
        const double rv = born_radii[v];
        for (std::uint32_t ui = u_node.begin; ui < u_node.end; ++ui) {
          const auto u = index[ui];
          if (u == v) {
            sum += gb::fgb_self_term(qv, rv);
            continue;
          }
          sum += gb::fgb_term<Math>(charges[u], qv,
                                    geom::distance2(positions[u], pv),
                                    born_radii[u] * rv);
        }
      }
      continue;
    }
    const double s = (u_node.radius + v_radius) * far_mult;
    const double d2 = geom::distance2(u_node.center, center);
    if (d2 > s * s && d2 > 0.0) {
      for (std::uint32_t ki = bins.nz_offset[u_idx];
           ki < bins.nz_offset[u_idx + 1]; ++ki) {
        const int i = bins.nz_bin[ki];
        const double ri = bins.bin_radius[static_cast<std::size_t>(i)];
        for (const int j : v_nz) {
          sum += gb::fgb_term<Math>(
              bins.at(u_idx, i), vrow[static_cast<std::size_t>(j)], d2,
              ri * bins.bin_radius[static_cast<std::size_t>(j)]);
        }
      }
      continue;
    }
    for (const auto child : u_node.children) {
      if (child != octree::Node::kInvalid) stack[top++] = child;
    }
  }
  return sum;
}

}  // namespace

double approx_epol_atom_division(const octree::Octree& tree,
                                 const molecule::Molecule& mol,
                                 const gb::ChargeBins& bins,
                                 std::span<const double> born_radii,
                                 std::size_t atom_begin,
                                 std::size_t atom_end,
                                 const gb::ApproxParams& params,
                                 parallel::WorkStealingPool* pool) {
  if (tree.empty() || atom_begin >= atom_end) return 0.0;
  atom_end = std::min(atom_end, tree.num_points());
  const double far_mult = 1.0 + 2.0 / params.eps_epol;

  // Pseudo-leaves: intersect each octree leaf with [atom_begin, atom_end).
  std::vector<std::pair<std::size_t, std::size_t>> pseudo;
  for (const auto leaf_idx : tree.leaves()) {
    const auto& leaf = tree.node(leaf_idx);
    const std::size_t lo = std::max<std::size_t>(leaf.begin, atom_begin);
    const std::size_t hi = std::min<std::size_t>(leaf.end, atom_end);
    if (lo < hi) pseudo.emplace_back(lo, hi);
  }
  const auto one = [&](std::size_t i) {
    const auto [lo, hi] = pseudo[i];
    return params.approx_math
               ? pseudo_leaf_sum<util::ApproxMath>(tree, mol, bins,
                                                   born_radii, lo, hi,
                                                   far_mult)
               : pseudo_leaf_sum<util::ExactMath>(tree, mol, bins,
                                                  born_radii, lo, hi,
                                                  far_mult);
  };

  // Fixed reduction order (ascending pseudo-leaf index): bit-identical
  // to the serial loop at any worker count (see det_reduce.h).
  if (pool != nullptr) {
    double total = 0.0;
    pool->run([&] {
      total = parallel::deterministic_sum(pool, 0, pseudo.size(), one);
    });
    return total;
  }
  return parallel::deterministic_sum(nullptr, 0, pseudo.size(), one);
}

}  // namespace octgb::runtime
