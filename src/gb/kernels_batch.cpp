#include "src/gb/kernels_batch.h"

#include <functional>

#include "src/analysis/contracts.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/kernels_batch_simd.h"
#include "src/telemetry/telemetry.h"
#include "src/util/env.h"
#include "src/util/fastmath.h"

namespace octgb::gb {

namespace {

bool cpu_has_avx2_fma() {
#if defined(OCTGB_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// Runs the chunks of one plan list: serially in chunk order without a
// pool, as parallel tasks of one chunk each with a pool. Chunks own
// whole targets, so both give the same bits. `body(b, e)` processes
// items [b, e).
void run_chunks(parallel::WorkStealingPool* pool,
                const std::vector<std::uint32_t>& chunks,
                const std::function<void(std::uint32_t, std::uint32_t)>&
                    body) {
  if (chunks.size() < 2) return;
  const std::size_t n = chunks.size() - 1;
  if (pool == nullptr) {
    for (std::size_t c = 0; c < n; ++c) body(chunks[c], chunks[c + 1]);
    return;
  }
  pool->run([&] {
    parallel::parallel_for(*pool, 0, n, 1,
                           [&](std::size_t lo, std::size_t hi) {
                             // Worker-side span; the serial path above
                             // stays unspanned so the pool-free replay
                             // configuration keeps an untouched hot
                             // loop.
                             OCTGB_TRACE_SCOPE("gb/kernel_chunk");
                             for (std::size_t c = lo; c < hi; ++c) {
                               body(chunks[c], chunks[c + 1]);
                             }
                           });
  });
}

template <typename Math>
double epol_row_scalar(const EpolSoA& soa, std::uint32_t ub,
                       std::uint32_t ue, double px, double py, double pz,
                       double qv, double rv) {
  double sum = 0.0;
  for (std::uint32_t ui = ub; ui < ue; ++ui) {
    const geom::Vec3 d{soa.x[ui] - px, soa.y[ui] - py, soa.z[ui] - pz};
    sum += fgb_term<Math>(soa.q[ui], qv, d.norm2(), soa.born[ui] * rv);
  }
  return sum;
}

// Exact kernel contributions of q-leaf Q to every atom of atom-leaf A.
template <int Power>
void exact_leaf_pair(const BornInputs& in, const octree::Node& a_node,
                     const octree::Node& q_node, BornWorkspace& ws) {
  const auto a_index = in.atoms.point_index();
  const auto q_index = in.qpoints.point_index();
  const auto positions = in.mol.positions();
  for (std::uint32_t ai = a_node.begin; ai < a_node.end; ++ai) {
    const std::uint32_t a = a_index[ai];
    const geom::Vec3 x = positions[a];
    double acc = 0.0;
    for (std::uint32_t qi = q_node.begin; qi < q_node.end; ++qi) {
      const std::uint32_t q = q_index[qi];
      acc += born_term<Power>(in.surf.points[q], in.surf.normals[q],
                              in.surf.weights[q], x);
    }
    ws.atom_s[a] += acc;
  }
}

// Far-field monopole deposits of born_far items [b, e): each target's
// run is summed in a register seeded with its node_s slot, which sees
// the same sequence of additions as one deposit per item. Recomputes
// the distance expression the traversal classified with.
template <int Power>
void far_deposits(const BornInputs& in, const InteractionPlan& plan,
                  std::uint32_t b, std::uint32_t e, BornWorkspace& ws) {
  std::uint32_t i = b;
  while (i < e) {
    const std::uint32_t a_idx = plan.born_far[i].target;
    const geom::Vec3 a_center = in.atoms.node(a_idx).center;
    double acc = ws.node_s[a_idx];
    for (; i < e && plan.born_far[i].target == a_idx; ++i) {
      const std::uint32_t q_idx = plan.born_far[i].source;
      const geom::Vec3& q_center = in.qpoints.node(q_idx).center;
      const double d2 = geom::distance2(a_center, q_center);
      const geom::Vec3 diff = q_center - a_center;
      acc += in.q_normals[q_idx].dot(diff) * inv_pow<Power>(d2);
    }
    ws.node_s[a_idx] = acc;
  }
}

// Off-diagonal STILL kernel of leaf V's atom (pv, qv, rv) against the
// sorted atom positions [ui_begin, ui_end) of leaf U. Branch-free: the
// caller has already excluded the u == v diagonal by construction.
template <typename Math>
double exact_row(const octree::Octree& tree, const molecule::Molecule& mol,
                 std::span<const double> born_radii, std::uint32_t ui_begin,
                 std::uint32_t ui_end, const geom::Vec3& pv, double qv,
                 double rv) {
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  double sum = 0.0;
  for (std::uint32_t ui = ui_begin; ui < ui_end; ++ui) {
    const std::uint32_t u = index[ui];
    const double r2 = geom::distance2(positions[u], pv);
    const double rr = born_radii[u] * rv;
    sum += fgb_term<Math>(charges[u], qv, r2, rr);
  }
  return sum;
}

template <typename Math>
double exact_block(const octree::Octree& tree,
                   const molecule::Molecule& mol,
                   std::span<const double> born_radii,
                   const octree::Node& u_node, const octree::Node& v_node) {
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  // Distinct leaves own disjoint sorted ranges, so u == v can only occur
  // in the diagonal block where both nodes are the same leaf.
  const bool diagonal =
      u_node.begin == v_node.begin && u_node.end == v_node.end;
  double sum = 0.0;
  for (std::uint32_t vi = v_node.begin; vi < v_node.end; ++vi) {
    const std::uint32_t v = index[vi];
    const geom::Vec3 pv = positions[v];
    const double qv = charges[v];
    const double rv = born_radii[v];
    if (diagonal) {
      // Split around the self term so the pair loops stay branch-free
      // while preserving the reference summation order (u < v pairs,
      // then the diagonal, then u > v pairs).
      sum += exact_row<Math>(tree, mol, born_radii, u_node.begin, vi, pv,
                             qv, rv);
      sum += fgb_self_term(qv, rv);  // f_GB(i,i) = R_i
      sum += exact_row<Math>(tree, mol, born_radii, vi + 1, u_node.end, pv,
                             qv, rv);
    } else {
      sum += exact_row<Math>(tree, mol, born_radii, u_node.begin,
                             u_node.end, pv, qv, rv);
    }
  }
  return sum;
}

template <typename Math>
double far_block(const ChargeBins& bins, std::uint32_t u_idx,
                 std::uint32_t v_idx, double d2) {
  // Only non-empty bin combinations contribute; iterating the CSR lists
  // (ascending) skips the mostly-empty histogram rows.
  double sum = 0.0;
  const std::uint32_t u_lo = bins.nz_offset[u_idx];
  const std::uint32_t u_hi = bins.nz_offset[u_idx + 1];
  const std::uint32_t v_lo = bins.nz_offset[v_idx];
  const std::uint32_t v_hi = bins.nz_offset[v_idx + 1];
  for (std::uint32_t ki = u_lo; ki < u_hi; ++ki) {
    const int i = bins.nz_bin[ki];
    const double qu = bins.at(u_idx, i);
    const double ru = bins.bin_radius[static_cast<std::size_t>(i)];
    for (std::uint32_t kj = v_lo; kj < v_hi; ++kj) {
      const int j = bins.nz_bin[kj];
      const double qv = bins.at(v_idx, j);
      const double rr = ru * bins.bin_radius[static_cast<std::size_t>(j)];
      sum += fgb_term<Math>(qu, qv, d2, rr);
    }
  }
  return sum;
}

// Scalar engine's Born near field: every born_near item through
// exact_leaf_pair.
template <int Power>
void born_near_scalar(const BornInputs& in, const InteractionPlan& plan,
                      BornWorkspace& ws, parallel::WorkStealingPool* pool) {
  run_chunks(pool, plan.born_near_chunks,
             [&](std::uint32_t b, std::uint32_t e) {
               for (std::uint32_t i = b; i < e; ++i) {
                 const NodePair p = plan.born_near[i];
                 exact_leaf_pair<Power>(in, in.atoms.node(p.target),
                                        in.qpoints.node(p.source), ws);
               }
             });
}

}  // namespace

bool simd_compiled() {
#ifdef OCTGB_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool simd_available() {
  static const bool ok = cpu_has_avx2_fma();
  return ok;
}

bool simd_enabled() {
  return simd_available() && !util::env_flag("OCTGB_NO_SIMD");
}

BornSoA build_born_soa(const BornInputs& in) {
  BornSoA soa;
  const auto a_index = in.atoms.point_index();
  const auto positions = in.mol.positions();
  soa.ax.resize(a_index.size());
  soa.ay.resize(a_index.size());
  soa.az.resize(a_index.size());
  for (std::size_t i = 0; i < a_index.size(); ++i) {
    const geom::Vec3& p = positions[a_index[i]];
    soa.ax[i] = p.x;
    soa.ay[i] = p.y;
    soa.az[i] = p.z;
  }
  const auto q_index = in.qpoints.point_index();
  const surface::QuadratureSurface& surf = in.surf;
  soa.qx.resize(q_index.size());
  soa.qy.resize(q_index.size());
  soa.qz.resize(q_index.size());
  soa.qnx.resize(q_index.size());
  soa.qny.resize(q_index.size());
  soa.qnz.resize(q_index.size());
  soa.qw.resize(q_index.size());
  for (std::size_t i = 0; i < q_index.size(); ++i) {
    const std::uint32_t q = q_index[i];
    soa.qx[i] = surf.points[q].x;
    soa.qy[i] = surf.points[q].y;
    soa.qz[i] = surf.points[q].z;
    soa.qnx[i] = surf.normals[q].x;
    soa.qny[i] = surf.normals[q].y;
    soa.qnz[i] = surf.normals[q].z;
    soa.qw[i] = surf.weights[q];
  }
  return soa;
}

EpolSoA build_epol_soa(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii) {
  EpolSoA soa;
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  soa.x.resize(index.size());
  soa.y.resize(index.size());
  soa.z.resize(index.size());
  soa.q.resize(index.size());
  soa.born.resize(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    const std::uint32_t a = index[i];
    soa.x[i] = positions[a].x;
    soa.y[i] = positions[a].y;
    soa.z[i] = positions[a].z;
    soa.q[i] = charges[a];
    soa.born[i] = born_radii[a];
  }
  return soa;
}

double born_row(const BornSoA& soa, std::uint32_t qb, std::uint32_t qe,
                double x, double y, double z, bool use_simd) {
#ifdef OCTGB_SIMD_AVX2
  if (use_simd) {
    return simd::born_row_avx2(soa.qx.data(), soa.qy.data(),
                               soa.qz.data(), soa.qnx.data(),
                               soa.qny.data(), soa.qnz.data(),
                               soa.qw.data(), qb, qe, x, y, z);
  }
#else
  (void)use_simd;
#endif
  double sum = 0.0;
  for (std::uint32_t qi = qb; qi < qe; ++qi) {
    sum += born_term<6>({soa.qx[qi], soa.qy[qi], soa.qz[qi]},
                        {soa.qnx[qi], soa.qny[qi], soa.qnz[qi]},
                        soa.qw[qi], {x, y, z});
  }
  return sum;
}

double epol_row(const EpolSoA& soa, std::uint32_t ub, std::uint32_t ue,
                double px, double py, double pz, double qv, double rv,
                bool approx_math, bool use_simd) {
#ifdef OCTGB_SIMD_AVX2
  if (use_simd) {
    return simd::epol_row_avx2(soa.x.data(), soa.y.data(), soa.z.data(),
                               soa.q.data(), soa.born.data(), ub, ue, px,
                               py, pz, qv, rv, approx_math);
  }
#else
  (void)use_simd;
#endif
  return approx_math ? epol_row_scalar<util::ApproxMath>(soa, ub, ue, px,
                                                         py, pz, qv, rv)
                     : epol_row_scalar<util::ExactMath>(soa, ub, ue, px,
                                                        py, pz, qv, rv);
}

double epol_far_bins(const ChargeBins& bins, std::uint32_t u_node,
                     std::uint32_t v_node, double d2, bool approx_math,
                     bool use_simd) {
#ifdef OCTGB_SIMD_AVX2
  // Pack v's non-empty bins once, then stream them 4-wide per u bin.
  // Bin counts are capped at build_charge_bins' max_bins (default 256);
  // pathological caller-supplied caps fall back to the scalar kernel.
  constexpr std::uint32_t kMaxPack = 256;
  const std::uint32_t v_lo = bins.nz_offset[v_node];
  const std::uint32_t v_hi = bins.nz_offset[v_node + 1];
  const std::uint32_t nv = v_hi - v_lo;
  if (use_simd && nv <= kMaxPack) {
    double qv_packed[kMaxPack];
    double rv_packed[kMaxPack];
    for (std::uint32_t k = 0; k < nv; ++k) {
      const int j = bins.nz_bin[v_lo + k];
      qv_packed[k] = bins.at(v_node, j);
      rv_packed[k] = bins.bin_radius[static_cast<std::size_t>(j)];
    }
    double sum = 0.0;
    const std::uint32_t u_lo = bins.nz_offset[u_node];
    const std::uint32_t u_hi = bins.nz_offset[u_node + 1];
    for (std::uint32_t ki = u_lo; ki < u_hi; ++ki) {
      const int i = bins.nz_bin[ki];
      sum += simd::epol_far_row_avx2(
          qv_packed, rv_packed, nv, bins.at(u_node, i),
          bins.bin_radius[static_cast<std::size_t>(i)], d2, approx_math);
    }
    return sum;
  }
#else
  (void)use_simd;
#endif
  return epol_far_block(bins, u_node, v_node, d2, approx_math);
}

double epol_exact_block(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        std::uint32_t u_leaf, std::uint32_t v_leaf,
                        bool approx_math) {
  const octree::Node& u = tree.node(u_leaf);
  const octree::Node& v = tree.node(v_leaf);
  return approx_math
             ? exact_block<util::ApproxMath>(tree, mol, born_radii, u, v)
             : exact_block<util::ExactMath>(tree, mol, born_radii, u, v);
}

double epol_far_block(const ChargeBins& bins, std::uint32_t u_node,
                      std::uint32_t v_node, double d2, bool approx_math) {
  return approx_math
             ? far_block<util::ApproxMath>(bins, u_node, v_node, d2)
             : far_block<util::ExactMath>(bins, u_node, v_node, d2);
}

void execute_born_plan(const BornInputs& in, const InteractionPlan& plan,
                       BornKernel kernel, BornWorkspace& ws,
                       parallel::WorkStealingPool* pool, SimdMode mode) {
  OCTGB_TRACE_SCOPE("gb/born_kernels");
  // Dispatch preconditions: the chunk tables must span their pair lists
  // exactly, or run_chunks would silently skip (or overrun) work items.
  OCTGB_REQUIRE(plan.born_near_chunks.empty() ||
                    plan.born_near_chunks.back() == plan.born_near.size(),
                "born_near chunk table does not cover its pair list");
  OCTGB_REQUIRE(plan.born_far_chunks.empty() ||
                    plan.born_far_chunks.back() == plan.born_far.size(),
                "born_far chunk table does not cover its pair list");
  OCTGB_REQUIRE(in.mol.size() == in.atoms.num_points() &&
                    in.surf.points.size() == in.qpoints.num_points() &&
                    in.q_normals.size() == in.qpoints.num_nodes() &&
                    ws.node_s.size() == in.atoms.num_nodes() &&
                    ws.atom_s.size() == in.atoms.num_points(),
                "plan/tree built over different molecule or surface");
  // The SIMD rows implement the r^6 kernel only.
  const bool use_simd = kernel == BornKernel::kSurfaceR6 &&
                        mode == SimdMode::kAuto && simd_enabled();
#if defined(OCTGB_TELEMETRY_ENABLED)
  OCTGB_COUNTER_ADD("gb.born_near_pairs", plan.born_near.size());
  OCTGB_COUNTER_ADD("gb.born_far_pairs", plan.born_far.size());
  {
    // Row = one atom's accumulation against one near q-leaf; the pair
    // list is tiny next to the rows themselves, so this pass is cheap.
    std::uint64_t rows = 0;
    for (const NodePair p : plan.born_near) {
      rows += in.atoms.node(p.target).count();
    }
    if (use_simd) {
      OCTGB_COUNTER_ADD("gb.born_rows_simd", rows);
    } else {
      OCTGB_COUNTER_ADD("gb.born_rows_scalar", rows);
    }
  }
#endif
  if (use_simd) {
#ifdef OCTGB_SIMD_AVX2
    const BornSoA soa = build_born_soa(in);
    const auto a_index = in.atoms.point_index();
    run_chunks(pool, plan.born_near_chunks,
               [&](std::uint32_t b, std::uint32_t e) {
                 for (std::uint32_t i = b; i < e; ++i) {
                   const NodePair p = plan.born_near[i];
                   const octree::Node& a_node = in.atoms.node(p.target);
                   const octree::Node& q_node = in.qpoints.node(p.source);
                   for (std::uint32_t ai = a_node.begin; ai < a_node.end;
                        ++ai) {
                     ws.atom_s[a_index[ai]] += born_row(
                         soa, q_node.begin, q_node.end, soa.ax[ai],
                         soa.ay[ai], soa.az[ai], /*use_simd=*/true);
                   }
                 }
               });
#endif
  } else if (kernel == BornKernel::kSurfaceR4) {
    born_near_scalar<4>(in, plan, ws, pool);
  } else {
    born_near_scalar<6>(in, plan, ws, pool);
  }
  // Both engines deposit the far field through the scalar loop.
  run_chunks(pool, plan.born_far_chunks,
             [&](std::uint32_t b, std::uint32_t e) {
               if (kernel == BornKernel::kSurfaceR4) {
                 far_deposits<4>(in, plan, b, e, ws);
               } else {
                 far_deposits<6>(in, plan, b, e, ws);
               }
             });
}

double execute_epol_plan(const octree::Octree& tree,
                         const molecule::Molecule& mol,
                         const ChargeBins& bins,
                         std::span<const double> born_radii,
                         const InteractionPlan& plan, bool approx_math,
                         parallel::WorkStealingPool* pool, SimdMode mode) {
  if (tree.empty()) return 0.0;
  OCTGB_TRACE_SCOPE("gb/epol_kernels");
  OCTGB_REQUIRE(plan.epol_near_chunks.empty() ||
                    plan.epol_near_chunks.back() == plan.epol_near.size(),
                "epol_near chunk table does not cover its pair list");
  OCTGB_REQUIRE(plan.epol_far_chunks.empty() ||
                    plan.epol_far_chunks.back() == plan.epol_far.size(),
                "epol_far chunk table does not cover its pair list");
  OCTGB_REQUIRE(born_radii.size() == tree.num_points() &&
                    mol.size() == tree.num_points() &&
                    plan.scope.epol_end <= tree.num_leaves(),
                "born radii / molecule / plan mismatch with tree");
  const auto leaves = tree.leaves();
  // One near and one far accumulator per leaf V. Chunks never split a
  // v-leaf's items, so each slot has one writer and plain stores keep
  // the per-leaf sums in plan order at any worker count.
  std::vector<double> near_acc(leaves.size(), 0.0);
  std::vector<double> far_acc(leaves.size(), 0.0);
  const bool use_simd = mode == SimdMode::kAuto && simd_enabled();
#if defined(OCTGB_TELEMETRY_ENABLED)
  OCTGB_COUNTER_ADD("gb.epol_near_pairs", plan.epol_near.size());
  OCTGB_COUNTER_ADD("gb.epol_far_pairs", plan.epol_far.size());
  {
    std::uint64_t rows = 0;
    for (const NodePair p : plan.epol_near) {
      rows += tree.node(leaves[p.target]).count();
    }
    if (use_simd) {
      OCTGB_COUNTER_ADD("gb.epol_rows_simd", rows);
    } else {
      OCTGB_COUNTER_ADD("gb.epol_rows_scalar", rows);
    }
  }
#endif

#ifdef OCTGB_SIMD_AVX2
  if (use_simd) {
    // The whole U x V block crosses the TU boundary in one call; the
    // per-v-atom row loop (including the diagonal self-term split)
    // lives in the AVX2 TU so millions of leaf-sized rows don't pay a
    // call + broadcast setup each.
    const EpolSoA soa = build_epol_soa(tree, mol, born_radii);
    run_chunks(
        pool, plan.epol_near_chunks,
        [&](std::uint32_t b, std::uint32_t e) {
          for (std::uint32_t i = b; i < e; ++i) {
            const NodePair p = plan.epol_near[i];
            const octree::Node& u_node = tree.node(p.source);
            const octree::Node& v_node = tree.node(leaves[p.target]);
            const bool diagonal = u_node.begin == v_node.begin &&
                                  u_node.end == v_node.end;
            near_acc[p.target] += simd::epol_near_block_avx2(
                soa.x.data(), soa.y.data(), soa.z.data(), soa.q.data(),
                soa.born.data(), u_node.begin, u_node.end, v_node.begin,
                v_node.end, diagonal, approx_math);
          }
        });
  } else
#endif
  {
    run_chunks(pool, plan.epol_near_chunks,
               [&](std::uint32_t b, std::uint32_t e) {
                 for (std::uint32_t i = b; i < e; ++i) {
                   const NodePair p = plan.epol_near[i];
                   near_acc[p.target] +=
                       epol_exact_block(tree, mol, born_radii, p.source,
                                        leaves[p.target], approx_math);
                 }
               });
  }

  run_chunks(pool, plan.epol_far_chunks,
             [&](std::uint32_t b, std::uint32_t e) {
               for (std::uint32_t i = b; i < e; ++i) {
                 const NodePair p = plan.epol_far[i];
                 const octree::Node& u_node = tree.node(p.source);
                 const octree::Node& v_node = tree.node(leaves[p.target]);
                 // Same distance expression the traversal classified
                 // with.
                 const double d2 =
                     geom::distance2(u_node.center, v_node.center);
                 far_acc[p.target] +=
                     epol_far_bins(bins, p.source, leaves[p.target], d2,
                                   approx_math, use_simd);
               }
             });

  double sum = 0.0;
  for (std::size_t v = plan.scope.epol_begin; v < plan.scope.epol_end; ++v) {
    sum += near_acc[v] + far_acc[v];
  }
  return sum;
}

BornRadiiResult born_radii_batched(const BornOctrees& trees,
                                   const molecule::Molecule& mol,
                                   const surface::QuadratureSurface& surf,
                                   const InteractionPlan& plan,
                                   const ApproxParams& params,
                                   parallel::WorkStealingPool* pool,
                                   SimdMode mode) {
  return born_radii_batched(trees, mol, surf, plan, params,
                            BornKernel::kSurfaceR6, pool, mode);
}

BornRadiiResult born_radii_batched(const BornOctrees& trees,
                                   const molecule::Molecule& mol,
                                   const surface::QuadratureSurface& surf,
                                   const InteractionPlan& plan,
                                   const ApproxParams& params,
                                   BornKernel kernel,
                                   parallel::WorkStealingPool* pool,
                                   SimdMode mode) {
  BornWorkspace ws(trees);
  execute_born_plan(born_inputs(trees, mol, surf), plan, kernel, ws, pool,
                    mode);
  BornRadiiResult out;
  out.radii.assign(mol.size(), 0.0);
  push_integrals_to_atoms(trees, mol, ws, 0, mol.size(), params, kernel,
                          out.radii, pool);
  return out;
}

EpolResult epol_batched(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        const InteractionPlan& plan,
                        const ApproxParams& params, const Physics& physics,
                        parallel::WorkStealingPool* pool, SimdMode mode) {
  EpolResult out;
  if (tree.empty()) return out;
  const ChargeBins bins =
      build_charge_bins(tree, mol.charges(), born_radii, params.eps_epol);
  const double sum = execute_epol_plan(tree, mol, bins, born_radii, plan,
                                       params.approx_math, pool, mode);
  out.energy = -0.5 * physics.tau() * physics.coulomb_k * sum;
  return out;
}

}  // namespace octgb::gb
