// kernels_batch.h -- phase 2 of the GB execution engine.
//
// Evaluates an InteractionPlan (src/gb/interaction_lists.h); this is the
// only code that evaluates the single-tree Born and E_pol phases. Two
// engines share the plan:
//
//  * scalar: evaluates every work item through the blocks of
//    kernel_primitives.h. A serial scalar run sums every accumulator in
//    plan order, which is the visit order of Figures 2 and 3; its bits
//    are pinned by golden digests (tests/kernels_batch_test);
//  * SIMD: gathers atoms / q-points once into structure-of-arrays
//    scratch permuted to Morton order (tree.point_index()), then runs
//    4-wide AVX2+FMA row kernels over the contiguous leaf ranges of the
//    near lists and of the E_pol far bins. The approximate-math
//    functions (util/fastmath.h) are vectorized with lane-identical
//    algorithms, so per-element values match the scalar engine to
//    rounding and the reduction order differs (relative error ~1e-15,
//    asserted < 1e-10 by tests/kernels_batch_test). The SIMD rows are
//    r^6 only; the r^4 Born kernel runs the scalar engine. Born far
//    deposits run the scalar engine's loop in both engines: one
//    target's run is summed in one register.
//
// Engine selection is runtime: the AVX2 code is compiled into its own
// TU with -mavx2 -mfma (CMake option OCTGB_SIMD, default ON) and only
// entered when the CPU reports AVX2+FMA. SimdMode::kForceScalar pins
// the scalar engine regardless.
//
// Pooled execution: plan lists are target-major and every chunk owns
// whole targets, so each accumulator has one writer and takes plain
// stores in plan order. Born workspaces and E_pol energies are therefore
// bit-identical to serial ones at any worker count, in either engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/types.h"
#include "src/geom/vec3.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {

/// Engine choice for the plan executors.
enum class SimdMode {
  kAuto,         // SIMD when compiled in and CPU-supported
  kForceScalar,  // the scalar engine, whatever the build and CPU
};

/// True when the library was built with the AVX2 TU (OCTGB_SIMD=ON).
bool simd_compiled();

/// True when simd_compiled() and this CPU reports AVX2 and FMA: what
/// SimdMode::kAuto resolves to.
bool simd_available();

/// The operands of one Born phase: the atoms whose integrals accumulate
/// and the q-point surface they integrate over, each with its octree.
/// For a molecule's own radii both sides come from one BornOctrees
/// (born_inputs); for docking cross terms they come from two molecules.
struct BornInputs {
  const octree::Octree& atoms;
  const molecule::Molecule& mol;  // positions of `atoms`' points
  const octree::Octree& qpoints;
  std::span<const geom::Vec3> q_normals;  // per-qpoints-node sum w_q n_q
  const surface::QuadratureSurface& surf;  // the points of `qpoints`
};

inline BornInputs born_inputs(const BornOctrees& trees,
                              const molecule::Molecule& mol,
                              const surface::QuadratureSurface& surf) {
  return {trees.atoms, mol, trees.qpoints, trees.q_weighted_normal, surf};
}

/// SoA scratch for the Born phase: atom centers in T_A Morton order and
/// q-point data in T_Q Morton order, so every leaf's data is one
/// contiguous aligned run the row kernels stream through.
struct BornSoA {
  std::vector<double> ax, ay, az;               // atoms, sorted order
  std::vector<double> qx, qy, qz;               // q-points, sorted order
  std::vector<double> qnx, qny, qnz, qw;        // normals and weights
};

BornSoA build_born_soa(const BornInputs& in);

/// SoA scratch for the E_pol phase: positions, charges and Born radii
/// in T_A Morton order.
struct EpolSoA {
  std::vector<double> x, y, z, q, born;
};

EpolSoA build_epol_soa(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii);

// Row kernels (exposed for the tests, which check the SIMD rows against
// the scalar loop). `use_simd` falls back to the scalar loop when the
// AVX2 engine is unavailable.

/// Born r^6 row: sum over q-points [qb, qe) of the SoA against one atom
/// at (x, y, z). The scalar path evaluates born_term<6>.
double born_row(const BornSoA& soa, std::uint32_t qb, std::uint32_t qe,
                double x, double y, double z, bool use_simd);

/// f_GB row: sum over atoms [ub, ue) of the SoA against one atom at
/// (px, py, pz) with charge qv and Born radius rv. The caller must
/// exclude the self index (see epol_exact_block's diagonal split).
double epol_row(const EpolSoA& soa, std::uint32_t ub, std::uint32_t ue,
                double px, double py, double pz, double qv, double rv,
                bool approx_math, bool use_simd);

/// Bin-vs-bin far block: with use_simd, packs the non-empty bins of v
/// once and streams u's bins 4-wide; otherwise epol_far_block.
double epol_far_bins(const ChargeBins& bins, std::uint32_t u_node,
                     std::uint32_t v_node, double d2, bool approx_math,
                     bool use_simd);

// Scalar E_pol blocks: one plan item each. The dual-tree E_pol walker
// (epol.cpp) evaluates its pairs through these same functions.

/// Exact STILL-kernel block of leaf V against leaf U (all ordered pairs,
/// including the u == v self terms when the two leaves coincide).
double epol_exact_block(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        std::uint32_t u_leaf, std::uint32_t v_leaf,
                        bool approx_math);

/// Bin-vs-bin far-field kernel of one (U, V) node pair at center
/// distance^2 d2: sum over non-empty bin combinations of
/// q_U[i] q_V[j] / f_GB(R_i, R_j).
double epol_far_block(const ChargeBins& bins, std::uint32_t u_node,
                      std::uint32_t v_node, double d2, bool approx_math);

/// Born executor: evaluates plan.born_near / plan.born_far into `ws`
/// (sized by in.atoms) with the given kernel. Each chunk owns whole
/// targets, so the workspace is bit-identical at any worker count for a
/// given SimdMode.
void execute_born_plan(const BornInputs& in, const InteractionPlan& plan,
                       BornKernel kernel, BornWorkspace& ws,
                       parallel::WorkStealingPool* pool = nullptr,
                       SimdMode mode = SimdMode::kAuto);

/// E_pol executor: raw kernel sum (no -tau/2 k prefactor) of the
/// v-leaves in plan.scope, with prebuilt charge bins. Per-leaf near and
/// far accumulators are reduced in leaf order, so the result is
/// bit-identical at any worker count for a given SimdMode.
double execute_epol_plan(const octree::Octree& tree,
                         const molecule::Molecule& mol,
                         const ChargeBins& bins,
                         std::span<const double> born_radii,
                         const InteractionPlan& plan, bool approx_math,
                         parallel::WorkStealingPool* pool = nullptr,
                         SimdMode mode = SimdMode::kAuto);

/// Plan-driven Born radii with the r^6 kernel: evaluates the plan into a
/// workspace and runs PUSH-INTEGRALS-TO-ATOMS.
BornRadiiResult born_radii_batched(const BornOctrees& trees,
                                   const molecule::Molecule& mol,
                                   const surface::QuadratureSurface& surf,
                                   const InteractionPlan& plan,
                                   const ApproxParams& params,
                                   parallel::WorkStealingPool* pool = nullptr,
                                   SimdMode mode = SimdMode::kAuto);

/// Plan-driven Born radii with either kernel (r^4 runs the scalar
/// engine and Eq. 3's radius map).
BornRadiiResult born_radii_batched(const BornOctrees& trees,
                                   const molecule::Molecule& mol,
                                   const surface::QuadratureSurface& surf,
                                   const InteractionPlan& plan,
                                   const ApproxParams& params,
                                   BornKernel kernel,
                                   parallel::WorkStealingPool* pool = nullptr,
                                   SimdMode mode = SimdMode::kAuto);

/// Plan-driven E_pol in kcal/mol: builds the charge bins, evaluates the
/// plan's v-leaves and applies the -tau/2 k prefactor.
EpolResult epol_batched(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        const InteractionPlan& plan,
                        const ApproxParams& params,
                        const Physics& physics = {},
                        parallel::WorkStealingPool* pool = nullptr,
                        SimdMode mode = SimdMode::kAuto);

}  // namespace octgb::gb
