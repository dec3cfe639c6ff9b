// drivers.h -- the paper's three execution models (Table II):
//
//   OCT_CILK      shared-memory only: dual-tree traversal [6] on the
//                 work-stealing scheduler.
//   OCT_MPI       distributed: P single-threaded ranks running Figure 4
//                 (steps 1-7) over the simmpi runtime.
//   OCT_MPI+CILK  hybrid: P ranks, each running p scheduler workers.
//
// Work division follows Figure 4: APPROX-INTEGRALS work is divided by
// q-point octree leaves, PUSH-INTEGRALS by atom segments, and E_pol by
// atoms-octree leaves ("node-node"). Each rank (and each dynamic E_pol
// chunk) builds the interaction plan of its own leaf range only and
// evaluates it with the plan executor (src/gb/kernels_batch.h), the
// same engine compute_gb_energy uses. The "atom-atom" ablation divides
// the E_pol phase by sorted atom ranges instead: division boundaries
// then split octree leaves into pseudo-leaves whose centers/radii/bins
// depend on P, which is why (as Section IV-A observes) the atom-based
// error changes with the number of processes while node-based error
// does not.
#pragma once

#include <cstddef>

#include "src/gb/calculator.h"
#include "src/molecule/molecule.h"
#include "src/simmpi/comm.h"

namespace octgb::runtime {

// Contract of the leaf-based divisions (kNodeNode, kDynamicChunks,
// kNodeNodeWeighted): work is divided in whole octree leaves, so every
// rank computes exactly the per-leaf terms a one-rank run computes --
// the approximation (which pairs go far, which bins they read) does
// not depend on P. The per-rank partial sums (Born integrals, E_pol)
// are then combined by all_reduce_sum, whose summation order depends
// on P, so energies agree across P to about 1e-12 relative, not bit
// for bit: a 16k-atom capsid gave -23403.439889235149 at 1 rank and
// -23403.439889235167 at 2.
enum class WorkDivision {
  kNodeNode,       // paper default: static leaf segments
  kAtomAtom,       // ablation: E_pol divided by atom ranges (pseudo-leaves)
  /// The paper's Section VI future work, implemented: explicit dynamic
  /// load balancing across ranks. Rank 0 acts as a chunk server
  /// (master-worker self-scheduling over leaf ranges); workers request
  /// the next chunk of E_pol leaves whenever they go idle. The chunks
  /// are whole leaves, so the contract above carries over.
  kDynamicChunks,
  /// Static division balanced by *cost* (per-leaf atom counts) instead
  /// of leaf count, via the optimal contiguous bottleneck partition
  /// (src/runtime/partition.h). Same whole-leaf granularity, so the
  /// energy agrees with kNodeNode as the contract above states; the
  /// imbalance term shrinks.
  kNodeNodeWeighted,
};

struct DriverConfig {
  int num_ranks = 1;         // P (MPI processes)
  int threads_per_rank = 1;  // p (scheduler workers per rank)
  WorkDivision division = WorkDivision::kNodeNode;
  gb::CalculatorParams params;
  simmpi::CommCostModel cost;
  /// When true each rank builds its own surface/octrees (true data
  /// replication, for the memory experiments). When false the read-only
  /// structures are built once and shared -- semantically identical
  /// (they are immutable) but much faster on a single physical core.
  bool replicate_data = false;
  /// The paper's Section VI future work, implemented: distribute the
  /// quadrature *data*, not just the work. Each rank generates only its
  /// own slice of the surface (the O(N) sphere-sampled path, which can
  /// generate per-atom ranges) and builds a private q-point octree over
  /// it; per-rank surface memory drops by a factor P. The atoms octree
  /// and molecule stay replicated (they are the smaller half). The
  /// far-field grouping differs slightly from the single-tree run (each
  /// rank's T_Q sees only its slice), so energies agree to the
  /// approximation class rather than bit-exactly.
  bool distribute_qpoints = false;
};

struct DriverResult {
  double energy = 0.0;
  std::vector<double> born_radii;
  std::size_t num_qpoints = 0;

  // Wall-clock seconds (per phase; max over ranks where applicable).
  double t_surface = 0.0;
  double t_tree_build = 0.0;
  double t_born = 0.0;
  double t_epol = 0.0;
  double t_total = 0.0;

  /// Modeled communication time (alpha-beta ledger, max over ranks).
  double modeled_comm_seconds = 0.0;
  /// Total bytes moved through collectives + p2p, summed over ranks.
  std::size_t comm_bytes = 0;

  /// Estimated per-rank resident data (molecule + surface + octrees +
  /// workspace). Total footprint = num_ranks * this (the replication
  /// cost the paper's Section V-B measures: 12 x 1-thread ranks used
  /// 5.86x the memory of 2 x 6-thread ranks).
  std::size_t data_bytes_per_rank = 0;
};

/// Shared-memory driver (OCT_CILK): dual-tree traversal, `threads` pool
/// workers, no message passing.
DriverResult run_oct_cilk(const molecule::Molecule& mol, int threads,
                          const gb::CalculatorParams& params = {});

/// Distributed driver (OCT_MPI when threads_per_rank == 1, OCT_MPI+CILK
/// when > 1). Runs Figure 4 on config.num_ranks simmpi ranks.
DriverResult run_distributed(const molecule::Molecule& mol,
                             const DriverConfig& config);

/// Convenience wrappers matching the paper's program names.
inline DriverResult run_oct_mpi(const molecule::Molecule& mol, int ranks,
                                const gb::CalculatorParams& params = {}) {
  DriverConfig config;
  config.num_ranks = ranks;
  config.threads_per_rank = 1;
  config.params = params;
  return run_distributed(mol, config);
}

inline DriverResult run_oct_mpi_cilk(const molecule::Molecule& mol,
                                     int ranks, int threads_per_rank,
                                     const gb::CalculatorParams& params = {}) {
  DriverConfig config;
  config.num_ranks = ranks;
  config.threads_per_rank = threads_per_rank;
  config.params = params;
  return run_distributed(mol, config);
}

/// E_pol kernel sum with master-worker dynamic chunking: rank 0 serves
/// chunks of `chunk` leaves on request (and computes none itself);
/// ranks 1..P-1 compute chunks until the server runs dry, returning
/// each chunk's sum with their next request. Collective: every rank of
/// `comm` must call it. Rank 0 returns the chunk-ordered sum of all
/// chunks, the other ranks 0, so the result does not depend on request
/// timing. chunk == 0 picks num_leaves / (8 * (P-1)) + 1.
double approx_epol_dynamic(simmpi::Comm& comm, const octree::Octree& tree,
                           const molecule::Molecule& mol,
                           const gb::ChargeBins& bins,
                           std::span<const double> born_radii,
                           const gb::ApproxParams& params,
                           parallel::WorkStealingPool* pool = nullptr,
                           std::size_t chunk = 0);

/// E_pol kernel sum for a *sorted atom range* [atom_begin, atom_end):
/// the atom-based work division. Division boundaries that fall inside an
/// octree leaf produce pseudo-leaves (sub-ranges with recomputed center,
/// radius and charge bins). Exposed for the ablation bench and tests.
double approx_epol_atom_division(const octree::Octree& tree,
                                 const molecule::Molecule& mol,
                                 const gb::ChargeBins& bins,
                                 std::span<const double> born_radii,
                                 std::size_t atom_begin,
                                 std::size_t atom_end,
                                 const gb::ApproxParams& params,
                                 parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::runtime
