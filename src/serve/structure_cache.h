// structure_cache.h -- LRU cache of built GB structures.
//
// One entry retains everything the pipeline builds for a molecule: the
// quadrature surface, both octrees with their node aggregates, the Born
// radii, and the final energy, keyed by the content hash of
// (atoms, resolved params). The cache serves two lookups:
//
//  * find_exact: byte-identical repeat -> replay the stored energy,
//    no kernel runs at all;
//  * find_refit: same structure_key (same atoms/charges/params,
//    different positions) within an RMS-drift threshold -> the caller
//    reuses the entry's surface and octree *topology* and only refits
//    bounds and reruns the kernels, skipping surface generation and
//    tree construction (46-72% of a cold run; see DESIGN.md "Serving
//    layer"). Beyond the threshold the frozen topology's inflated
//    bounds would erode the far-field pruning the approximation relies
//    on, so the lookup reports a fallback and the caller rebuilds.
//
// Entries are handed out as shared_ptr<const CacheEntry>: eviction
// never invalidates an in-flight computation, and batch workers on the
// pool can share one entry concurrently (everything inside is
// immutable after insert). All methods are thread-safe.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/analysis/validate.h"
#include "src/gb/born.h"
#include "src/gb/interaction_lists.h"
#include "src/geom/vec3.h"
#include "src/surface/quadrature.h"
#include "src/util/thread_annotations.h"

namespace octgb::serve {

/// Everything built for one (molecule, params) input. Immutable once
/// inserted.
struct CacheEntry {
  std::uint64_t key = 0;            // content_key (positions included)
  std::uint64_t skey = 0;           // structure_key (positions excluded)
  std::vector<geom::Vec3> positions;  // snapshot, for the drift metric
  /// Shared with refit descendants: a refit entry keeps the parent's
  /// surface (positions barely moved; regenerating it is the cost the
  /// refit path exists to avoid).
  std::shared_ptr<const surface::QuadratureSurface> surf;
  gb::BornOctrees trees;
  /// Interaction plan of the two-phase engine. Shared with refit
  /// descendants like the surface: a refit keeps the octree topology,
  /// so the parent's traversal classification is reused and the refit
  /// path skips the plan build entirely (the slightly stale near/far
  /// classification is part of the refit approximation, like the
  /// retained surface). Built for both Born kernels.
  std::shared_ptr<const gb::InteractionPlan> plan;
  std::vector<double> born_radii;
  double energy = 0.0;
  std::size_t num_qpoints = 0;

  /// Approximate resident bytes (surface + trees + radii + snapshot).
  std::size_t memory_bytes() const;
};

/// Monotonic counters, exported like parallel::PoolStats.
struct CacheStats {
  std::uint64_t exact_hits = 0;
  std::uint64_t refit_hits = 0;
  /// A same-structure entry existed but its drift exceeded the
  /// threshold: the caller fell back to a full rebuild.
  std::uint64_t refit_fallbacks = 0;
  std::uint64_t misses = 0;  // find_exact lookups that found nothing
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Codec round trips through this cache: entries exported for the
  /// wire (hot-structure replication / work migration pulls) and
  /// entries injected from decoded bytes. Paired with the
  /// "cache.serializations" / "cache.deserializations" registry
  /// counters so the cross-shard traffic is visible in metrics dumps.
  std::uint64_t serializations = 0;
  std::uint64_t deserializations = 0;
};

/// Thread-safe LRU over CacheEntry, capacity counted in entries.
class StructureCache {
 public:
  explicit StructureCache(std::size_t capacity) : capacity_(capacity) {}

  /// Exact-content lookup. Bumps the entry to most-recently-used.
  std::shared_ptr<const CacheEntry> find_exact(std::uint64_t key)
      OCTGB_EXCLUDES(mu_);

  /// Best refit candidate: an entry with the given structure_key whose
  /// snapshot is within `max_rms` Angstrom RMS of `positions`. Among
  /// several candidates the one with the smallest drift wins (the most
  /// recently refit snapshot tracks a drifting stream). Writes the
  /// winning drift into *out_rms when non-null. Returns nullptr on no
  /// candidate; counts a fallback if candidates existed but all
  /// exceeded the threshold.
  std::shared_ptr<const CacheEntry> find_refit(
      std::uint64_t skey, std::span<const geom::Vec3> positions,
      double max_rms, double* out_rms = nullptr) OCTGB_EXCLUDES(mu_);

  /// Inserts (or refreshes) an entry, evicting least-recently-used
  /// entries past capacity. Inserting an existing key replaces the old
  /// entry (outstanding shared_ptrs stay valid).
  void insert(std::shared_ptr<const CacheEntry> entry) OCTGB_EXCLUDES(mu_);

  /// Counts a refit that had to fall back to construction *after* the
  /// lookup succeeded: the re-key refit saw a Morton key escape its
  /// leaf's octant range and rebuilt the atoms octree. Shares
  /// CacheStats::refit_fallbacks with the drift-threshold fallback --
  /// either way the cached topology could not be kept.
  void note_refit_fallback() OCTGB_EXCLUDES(mu_);

  /// Most-recently-used resident entry with the given structure_key,
  /// without disturbing LRU order (an export for replication is not a
  /// client access and must not keep an otherwise-cold entry alive).
  /// Returns nullptr when no entry with that skey is resident. Counts
  /// a serialization when an entry is found -- callers only peek on
  /// the way to the codec.
  std::shared_ptr<const CacheEntry> peek_structure(std::uint64_t skey)
      OCTGB_EXCLUDES(mu_);

  /// Counts an entry injected from decoded bytes (the insert itself
  /// goes through insert()).
  void note_deserialized() OCTGB_EXCLUDES(mu_);

  std::size_t size() const OCTGB_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }
  /// Sum of memory_bytes over resident entries. O(1): maintained as a
  /// running counter on insert/unlink; validate() cross-checks it
  /// against a full recomputation.
  std::size_t memory_bytes() const OCTGB_EXCLUDES(mu_);
  CacheStats stats() const OCTGB_EXCLUDES(mu_);

  /// Deep structural check: LRU list, key/skey index maps, the byte
  /// counter and the monotonic stats must all agree. Called from the
  /// OCTGB_VALIDATE checkpoints in the service after every insert, and
  /// directly by tests.
  analysis::Report validate() const OCTGB_EXCLUDES(mu_);

  /// Skews the O(1) resident-byte counter by `delta` bytes. Exists so
  /// tests can prove validate() catches accounting drift; never called
  /// by library code.
  void test_only_corrupt_bytes(std::ptrdiff_t delta) OCTGB_EXCLUDES(mu_);

 private:
  using LruList = std::list<std::shared_ptr<const CacheEntry>>;

  void evict_locked() OCTGB_REQUIRES(mu_);
  void unlink_locked(std::uint64_t key) OCTGB_REQUIRES(mu_);

  mutable util::Mutex mu_;
  const std::size_t capacity_;  // immutable after construction
  LruList lru_ OCTGB_GUARDED_BY(mu_);  // front == most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> by_key_
      OCTGB_GUARDED_BY(mu_);
  /// structure_key -> content keys of resident entries with it.
  std::unordered_multimap<std::uint64_t, std::uint64_t> by_skey_
      OCTGB_GUARDED_BY(mu_);
  /// Running sum of memory_bytes over resident entries (entries are
  /// immutable after insert, so insert/unlink deltas stay exact).
  std::size_t resident_bytes_ OCTGB_GUARDED_BY(mu_) = 0;
  CacheStats stats_ OCTGB_GUARDED_BY(mu_);
};

}  // namespace octgb::serve
