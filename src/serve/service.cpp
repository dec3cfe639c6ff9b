#include "src/serve/service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/analysis/contracts.h"
#include "src/analysis/sched/sched.h"
#include "src/gb/kernels_batch.h"
#include "src/serve/content_hash.h"
#include "src/telemetry/telemetry.h"
#include "src/util/timer.h"

namespace octgb::serve {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

PolarizationService::PolarizationService(const ServiceConfig& config)
    : config_(config),
      cache_(config.cache_capacity),
      pool_(std::max(1, config.num_threads)) {
  config_.num_threads = std::max(1, config.num_threads);
  config_.max_batch = std::max<std::size_t>(1, config.max_batch);
  // Session-relative name for the schedule explorer; the pool member
  // above already claimed the previous object id for its workers.
  const int oid = analysis::sched::next_object_id();
  dispatcher_ = std::thread([this, oid] {
    char name[32];
    std::snprintf(name, sizeof(name), "o%d.disp", oid);
    analysis::sched::set_thread_name(name);
    dispatch_loop();
  });
}

std::chrono::steady_clock::time_point PolarizationService::now_at(
    ClockEvent ev) const {
  if (config_.clock) return config_.clock(ev);
  return Clock::now();
}

PolarizationService::~PolarizationService() { stop(); }

std::future<Response> PolarizationService::submit(Request req) {
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  const Clock::time_point now = now_at(ClockEvent::kSubmit);
  OCTGB_COUNTER_ADD("serve.submitted", 1);
  bool rejected = false;
  {
    util::MutexLock lock(mu_);
    ++stats_.submitted;
    if (stopping_ || queue_.size() >= config_.queue_capacity) {
      ++stats_.rejected;
      rejected = true;
    } else {
      queue_.push_back(Pending{std::move(req), std::move(promise), now});
      OCTGB_GAUGE_SET("serve.queue_depth", queue_.size());
    }
  }
  if (rejected) {
    OCTGB_COUNTER_ADD("serve.rejected", 1);
    const Response resp = make_terminal(req, Status::kRejected, 0.0);
    promise.set_value(resp);
    if (config_.on_complete) config_.on_complete(resp);
    return fut;
  }
  queue_cv_.notify_one();
  return fut;
}

Response PolarizationService::serve_now(Request req) {
  return submit(std::move(req)).get();
}

void PolarizationService::drain() {
  util::UniqueLock lock(mu_);
  while (!(queue_.empty() && in_flight_ == 0)) idle_cv_.wait(lock);
}

void PolarizationService::stop() {
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServiceStats PolarizationService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

CacheStats PolarizationService::cache_stats() const { return cache_.stats(); }

ServiceSnapshot PolarizationService::snapshot() const {
  ServiceSnapshot snap;
  {
    util::MutexLock lock(mu_);
    snap.stats = stats_;
    snap.queue_depth = queue_.size();
    snap.in_flight = in_flight_;
  }
  snap.cache = cache_.stats();
  return snap;
}

std::size_t PolarizationService::queue_depth() const {
  util::MutexLock lock(mu_);
  return queue_.size();
}

void PolarizationService::dispatch_loop() {
  util::UniqueLock lock(mu_);
  for (;;) {
    while (!stopping_ && queue_.empty()) queue_cv_.wait(lock);
    if (queue_.empty()) {
      if (stopping_) return;  // drained
      continue;
    }
    // Linger briefly so bursts coalesce into one batch instead of N
    // batches of one.
    if (config_.batch_linger.count() > 0 &&
        queue_.size() < config_.max_batch && !stopping_) {
      const Clock::time_point linger_until =
          now_at(ClockEvent::kLinger) + config_.batch_linger;
      while (!stopping_ && queue_.size() < config_.max_batch) {
        if (queue_cv_.wait_until(lock, linger_until) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    std::vector<Pending> batch;
    const std::size_t n = std::min(queue_.size(), config_.max_batch);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    in_flight_ += n;
    OCTGB_GAUGE_SET("serve.queue_depth", queue_.size());
    lock.unlock();

    process_batch(std::move(batch));

    lock.lock();
    in_flight_ -= n;
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
}

void PolarizationService::process_batch(std::vector<Pending>&& batch) {
  OCTGB_TRACE_SCOPE("serve/batch");
  const Clock::time_point start = now_at(ClockEvent::kBatchStart);

  struct Item {
    Pending pending;
    double queue_wait = 0.0;
    std::uint64_t key = 0;
    bool follower = false;  // identical to an earlier item in the batch
    Response resp;
    bool done = false;
  };
  std::vector<Item> items;
  items.reserve(batch.size());
  for (auto& p : batch) {
    Item item;
    item.queue_wait = seconds_between(p.enqueued, start);
    item.pending = std::move(p);
    items.push_back(std::move(item));
  }

  std::uint64_t num_shed = 0;
  std::vector<std::size_t> leaders;
  std::vector<std::size_t> followers;
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    const Request& req = item.pending.req;
    if (req.has_deadline() && req.deadline < start) {
      item.resp = make_terminal(req, Status::kShed, item.queue_wait);
      item.done = true;
      ++num_shed;
      continue;
    }
    item.key = content_key(req.mol, resolved_params(req));
    for (std::size_t j : leaders) {
      if (items[j].key == item.key) {
        item.follower = true;
        break;
      }
    }
    // With the cache disabled there is no entry for followers to hit,
    // so every request computes for itself.
    if (item.follower && config_.cache_capacity > 0) {
      followers.push_back(i);
    } else {
      leaders.push_back(i);
    }
  }

  // Phase 1: distinct inputs, in parallel across requests; each
  // pipeline runs serially inside one task, so it is bit-reproducible
  // per request.
  auto run_one = [this](Item& item) {
    try {
      item.resp = compute_one(item.pending.req, item.queue_wait);
    } catch (...) {
      item.resp =
          make_terminal(item.pending.req, Status::kFailed, item.queue_wait);
    }
    item.done = true;
  };
  if (!leaders.empty()) {
    pool_.run([&] {
      parallel::parallel_for(pool_, 0, leaders.size(), 1,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t k = lo; k < hi; ++k) {
                                 run_one(items[leaders[k]]);
                               }
                             });
    });
  }

  // Phase 2: coalesced repeats replay the entries phase 1 just
  // inserted -- an exact cache hit, radii included.
  for (std::size_t i : followers) run_one(items[i]);

  // Deadline audit at settle time: a computed response that lands past
  // its deadline is a miss-but-completed, not a shed -- the work was
  // done, the client just can't use it. Flagged on the Response before
  // fulfillment so result sinks see the same classification the stats
  // record.
  const Clock::time_point settle = now_at(ClockEvent::kSettle);
  std::uint64_t num_deadline_missed = 0;
  for (Item& item : items) {
    if (item.resp.status == Status::kOk &&
        item.pending.req.has_deadline() && item.pending.req.deadline < settle) {
      item.resp.deadline_missed = true;
      ++num_deadline_missed;
    }
  }

  std::uint64_t num_coalesced = 0;
  {
    util::MutexLock lock(mu_);
    ++stats_.batches;
    stats_.deadline_missed += num_deadline_missed;
    stats_.max_batch_size = std::max<std::uint64_t>(stats_.max_batch_size,
                                                    items.size());
    stats_.shed += num_shed;
    for (std::size_t i : followers) {
      if (items[i].resp.path == Path::kCacheHit) ++num_coalesced;
    }
    stats_.coalesced += num_coalesced;
    for (const Item& item : items) {
      const Response& r = item.resp;
      switch (r.status) {
        case Status::kOk:
          ++stats_.completed;
          break;
        case Status::kFailed:
          ++stats_.failed;
          break;
        default:
          continue;  // shed: no stage times to account
      }
      switch (r.path) {
        case Path::kCacheHit:
          ++stats_.cache_hits;
          break;
        case Path::kRefit:
          ++stats_.refits;
          if (r.plan_reused) ++stats_.plan_reuses;
          break;
        case Path::kColdBuild:
          ++stats_.cold_builds;
          break;
        case Path::kNone:
          break;
      }
      stats_.queue_seconds += r.t_queue;
      stats_.build_seconds += r.t_build;
      stats_.refit_seconds += r.t_refit;
      stats_.kernel_seconds += r.t_kernel;
    }
  }
  OCTGB_COUNTER_ADD("serve.batches", 1);
  OCTGB_COUNTER_ADD("serve.shed", num_shed);
  OCTGB_COUNTER_ADD("serve.coalesced", num_coalesced);
  OCTGB_COUNTER_ADD("serve.deadline_missed", num_deadline_missed);
#if defined(OCTGB_TELEMETRY_ENABLED)
  // Registry mirror of the per-request outcome tallies; the loop itself
  // is compiled out with telemetry so the OFF build's instruction path
  // matches the pre-telemetry code exactly.
  for (const Item& item : items) {
    const Response& r = item.resp;
    if (r.status == Status::kOk) {
      OCTGB_COUNTER_ADD("serve.completed", 1);
      OCTGB_HISTOGRAM_OBSERVE("serve.queue_seconds", r.t_queue);
      OCTGB_HISTOGRAM_OBSERVE("serve.request_seconds", r.t_total);
    } else if (r.status == Status::kFailed) {
      OCTGB_COUNTER_ADD("serve.failed", 1);
    }
  }
#endif

  OCTGB_VALIDATE_CHECKPOINT(validate_invariants(), "service batch stats");

  for (Item& item : items) {
    // The callback needs the Response after set_value consumed it, so
    // fulfill from a copy only when a sink is installed.
    if (config_.on_complete) {
      item.pending.promise.set_value(item.resp);
      config_.on_complete(item.resp);
    } else {
      item.pending.promise.set_value(std::move(item.resp));
    }
  }
}

analysis::Report PolarizationService::validate_invariants() const {
  const ServiceSnapshot snap = snapshot();
  const ServiceStats& s = snap.stats;
  analysis::Report report;
  if (s.completed != s.cache_hits + s.refits + s.cold_builds) {
    report.fail("service: %llu completed != %llu hits + %llu refits + "
                "%llu cold builds",
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.refits),
                static_cast<unsigned long long>(s.cold_builds));
  }
  const std::uint64_t settled = s.rejected + s.shed + s.completed + s.failed;
  if (s.submitted < settled) {
    report.fail("service: %llu submitted < %llu settled",
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(settled));
  } else if (s.submitted - settled > snap.queue_depth + snap.in_flight) {
    // Every unsettled request must be queued or inside a batch. (Settled
    // requests of a running batch are still counted in_flight, so the
    // bound is one-sided.)
    report.fail("service: %llu unsettled requests but only %zu queued + "
                "%zu in flight",
                static_cast<unsigned long long>(s.submitted - settled),
                snap.queue_depth, snap.in_flight);
  }
  if (snap.queue_depth > config_.queue_capacity) {
    report.fail("service: queue depth %zu exceeds capacity %zu",
                snap.queue_depth, config_.queue_capacity);
  }
  if (s.max_batch_size > config_.max_batch) {
    report.fail("service: max batch %llu exceeds configured %zu",
                static_cast<unsigned long long>(s.max_batch_size),
                config_.max_batch);
  }
  if (s.coalesced > s.cache_hits) {
    report.fail("service: %llu coalesced > %llu cache hits",
                static_cast<unsigned long long>(s.coalesced),
                static_cast<unsigned long long>(s.cache_hits));
  }
  if (s.deadline_missed > s.completed) {
    report.fail("service: %llu deadline misses > %llu completed",
                static_cast<unsigned long long>(s.deadline_missed),
                static_cast<unsigned long long>(s.completed));
  }
  if (s.plan_reuses > s.refits) {
    report.fail("service: %llu plan reuses > %llu refits",
                static_cast<unsigned long long>(s.plan_reuses),
                static_cast<unsigned long long>(s.refits));
  }
  if (s.queue_seconds < 0.0 || s.build_seconds < 0.0 ||
      s.refit_seconds < 0.0 || s.kernel_seconds < 0.0) {
    report.fail("service: negative stage-time sums");
  }
  if (snap.cache.evictions > snap.cache.insertions) {
    report.fail("service: cache evictions exceed insertions");
  }
  return report;
}

Response PolarizationService::compute_one(const Request& req,
                                          double queue_wait) {
  OCTGB_TRACE_SCOPE("serve/request");
  Response resp;
  resp.id = req.id;
  resp.t_queue = queue_wait;
  util::WallTimer total;

  const gb::CalculatorParams params = resolved_params(req);
  resp.content_key = content_key(req.mol, params);

  if (config_.cache_capacity > 0) {
    OCTGB_TRACE_SCOPE("serve/cache_lookup");
    if (auto hit = cache_.find_exact(resp.content_key)) {
      OCTGB_COUNTER_ADD("serve.cache_hits", 1);
      resp.path = Path::kCacheHit;
      resp.energy = hit->energy;
      resp.num_qpoints = hit->num_qpoints;
      if (req.want_born_radii) resp.born_radii = hit->born_radii;
      resp.t_total = queue_wait + total.seconds();
      return resp;
    }
  }

  const std::uint64_t skey = structure_key(req.mol, params);
  std::shared_ptr<const CacheEntry> base;
  if (config_.enable_refit && config_.cache_capacity > 0) {
    base = cache_.find_refit(skey, req.mol.positions(), config_.refit_max_rms);
  }

  auto entry = std::make_shared<CacheEntry>();
  entry->key = resp.content_key;
  entry->skey = skey;
  entry->positions.assign(req.mol.positions().begin(),
                          req.mol.positions().end());

  util::WallTimer stage;
  bool refit_rebuilt = false;
  if (base) {
    OCTGB_TRACE_SCOPE("serve/refit");
    // Incremental refit: keep the base entry's surface and octree
    // topology (point order, children, leaves, charge-bin layout of
    // the q-normals); re-key the moved atoms and recompute node
    // centers/radii only for the nodes that own them. The base entry
    // itself is immutable -- the copy is an O(M + Q) memcpy, orders of
    // magnitude below a rebuild's surface generation + Morton sort.
    // Under rekey_refit a key escaping its leaf's octant range rebuilds
    // the atoms tree instead of keeping the stale topology.
    OCTGB_COUNTER_ADD("serve.refits", 1);
    resp.path = Path::kRefit;
    entry->surf = base->surf;
    entry->trees = base->trees;
    const octree::RefitResult rr =
        config_.rekey_refit
            ? entry->trees.atoms.refit_rekey(req.mol.positions())
            : entry->trees.atoms.refit(req.mol.positions());
    refit_rebuilt = rr.rebuilt;
    if (refit_rebuilt) {
      cache_.note_refit_fallback();
      OCTGB_COUNTER_ADD("serve.refit_rebuilds", 1);
    }
    resp.t_refit = stage.seconds();
    // The q-tree and its normal aggregates are retained untouched;
    // prove they still match the retained surface.
    OCTGB_VALIDATE_CHECKPOINT(
        analysis::validate_born_octrees(entry->trees, *entry->surf),
        "serve refit");
  } else {
    // Cold build: exactly the compute_gb_energy pipeline (same calls,
    // same order), so a kExact request's energy is bit-identical to
    // the one-shot driver.
    OCTGB_TRACE_SCOPE("serve/cold_build");
    OCTGB_COUNTER_ADD("serve.cold_builds", 1);
    resp.path = Path::kColdBuild;
    entry->surf = std::make_shared<const surface::QuadratureSurface>(
        surface::build_surface(req.mol, params.surface));
    entry->trees =
        gb::build_born_octrees(req.mol, *entry->surf, params.octree);
    resp.t_build = stage.seconds();
  }

  stage.restart();
  gb::BornRadiiResult born;
  gb::EpolResult epol;
  // Mirrors compute_gb_energy's single-tree path so kExact energies stay
  // bit-identical to the one-shot driver. The plan depends only on tree
  // geometry and epsilons, so a refit request inherits the base entry's
  // plan and skips the traversal outright -- the kernels are the only
  // per-conformation work left.
  if (base && base->plan && !refit_rebuilt) {
    entry->plan = base->plan;
    resp.plan_reused = true;
    OCTGB_COUNTER_ADD("serve.plan_reuses", 1);
  } else {
    OCTGB_TRACE_SCOPE("serve/plan_build");
    entry->plan = std::make_shared<const gb::InteractionPlan>(
        gb::build_interaction_plan(entry->trees, params.approx));
  }
  {
    OCTGB_TRACE_SCOPE("serve/kernels");
    born = gb::born_radii_batched(entry->trees, req.mol, *entry->surf,
                                  *entry->plan, params.approx,
                                  params.kernel);
    epol = gb::epol_batched(entry->trees.atoms, req.mol, born.radii,
                            *entry->plan, params.approx, params.physics);
  }
  resp.t_kernel = stage.seconds();

  entry->born_radii = std::move(born.radii);
  entry->energy = epol.energy;
  entry->num_qpoints = entry->surf->size();

  resp.energy = entry->energy;
  resp.num_qpoints = entry->num_qpoints;
  if (req.want_born_radii) resp.born_radii = entry->born_radii;

  if (config_.cache_capacity > 0) {
    cache_.insert(std::move(entry));
    OCTGB_VALIDATE_CHECKPOINT(cache_.validate(), "structure cache insert");
  }
  resp.t_total = queue_wait + total.seconds();
  return resp;
}

Response PolarizationService::make_terminal(const Request& req, Status status,
                                            double queue_wait) const {
  Response resp;
  resp.id = req.id;
  resp.status = status;
  resp.path = Path::kNone;
  resp.t_queue = queue_wait;
  resp.t_total = queue_wait;
  return resp;
}

}  // namespace octgb::serve
