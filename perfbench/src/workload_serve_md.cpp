// serve_md: one serve::PolarizationService (2 compute threads) and two
// closed-loop clients in lockstep. The MD client steps a 4k-atom protein
// through small-drift conformations -- the refit path with plan reuse --
// and at the start of every round switches to a new protein, a cold
// build. Alongside every MD step after the first of a round, the lookup
// client re-requests a conformation already served, an exact cache hit,
// so hits share batches with refits, which exposes the service's
// batch-end settlement. Surface and plan building are bypassed on the
// refit path, the contrast to cold_ladder. Every round is the same 25
// requests, so a run's request count depends only on its rounds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>

#include "src/gb/kernels_batch.h"
#include "src/molecule/generators.h"
#include "src/serve/service.h"
#include "src/util/rng.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gb = octgb::gb;
namespace serve = octgb::serve;
using octgb::molecule::Molecule;

constexpr std::size_t kProteinAtoms = 4000;
constexpr int kStepsPerRound = 12;     // refit steps after each cold build
constexpr double kStepSigma = 0.02;    // A per coordinate per MD step
constexpr std::size_t kLookupWindow = 16;  // most recent conformations
constexpr std::size_t kCacheEntries = 32;
constexpr int kMinRounds = 3;
constexpr int kAloneHits = 16;
// The service documents refits tracking a rebuild to ~1e-3 relative at
// MD-step drifts; one step from the cold entry they were up to 1.2e-3
// off fresh trees on the retained surface over 18 proteins.
constexpr double kRefitTol = 5e-3;

Molecule drifted(const Molecule& mol, octgb::util::Xoshiro256& rng) {
  Molecule out(mol.name());
  out.reserve(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    octgb::molecule::Atom a = mol.atom(i);
    a.position.x += kStepSigma * rng.normal();
    a.position.y += kStepSigma * rng.normal();
    a.position.z += kStepSigma * rng.normal();
    out.add_atom(a);
  }
  return out;
}

struct Served {
  std::shared_ptr<const Molecule> mol;
  double energy = 0.0;
};

struct Sample {
  double latency = 0.0;
  int round = 0;  // MD round in progress at submit
  bool traced = false;
  serve::Response resp;
};

/// A request in flight, submitted at `t0` (steady clock seconds).
struct InFlight {
  std::uint64_t id = 0;
  double t0 = 0.0;
  std::future<serve::Response> fut;
};

InFlight submit(serve::PolarizationService& svc, std::uint64_t id,
                const Molecule& mol) {
  serve::Request req;
  req.id = id;
  req.mol = mol;
  InFlight f;
  f.id = id;
  f.t0 = now_s();
  f.fut = svc.submit(std::move(req));
  return f;
}

/// Takes the response of `f`, which is ready, and its client-side
/// latency. In traced rounds the request gets a span with the service's
/// own stage times as children.
serve::Response finish(InFlight& f, double& latency) {
  serve::Response resp = f.fut.get();
  const double t1 = now_s();
  latency = t1 - f.t0;
  Tracer& t = tracer();
  if (t.enabled()) {
    const std::uint64_t span =
        t.record("serve", "serve/request", f.t0, t1, 0, f.id);
    double at = f.t0;
    auto stage = [&](const char* layer, const char* name, double secs) {
      if (secs <= 0.0) return;
      t.record(layer, name, at, std::min(at + secs, t1), span, f.id);
      at += secs;
    };
    stage("serve", "serve/queue", resp.t_queue);
    stage("surface", "serve/build", resp.t_build);
    stage("octree", "serve/refit", resp.t_refit);
    stage("gb", "serve/kernels", resp.t_kernel);
  }
  return resp;
}

/// Waits for whichever of the in-flight requests completes first and
/// returns its index, so each latency ends when its response is ready.
std::size_t wait_any(std::vector<InFlight>& flights,
                     const std::vector<bool>& pending) {
  for (;;) {
    for (std::size_t i = 0; i < flights.size(); ++i) {
      if (pending[i] && flights[i].fut.wait_for(std::chrono::microseconds(
                            200)) == std::future_status::ready) {
        return i;
      }
    }
  }
}

/// E_pol of `mol` on a given surface with freshly built trees and plan,
/// serially.
double energy_on_surface(const Molecule& mol,
                         const octgb::surface::QuadratureSurface& surf,
                         const gb::CalculatorParams& params) {
  const gb::BornOctrees trees =
      gb::build_born_octrees(mol, surf, params.octree);
  const gb::InteractionPlan plan =
      gb::build_interaction_plan(trees, params.approx);
  const gb::BornRadiiResult born =
      gb::born_radii_batched(trees, mol, surf, plan, params.approx);
  return gb::epol_batched(trees.atoms, mol, born.radii, plan, params.approx,
                          params.physics)
      .energy;
}

}  // namespace

Outcome run_serve_md(const RunArgs& args) {
  Outcome out;
  const gb::CalculatorParams params;
  const Molecule warm_mol = octgb::molecule::generate_protein(
      1000, mix_seed(args.seed, 1));

  // ---- set-up: service start, one cold and one refit warm-up request ----
  serve::ServiceConfig config;
  config.num_threads = 2;
  config.cache_capacity = kCacheEntries;
  auto svc = std::make_unique<serve::PolarizationService>(config);
  {
    octgb::util::Xoshiro256 rng(mix_seed(args.seed, 2));
    serve::Request a;
    a.mol = warm_mol;
    serve::Request b;
    b.mol = drifted(warm_mol, rng);
    svc->serve_now(std::move(a));
    svc->serve_now(std::move(b));
  }
  const double setup_s = now_s() - args.process_start;
  std::printf("setup %.4f s\n", setup_s);

  // ---- timed phase ----
  std::vector<Served> served;
  std::vector<Sample> samples;
  Served cold_entry;  // the first cold build
  std::vector<std::pair<std::shared_ptr<const Molecule>, double>> refit_probe;
  std::uint64_t next_id = 1;
  std::vector<std::string> problems;
  if (args.trace) tracer().enable();
  const double start = now_s();

  // The MD client prepares its next conformation while the current one
  // is in flight, so its next request follows a response within
  // microseconds, as a simulation engine streaming frames would.
  octgb::util::Xoshiro256 rng(mix_seed(args.seed, 3));
  auto protein = [&](int round) {
    return std::make_shared<const Molecule>(octgb::molecule::generate_protein(
        kProteinAtoms, mix_seed(args.seed, 100 + round)));
  };
  std::shared_ptr<const Molecule> mol = protein(0);
  std::uint64_t lookups = 0;
  int rounds = 0;
  while (more_rounds(start, args.seconds, rounds, kMinRounds)) {
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured within one process.
    if (args.trace) {
      if (rounds % 2 == 0) tracer().disable(); else tracer().enable();
    }
    for (int step = 0; step <= kStepsPerRound; ++step) {
      // The MD step, then (after the round's cold build) a lookup of one
      // of the most recently served conformations.
      std::vector<InFlight> flights;
      std::vector<Served> targets;
      flights.push_back(submit(*svc, next_id++, *mol));
      targets.push_back({mol, 0.0});
      if (step > 0) {
        const std::size_t window = std::min(served.size(), kLookupWindow);
        targets.push_back(served[served.size() - 1 - (lookups++ % window)]);
        flights.push_back(submit(*svc, next_id++, *targets.back().mol));
      }
      const std::shared_ptr<const Molecule> next =
          step < kStepsPerRound
              ? std::make_shared<const Molecule>(drifted(*mol, rng))
              : protein(rounds + 1);
      std::vector<bool> pending(flights.size(), true);
      std::vector<Sample> done(flights.size());
      for (std::size_t left = flights.size(); left > 0; --left) {
        const std::size_t i = wait_any(flights, pending);
        pending[i] = false;
        done[i].traced = tracer().enabled();
        done[i].round = rounds;
        done[i].resp = finish(flights[i], done[i].latency);
      }
      const Sample& md = done[0];
      const serve::Path want =
          step == 0 ? serve::Path::kColdBuild : serve::Path::kRefit;
      if (md.resp.status == serve::Status::kOk &&
          (md.resp.path != want || (step > 0 && !md.resp.plan_reused))) {
        problems.push_back("MD step took an unexpected path");
      }
      if (done.size() > 1 && done[1].resp.status == serve::Status::kOk &&
          (done[1].resp.path != serve::Path::kCacheHit ||
           !bit_equal(done[1].resp.energy, targets[1].energy))) {
        problems.push_back("lookup of a served conformation was not a "
                           "bit-identical cache hit");
      }
      if (md.resp.status == serve::Status::kOk) {
        served.push_back({mol, md.resp.energy});
        if (rounds == 0 && step == 0) cold_entry = served.back();
        if (rounds == 0 && (step == 1 || step == kStepsPerRound)) {
          refit_probe.emplace_back(mol, md.resp.energy);
        }
      }
      for (Sample& d : done) samples.push_back(std::move(d));
      mol = next;
    }
    ++rounds;
  }
  const double elapsed = now_s() - start;
  tracer().disable();

  // A hit with no other client (per-layer reference point).
  std::vector<double> alone;
  for (int i = 0; i < kAloneHits; ++i) {
    double lat = 0.0;
    InFlight f = submit(*svc, next_id++, *served.back().mol);
    const serve::Response r = finish(f, lat);
    if (r.path == serve::Path::kCacheHit) alone.push_back(lat * 1e3);
  }
  const serve::ServiceSnapshot snap = svc->snapshot();
  const std::size_t cache_bytes = svc->cache_memory_bytes();
  const octgb::parallel::PoolStats ps = svc->pool_stats();
  svc.reset();

  std::vector<double> refit_ms, hit_ms, cold_ms, refit_traced, refit_plain;
  std::vector<double> queue_ms, build_ms, refitstage_ms, kernel_ms;
  for (const Sample& s : samples) {
    ++out.attempted;
    if (s.resp.status != serve::Status::kOk) {
      ++out.failed;
      continue;
    }
    const double ms = s.latency * 1e3;
    queue_ms.push_back(s.resp.t_queue * 1e3);
    switch (s.resp.path) {
      case serve::Path::kRefit:
        (s.traced ? refit_traced : refit_plain).push_back(ms);
        refit_ms.push_back(ms);
        refitstage_ms.push_back(s.resp.t_refit * 1e3);
        kernel_ms.push_back(s.resp.t_kernel * 1e3);
        break;
      case serve::Path::kCacheHit:
        hit_ms.push_back(ms);
        break;
      case serve::Path::kColdBuild:
        cold_ms.push_back(ms);
        build_ms.push_back(s.resp.t_build * 1e3);
        kernel_ms.push_back(s.resp.t_kernel * 1e3);
        break;
      case serve::Path::kNone:
        break;
    }
  }
  // The end-to-end metric is the least-contended latency of each kind of
  // request, weighted by a round's mix: the host's contention comes and
  // goes on a scale of seconds and moved whole-run medians by up to 35 %
  // (see README.md). Unlike the other workloads it is not scaled by the
  // yardstick: the client thread that would run the passes does no
  // program work, and in three runs of one set the passes on it read
  // 40 % slow while the service's raw figures held.
  const double op_ms =
      (minimum(cold_ms) +
       kStepsPerRound * (minimum(refit_ms) + minimum(hit_ms))) /
      (1 + 2 * kStepsPerRound);
  // Per-layer latencies: the fastest round's median of each kind.
  std::vector<double> round_refit, round_hit;
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> refits, hits;
    for (const Sample& s : samples) {
      if (s.round != r) continue;
      if (s.resp.path == serve::Path::kRefit) refits.push_back(s.latency * 1e3);
      if (s.resp.path == serve::Path::kCacheHit) hits.push_back(s.latency * 1e3);
    }
    round_refit.push_back(median(refits));
    round_hit.push_back(median(hits));
  }
  const double refit_p50 = minimum(round_refit);
  const double hit_p50 = minimum(round_hit);
  std::printf("timed phase %.3f s, %d rounds: %zu requests (%zu cold, %zu "
              "refit, %zu hit); whole-run median ms cold %.1f refit %.1f hit "
              "%.1f; fastest round medians: refit %.1f hit %.1f ms; "
              "fastest of each kind, weighted: %.1f ms per request\n",
              elapsed, rounds, samples.size(), cold_ms.size(),
              refit_ms.size(), hit_ms.size(), median(cold_ms),
              median(refit_ms), median(hit_ms), refit_p50, hit_p50, op_ms);
  for (const auto& p : problems) {
    out.correct = false;
    out.problems.push_back(p);
  }

  if (!cold_entry.mol || refit_probe.size() != 2) {
    out.correct = false;
    out.problems.push_back("the first MD round did not complete");
    return out;
  }

  // ---- checks (outside the timed phase and the set-up) ----
  // A cold-built entry, as every hit on it returns it, must be
  // bit-identical to a serial one-shot call.
  const Served& cold = cold_entry;
  const double one_shot = gb::compute_gb_energy(*cold.mol, params).energy;
  std::printf("cold entry %.10f one-shot %.10f\n", cold.energy, one_shot);
  out.check(
      "served (and hit) energy bit-identical to a serial one-shot call",
      [&] { return bit_equal(cold.energy, one_shot); },
      [&] { return bit_equal(next_up(cold.energy), one_shot); });
  // A refit keeps the cold entry's surface, so it is checked against a
  // fresh computation on that same surface with rebuilt trees and plan:
  // what the refit approximates (stale topology, refit bounds). The
  // one-shot call on the drifted conformation builds a new surface, and
  // its energy moved by up to 4 % under one 0.035 A RMS step (see
  // CHANGES.md FOUND on the surface); that difference is printed only.
  // Step 1 (0.035 A RMS from the cold entry) is the service's documented
  // regime and is checked; step 12 is printed only: a refit chain keeps
  // the first topology while drift accumulates, and one was 1 % off at
  // step 12 (see CHANGES.md FOUND on find_refit).
  const octgb::surface::QuadratureSurface base_surf =
      octgb::surface::build_surface(*cold.mol, params.surface);
  octgb::parallel::WorkStealingPool pool(2);
  std::vector<double> refit_err, fresh_energy;
  for (const auto& [probe_mol, probe_energy] : refit_probe) {
    const double fresh = energy_on_surface(*probe_mol, base_surf, params);
    const double one = gb::compute_gb_energy(*probe_mol, params, &pool).energy;
    fresh_energy.push_back(fresh);
    refit_err.push_back(std::abs(probe_energy - fresh) / std::abs(fresh));
    std::printf("refit %.6f, fresh trees on the retained surface %.6f (rel "
                "%.3e), one-shot %.6f (rel %.3e)\n",
                probe_energy, fresh, refit_err.back(), one,
                std::abs(probe_energy - one) / std::abs(one));
  }
  out.check(
      "first refit within 5e-3 of fresh trees on the retained surface",
      [&] { return refit_err.front() <= kRefitTol; },
      [&] {
        const double fresh = fresh_energy.front();
        return within_rel(fresh * (1 + 2 * kRefitTol), fresh, kRefitTol);
      });
  const double probe_energy = refit_probe.front().second;
  out.check(
      "served energies are negative",
      [&] { return cold.energy < 0 && probe_energy < 0; },
      [&] { return -cold.energy < 0; });

  if (!args.trace) {
    // One operation is one request of either client.
    out.add("setup_s", setup_s, "s");
    out.add("op_ms", op_ms, "ms");
    return out;
  }
  out.traced_ops = 0;
  for (const Sample& s : samples) out.traced_ops += s.traced ? 1 : 0;
  out.add("serve.refit_p50_ms", refit_p50, "ms");
  out.add("serve.hit_p50_ms", hit_p50, "ms");
  out.add("serve.queue_ms", median(queue_ms), "ms");
  out.add("serve.build_ms", median(build_ms), "ms");
  out.add("serve.refit_ms", median(refitstage_ms), "ms");
  out.add("serve.kernel_ms", median(kernel_ms), "ms");
  out.add("serve.hit_alone_ms", median(alone), "ms");
  out.add_count("serve.hits", static_cast<double>(snap.stats.cache_hits));
  out.add_count("serve.refits", static_cast<double>(snap.stats.refits));
  out.add_count("serve.cold_builds", static_cast<double>(snap.stats.cold_builds));
  out.add_count("serve.plan_reuses", static_cast<double>(snap.stats.plan_reuses));
  out.add_count("serve.coalesced", static_cast<double>(snap.stats.coalesced));
  out.add_count("serve.batches", static_cast<double>(snap.stats.batches));
  out.add_count("serve.cache_bytes", static_cast<double>(cache_bytes), "bytes");
  // Scheduler work per request, over the whole run.
  const double requests = static_cast<double>(snap.stats.completed);
  out.add("pool.tasks", static_cast<double>(ps.tasks_executed) / requests,
          "count");
  out.add("pool.steals", static_cast<double>(ps.successful_steals) / requests,
          "count");
  out.add("trace.overhead_pct",
          (median(refit_traced) / median(refit_plain) - 1.0) * 100.0, "%");
  return out;
}

}  // namespace perfbench
