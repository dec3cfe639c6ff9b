#include "manifest.h"

#include <cmath>
#include <iterator>

namespace perfbench {

namespace {

struct Spec {
  const char* name;
  const char* unit;
};

// One operation is the workload's unit of work: a cold call (cold_ladder),
// a request of either client (serve_md), a distributed run (capsid_mpi)
// or a pose score (dock_scan).
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
};

constexpr Spec kPerLayer[] = {
    {"surface.density_s", "s"},
    {"surface.march_s", "s"},
    {"surface.triangles", "count"},
    {"surface.quad_s", "s"},
    {"surface.sphere_s", "s"},
    {"surface.qpoints", "count"},
    {"surface.ns_per_qpoint", "ns"},
    {"octree.build_s", "s"},
    {"octree.nodes", "count"},
    {"plan.build_s", "s"},
    {"plan.born_near", "count"},
    {"plan.born_far", "count"},
    {"plan.epol_near", "count"},
    {"plan.epol_far", "count"},
    {"plan.bytes", "bytes"},
    {"born.s", "s"},
    {"born.near_evals", "count"},
    {"born.far_deposits", "count"},
    {"born.ns_per_eval", "ns"},
    {"born.rel_err", "1"},
    {"epol.s", "s"},
    {"epol.near_evals", "count"},
    {"epol.far_blocks", "count"},
    {"epol.ns_per_eval", "ns"},
    {"epol.rel_err", "1"},
    {"fused.born_s", "s"},
    {"fused.push_s", "s"},
    {"fused.bins_s", "s"},
    {"fused.epol_s", "s"},
    {"pool.tasks", "count"},
    {"pool.steals", "count"},
    {"serve.refit_p50_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.build_ms", "ms"},
    {"serve.refit_ms", "ms"},
    {"serve.kernel_ms", "ms"},
    {"serve.hit_alone_ms", "ms"},
    {"serve.hits", "count"},
    {"serve.refits", "count"},
    {"serve.cold_builds", "count"},
    {"serve.plan_reuses", "count"},
    {"serve.coalesced", "count"},
    {"serve.batches", "count"},
    {"serve.cache_bytes", "bytes"},
    {"mpi.comm_bytes", "bytes"},
    {"mpi.data_bytes_per_rank", "bytes"},
    {"mpi.modeled_comm_s", "s"},
    {"dock.cross_s", "s"},
    {"dock.complex_tree_s", "s"},
    {"dock.epol_s", "s"},
    {"self.bench_s", "s"},
    {"self.surface_s", "s"},
    {"self.octree_s", "s"},
    {"self.plan_s", "s"},
    {"self.born_s", "s"},
    {"self.epol_s", "s"},
    {"self.fused_s", "s"},
    {"self.gb_s", "s"},
    {"self.serve_s", "s"},
    {"self.mpi_s", "s"},
    {"self.dock_s", "s"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void conform_to_manifest(Outcome& out, bool trace) {
  const Spec* begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Spec* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  auto fault = [&](const std::string& why) {
    out.correct = false;
    out.problems.push_back(why);
  };
  std::vector<Metric> ordered;
  for (const Spec* s = begin; s != end; ++s) {
    const Metric* found = nullptr;
    for (const Metric& m : out.metrics) {
      if (m.name == s->name) found = &m;
    }
    if (found) {
      if (found->unit != s->unit) {
        fault("metric " + found->name + " in " + found->unit + ", not " +
              s->unit);
      }
      if (!std::isfinite(found->value)) fault("metric " + found->name +
                                              " is not finite");
      Metric m = *found;
      m.unit = s->unit;
      if (!std::isfinite(m.value)) m.value = 0.0;
      ordered.push_back(m);
    } else {
      if (!trace) fault(std::string("end-to-end metric missing: ") + s->name);
      ordered.push_back({s->name, 0.0, s->unit, true});
    }
  }
  for (const Metric& m : out.metrics) {
    bool listed = false;
    for (const Spec* s = begin; s != end; ++s) listed |= m.name == s->name;
    if (!listed) fault("metric outside the manifest: " + m.name);
  }
  out.metrics = std::move(ordered);
}

}  // namespace perfbench
