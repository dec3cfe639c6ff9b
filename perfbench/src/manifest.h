// manifest.h -- the metrics every run reports, by name and unit, as
// BENCHMARK.json lists them. Every workload prints the same set: the
// end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one.
#pragma once

#include "common.h"

namespace perfbench {

/// Puts the run's metrics into manifest order. A per-layer metric the
/// workload does not exercise (a serve counter in cold_ladder, say) is
/// reported as 0. A missing end-to-end metric, a metric outside the
/// manifest, a unit that differs from the manifest's or a value that is
/// not finite is a fault of the benchmark and marks the run incorrect.
void conform_to_manifest(Outcome& out, bool trace);

}  // namespace perfbench
