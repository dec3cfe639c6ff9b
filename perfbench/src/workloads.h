// workloads.h -- the benchmark's four workloads. Each builds its inputs
// from the seed, times its set-up (the program calls made before the
// timed phase), runs whole rounds for the requested seconds, then checks
// the outputs against the exact reference and the method's properties.
// At most two threads are busy at any time in every workload.
#pragma once

#include "common.h"

namespace perfbench {

Outcome run_cold_ladder(const RunArgs& args);
Outcome run_serve_md(const RunArgs& args);
Outcome run_capsid_mpi(const RunArgs& args);
Outcome run_dock_scan(const RunArgs& args);

}  // namespace perfbench
