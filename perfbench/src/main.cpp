// octgb benchmark entry point:
//   octgb_perfbench --workload <cold_ladder|serve_md|capsid_mpi|dock_scan>
//                   --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
// Prints progress and check lines, then one JSON result as the last line
// of standard output: every end-to-end metric of manifest.cpp, or with
// --trace 1 every per-layer metric, and the spans are written to
// --trace-out.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "manifest.h"
#include "trace.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: octgb_perfbench --workload "
               "<cold_ladder|serve_md|capsid_mpi|dock_scan> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.process_start = perfbench::now_s();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double num = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (!parse_number(value, num)) {
      return usage(("bad number for " + flag).c_str());
    } else if (flag == "--seed") {
      if (num < 0) return usage("--seed must be >= 0");
      args.seed = static_cast<std::uint64_t>(num);
    } else if (flag == "--seconds") {
      if (!(num > 0 && num <= 3600)) return usage("--seconds out of range");
      args.seconds = num;
    } else if (flag == "--trace") {
      args.trace = num != 0;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Outcome (*run)(const perfbench::RunArgs&) = nullptr;
  if (args.workload == "cold_ladder") run = perfbench::run_cold_ladder;
  if (args.workload == "serve_md") run = perfbench::run_serve_md;
  if (args.workload == "capsid_mpi") run = perfbench::run_capsid_mpi;
  if (args.workload == "dock_scan") run = perfbench::run_dock_scan;
  if (!run) return usage("unknown or missing --workload");

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  perfbench::Outcome out;
  try {
    out = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload threw: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    perfbench::Tracer& t = perfbench::tracer();
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, out.traced_ops));
    std::printf("self time per layer over %llu traced operations "
                "(%zu spans):\n",
                static_cast<unsigned long long>(out.traced_ops), t.size());
    for (const auto& [layer, secs] : t.self_time_by_layer()) {
      std::printf("  %-8s %10.4f s total %10.4f s per op\n", layer.c_str(),
                  secs, secs / ops);
      out.add("self." + layer + "_s", secs / ops, "s");
    }
    if (!args.trace_out.empty()) {
      if (t.write(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "warning: could not write %s\n",
                     args.trace_out.c_str());
      }
    }
  }
  perfbench::conform_to_manifest(out, args.trace);
  perfbench::print_result(out);
  return 0;
}
