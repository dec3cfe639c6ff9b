// common.h -- run context, result record, statistics and checks shared by
// every workload of the octgb benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/molecule/molecule.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
  /// now_s() when main() started: setup_s runs from here to the end of
  /// the workload's set-up.
  double process_start = 0.0;
};

/// Whether a run that started at `start` adds another round: runs do
/// whole rounds until `seconds` have passed, and never fewer than
/// `min_rounds`.
bool more_rounds(double start, double seconds, int rounds_done,
                 int min_rounds);

/// Deterministic 64-bit mix of a seed and a salt (splitmix64 finalizer),
/// so each input of a workload gets its own stream from one --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
};

/// What one run reports. `correct` turns false as soon as any check
/// (or any check's self-test) fails; the reasons are printed.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  /// Traced runs: operations the recorded spans cover (self time per
  /// layer is reported per operation).
  std::uint64_t traced_ops = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, false});
  }
  void add_count(const std::string& name, double value,
                 const std::string& unit = "count") {
    metrics.push_back({name, value, unit, true});
  }

  /// Records a property check together with its self-test: `check` must
  /// accept the real value and reject `perturbed`, a deliberately
  /// corrupted copy. A check that accepts the corruption is itself
  /// broken and fails the run just like a violated property.
  void check(const std::string& name, const std::function<bool()>& check,
             const std::function<bool()>& perturbed);
};

/// Host-speed yardstick. The host's speed drifts by tens of percent over
/// minutes (contention for the physical cores behind its vCPUs). Each
/// timed phase interleaves short passes of fixed floating-point work
/// written here -- not program code, so it is the same on every commit --
/// with its operations, and reports its timings scaled by
/// kPassRef / (fastest pass of the run). The pass does no memory traffic
/// beyond registers: a yardstick that also read a 64 MB table followed
/// a different neighbour than the program and added noise.
class Yardstick {
 public:
  /// Nominal seconds of one pass: the fastest pass seen on a quiet
  /// 4-vCPU Xeon host.
  static constexpr double kPassRef = 0.0019;

  /// Times `passes` passes (about 2 ms each).
  void sample(int passes);
  /// kPassRef / fastest pass so far.
  double scale() const;

 private:
  std::vector<double> passes_;
};

/// Median of a sample (NaN for an empty one).
double median(std::vector<double> v);

/// Smallest value of a sample (NaN for an empty one).
double minimum(const std::vector<double>& v);

/// Prints the result as one JSON line: correct, attempted, failed and the
/// metrics by name with value and unit.
void print_result(const Outcome& out);

// ---- property predicates (each paired with a perturbation in use) ----

/// |a - b| <= tol * |b|.
bool within_rel(double a, double b, double tol);

/// Bitwise equality of two doubles.
bool bit_equal(double a, double b);

/// The smallest representable change of `x` (bit-identity self-tests).
double next_up(double x);

/// A copy of `mol` with every charge multiplied by `factor`.
octgb::molecule::Molecule scale_charges(const octgb::molecule::Molecule& mol,
                                        double factor);

/// Indices of `k` distinct atoms out of `n`, drawn deterministically from
/// `seed`, ascending.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t seed);

}  // namespace perfbench
