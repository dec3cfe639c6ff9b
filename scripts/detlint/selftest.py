# selftest.py -- detlint proves its own rules.
#
# Every rule gets at least one seeded violation that MUST fire and one
# "twin" -- the fixed form, a suppressed form, or the same code under a
# besteffort contract -- that MUST stay silent. A linter whose rules
# silently rot is worse than none (the same philosophy as the mutation
# self-test behind OCTGB_TEST_CORRUPT: prove the detector detects).
#
# The "parity:" fixtures of the global rules (naked-new, float-eq,
# unseeded-rng, mutex-unguarded and the path-scoped fastmath,
# sqrt-domain, narrow-cast, rawclock, raw-mutex, raw-serialize and
# cv-wait-pred) carry the seeds of the retired awk layer's selftest
# verbatim: each rule fires on its seed, stays silent outside its path
# scope or in its exempt files, and honors legacy lint:allow markers.

from __future__ import annotations

import dataclasses

from . import contracts as contracts_mod
from . import rules

_MANIFEST = [
    ("strict", "src/det"),
    ("besteffort", "src/loose"),
    ("besteffort", "src/det/live.cpp"),
]
_SANCTIONS = [("wallclock", "src/det/clock.h")]


@dataclasses.dataclass
class Case:
    name: str
    path: str              # fixture-relative path (decides contract level)
    source: str
    fires: list[str]       # rules that must appear, with multiplicity
    silent: list[str] = dataclasses.field(default_factory=list)
    # companion header contents for the sibling-header TU approximation
    header: str | None = None


# Seeds shared by several path-scoped cases below.
_FASTMATH_SEED = """#include <cmath>
double pair(double q, double f2) { return q / std::sqrt(f2); }
double decay(double x) { return std::exp(-x); }
"""
_SQRT_DOMAIN_SEED = """#include <cmath>
double sixth_root(double eps) { return std::pow(1.0 + eps, 1.0 / 6.0); }
double gap(double a, double b) { return std::sqrt(a - b); }
"""
_NARROW_CAST_SEED = """#include <cmath>
int bin(double r) { return static_cast<int>(std::log(r) * 1.4427); }
"""
_RAWCLOCK_SEED = """#include <chrono>
long ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
"""
_RAW_MUTEX_SEED = """#include <mutex>
void touch(std::mutex& mu) { std::lock_guard<std::mutex> g(mu); }
"""
_STRUCT_DUMP_SEED = """#include <cstring>
struct Hdr { unsigned magic; unsigned len; };
void dump(char* out, const Hdr& h) { std::memcpy(out, &h, sizeof h); }
const Hdr* peek(const char* in) { return reinterpret_cast<const Hdr*>(in); }
"""


def _contracts() -> contracts_mod.Contracts:
    c = contracts_mod.Contracts()
    c.path = "<selftest>"
    for level, prefix in _MANIFEST:
        c.levels[prefix] = level
    c.sanctions = list(_SANCTIONS)
    return c


CASES: list[Case] = [
    # ---- unordered-iter --------------------------------------------------
    Case("unordered-iter fires on range-for in strict module",
         "src/det/iter_bad.cpp",
         """#include <unordered_map>
double drain() {
  std::unordered_map<int, double> pending;
  double sum = 0.0;
  for (const auto& [k, v] : pending) sum += v;
  return sum;
}
""",
         fires=["unordered-iter"]),
    Case("unordered-iter fires on begin() iterator walk",
         "src/det/iter_begin.cpp",
         """#include <unordered_set>
int count_all(const std::unordered_set<int>& dummy) {
  std::unordered_set<int> seen;
  int n = 0;
  for (auto it = seen.begin(); it != seen.end(); ++it) ++n;
  return n;
}
""",
         fires=["unordered-iter"]),
    Case("unordered-iter catches a member declared in the sibling header",
         "src/det/iter_hdr.cpp",
         """#include "src/det/iter_hdr.h"
void Registry::dump() const {
  for (const auto& [k, v] : entries_) use(k, v);
}
""",
         fires=["unordered-iter"],
         header="""#include <unordered_map>
class Registry {
 public:
  void dump() const;
 private:
  std::unordered_map<unsigned long, int> entries_;
};
"""),
    Case("unordered-iter silent on lookups (find/count/operator[])",
         "src/det/iter_lookup.cpp",
         """#include <unordered_map>
int lookup(int k) {
  std::unordered_map<int, int> cache;
  cache[k] = 1;
  auto it = cache.find(k);
  return it == cache.end() ? 0 : it->second + static_cast<int>(cache.count(k));
}
""",
         fires=[], silent=["unordered-iter"]),
    Case("unordered-iter silent on std::map iteration",
         "src/det/iter_map.cpp",
         """#include <map>
double drain() {
  std::map<int, double> pending;
  double sum = 0.0;
  for (const auto& [k, v] : pending) sum += v;
  return sum;
}
""",
         fires=[], silent=["unordered-iter"]),
    Case("unordered-iter silent in besteffort module",
         "src/loose/iter_loose.cpp",
         """#include <unordered_map>
double drain() {
  std::unordered_map<int, double> pending;
  double sum = 0.0;
  for (const auto& [k, v] : pending) sum += v;
  return sum;
}
""",
         fires=[], silent=["unordered-iter"]),
    Case("unordered-iter honors a justified detlint:allow",
         "src/det/iter_allowed.cpp",
         """#include <unordered_map>
double drain() {
  std::unordered_map<int, double> pending;
  double sum = 0.0;
  // detlint:allow(unordered-iter): order-insensitive fold (max), proven
  for (const auto& [k, v] : pending) sum = sum > v ? sum : v;
  return sum;
}
""",
         fires=[], silent=["unordered-iter"]),

    # ---- ptr-key-order ---------------------------------------------------
    Case("ptr-key-order fires on pointer-keyed std::map",
         "src/det/ptrkey_bad.cpp",
         """#include <map>
struct Node { int v; };
int sum_owners(const std::map<Node*, int>& owners) {
  int s = 0;
  for (const auto& [n, c] : owners) s += c;
  return s;
}
""",
         fires=["ptr-key-order"]),
    Case("ptr-key-order silent on id-keyed map",
         "src/det/ptrkey_good.cpp",
         """#include <map>
int sum_owners(const std::map<unsigned long, int>& owners) {
  int s = 0;
  for (const auto& [id, c] : owners) s += c;
  return s;
}
""",
         fires=[], silent=["ptr-key-order"]),

    # ---- unstable-sort ---------------------------------------------------
    Case("unstable-sort fires on std::sort in strict module",
         "src/det/sort_bad.cpp",
         """#include <algorithm>
#include <vector>
void order(std::vector<int>& v) { std::sort(v.begin(), v.end()); }
""",
         fires=["unstable-sort"]),
    Case("unstable-sort silent on std::stable_sort",
         "src/det/sort_good.cpp",
         """#include <algorithm>
#include <vector>
void order(std::vector<int>& v) { std::stable_sort(v.begin(), v.end()); }
""",
         fires=[], silent=["unstable-sort"]),
    Case("unstable-sort honors a justified allow (total-order comparator)",
         "src/det/sort_allowed.cpp",
         """#include <algorithm>
#include <vector>
void order(std::vector<int>& v) {
  // detlint:allow(unstable-sort): int keys are unique, < is total here
  std::sort(v.begin(), v.end());
}
""",
         fires=[], silent=["unstable-sort"]),

    # ---- wallclock / sanction -------------------------------------------
    Case("wallclock fires in a strict module",
         "src/det/clock_bad.cpp",
         """#include <chrono>
long stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
         # rawclock is the global rule over the same read.
         fires=["wallclock", "rawclock"]),
    Case("wallclock silent in the sanctioned clock shim",
         "src/det/clock.h",
         """#include <chrono>
inline long stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
         # The sanction covers the strict rule only; rawclock's one
         # exempt shim is src/load/clock.h.
         fires=["rawclock"], silent=["wallclock"]),

    # ---- thread-id / env-read / shared-float-accum ----------------------
    Case("thread-id fires in a strict module",
         "src/det/tid_bad.cpp",
         """#include <thread>
bool is_owner(std::thread::id owner) {
  return owner == std::this_thread::get_id();
}
""",
         fires=["thread-id"]),
    Case("thread-id honors a justified allow",
         "src/det/tid_allowed.cpp",
         """#include <thread>
bool is_owner(std::thread::id owner) {
  // detlint:allow(thread-id): equality-only reentrancy guard
  return owner == std::this_thread::get_id();
}
""",
         fires=[], silent=["thread-id"]),
    Case("env-read fires in a strict module",
         "src/det/env_bad.cpp",
         """#include <cstdlib>
const char* knob() { return std::getenv("OCTGB_KNOB"); }
""",
         fires=["env-read"]),
    Case("env-read silent in besteffort module",
         "src/loose/env_loose.cpp",
         """#include <cstdlib>
const char* knob() { return std::getenv("OCTGB_KNOB"); }
""",
         fires=[], silent=["env-read"]),
    Case("shared-float-accum fires on atomic<double>",
         "src/det/accum_bad.cpp",
         """#include <atomic>
double reduce(const double* x, int n) {
  std::atomic<double> total{0.0};
  for (int i = 0; i < n; ++i) total.fetch_add(x[i]);
  return total.load();
}
""",
         fires=["shared-float-accum"]),
    Case("shared-float-accum fires on atomic_ref<double>",
         "src/det/accum_ref.cpp",
         """#include <atomic>
void deposit(double& slot, double v) {
  std::atomic_ref<double>(slot).fetch_add(v);
}
""",
         fires=["shared-float-accum"]),
    Case("shared-float-accum silent on integer atomics",
         "src/det/accum_int.cpp",
         """#include <atomic>
#include <cstddef>
void count(std::atomic<std::size_t>& n) { n.fetch_add(1); }
""",
         fires=[], silent=["shared-float-accum"]),

    # ---- nondet-taint ----------------------------------------------------
    Case("nondet-taint propagates through the per-TU call graph",
         "src/det/taint_bad.cpp",
         """#include <chrono>
static long stamp_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
static long jittered(long base) { return base + stamp_ns() % 3; }
long schedule(long base) { return jittered(base); }
""",
         # stamp_ns: direct wallclock (and rawclock); jittered +
         # schedule: tainted.
         fires=["wallclock", "rawclock", "nondet-taint", "nondet-taint"]),
    Case("nondet-taint silent when the source is justified-allowed",
         "src/det/taint_allowed.cpp",
         """#include <thread>
static bool on_owner(std::thread::id owner) {
  // detlint:allow(thread-id): equality-only check, never serialized
  return owner == std::this_thread::get_id();
}
bool guard(std::thread::id owner) { return on_owner(owner); }
""",
         fires=[], silent=["thread-id", "nondet-taint"]),
    Case("nondet-taint silent on a clean call chain",
         "src/det/taint_clean.cpp",
         """static long helper(long x) { return x * 3; }
long triple(long x) { return helper(x); }
""",
         fires=[], silent=["nondet-taint"]),

    # ---- suppression hygiene --------------------------------------------
    Case("bare detlint:allow without justification is itself a finding",
         "src/det/bare_allow.cpp",
         """#include <algorithm>
#include <vector>
void order(std::vector<int>& v) {
  std::sort(v.begin(), v.end());  // detlint:allow(unstable-sort)
}
""",
         fires=["bare-allow", "unstable-sort"]),

    # ---- global rules: parity fixtures (retired awk selftest seeds) ----
    Case("parity: naked-new fires (awk selftest fixture)",
         "src/loose/naked_new.cpp",
         """int* leak() { return new int(3); }
void free_it(int* p) { delete p; }
""",
         fires=["naked-new", "naked-new"]),
    Case("parity: float-eq fires (awk selftest fixture)",
         "src/loose/float_eq.cpp",
         """bool converged(double residual) { return residual == 0.0; }
""",
         fires=["float-eq"]),
    Case("parity: unseeded-rng fires (awk selftest fixture)",
         "src/loose/unseeded_rng.cpp",
         """#include <cstdlib>
int roll() { return rand() % 6; }
""",
         fires=["unseeded-rng"]),
    Case("parity: mutex-unguarded fires (awk selftest fixture)",
         "src/loose/mutex_unguarded.h",
         """#include <mutex>
class Queue {
  std::mutex mu_;
  int depth_ = 0;
};
""",
         fires=["mutex-unguarded", "raw-mutex"]),
    Case("parity: clean + legacy lint:allow markers pass (awk fixture)",
         "src/loose/clean.cpp",
         """// Mentions of new, delete, rand() and 1.0 == in comments are fine.
#include <memory>
const char* kMsg = "new delete rand() == 1.0";  // strings are fine too
int* sanctioned() { return new int(7); }  // lint:allow(naked-new) test
bool exact(double d) { return d == 0.0; }  // lint:allow(float-eq) test
""",
         fires=[], silent=["naked-new", "float-eq", "unseeded-rng"]),
    Case("mutex-unguarded silent when annotated or static",
         "src/loose/mutex_good.h",
         """#include <mutex>
#define OCTGB_GUARDED_BY(x)
class Queue {
  std::mutex mu_;
  int depth_ OCTGB_GUARDED_BY(mu_) = 0;
};
int ticket() {
  static std::mutex reg_mu;
  return 0;
}
""",
         # raw-mutex still flags both raw std::mutex declarations.
         fires=["raw-mutex", "raw-mutex"], silent=["mutex-unguarded"]),

    # ---- path-scoped global rules: parity fixtures (same seeds) --------
    Case("parity: fastmath fires in src/gb/ (awk selftest fixture)",
         "src/gb/fastmath.cpp", _FASTMATH_SEED,
         fires=["fastmath", "fastmath"]),
    Case("parity: fastmath silent outside src/gb/",
         "elsewhere.cpp", _FASTMATH_SEED, fires=[], silent=["fastmath"]),
    Case("parity: fastmath honors legacy lint:allow markers",
         "src/gb/fastmath_allowed.cpp",
         """#include <cmath>
// lint:allow(fastmath) reference kernel, must match libm
double pair(double q, double f2) { return q / std::sqrt(f2); }
double decay(double x) { return std::exp(-x); }  // lint:allow(fastmath) setup
""",
         fires=[], silent=["fastmath"]),
    Case("parity: sqrt-domain fires in src/gb/ (awk selftest fixture)",
         "src/gb/sqrt_domain.cpp", _SQRT_DOMAIN_SEED,
         fires=["sqrt-domain", "sqrt-domain"]),
    Case("parity: narrow-cast fires in src/gb/ (awk selftest fixture)",
         "src/gb/narrow_cast.cpp", _NARROW_CAST_SEED, fires=["narrow-cast"]),
    Case("parity: sqrt-domain/narrow-cast silent outside src/gb/",
         "sqrt_domain.cpp", _SQRT_DOMAIN_SEED + _NARROW_CAST_SEED,
         fires=[], silent=["sqrt-domain", "narrow-cast"]),
    Case("parity: rounded casts and legacy markers pass in src/gb/",
         "src/gb/gb_clean.cpp",
         """#include <cmath>
// Rounded casts, positive-argument sqrt and allow-marked sites pass.
int bins(double x) { return static_cast<int>(std::ceil(std::log(x))); }
double dist(double d2) { return std::sqrt(d2); }
// lint:allow(sqrt-domain) selftest: domain established by caller
double k6(double eps) { return std::pow(1.0 + eps, 1.0 / 6.0); }
// lint:allow(narrow-cast) selftest: truncation is the rule
int bin_floor(double r) { return static_cast<int>(std::log(r) * 1.4); }
""",
         fires=[], silent=["sqrt-domain", "narrow-cast", "fastmath"]),
    Case("parity: rawclock fires (awk selftest fixture)",
         "rawclock.cpp", _RAWCLOCK_SEED, fires=["rawclock"]),
    *[Case(f"parity: rawclock silent in exempt {path}", path,
           _RAWCLOCK_SEED, fires=[], silent=["rawclock"])
      for path in ("src/telemetry/clock.cpp", "bench/clock.cpp",
                   "src/load/clock.h")],
    Case("parity: rawclock still fires elsewhere in src/load/",
         "src/load/driver.cpp", _RAWCLOCK_SEED, fires=["rawclock"]),
    Case("parity: rawclock honors legacy lint:allow (awk clean fixture)",
         "clean.cpp",
         """// Mentions of steady_clock::now() in comments are fine.
#include <memory>
const char* kMsg = "steady_clock::now()";  // strings are fine too
// lint:allow(rawclock) deadline-wait test case
long deadline() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
""",
         fires=[], silent=["rawclock"]),
    Case("parity: raw-mutex fires (awk selftest fixture)",
         "raw_mutex.cpp", _RAW_MUTEX_SEED, fires=["raw-mutex"]),
    *[Case(f"parity: raw-mutex silent in exempt {path}", path,
           _RAW_MUTEX_SEED, fires=[], silent=["raw-mutex"])
      for path in ("src/util/thread_annotations.h",
                   "src/analysis/sched/sched_case.cpp",
                   "src/analysis/lockgraph/lg_case.cpp")],
    Case("parity: raw-mutex honors legacy lint:allow markers",
         "raw_mutex_allowed.cpp",
         """#include <mutex>
// lint:allow(raw-mutex) selftest: justification goes here
void touch(std::mutex& mu) { std::lock_guard<std::mutex> g(mu); }
""",
         fires=[], silent=["raw-mutex"]),
    *[Case(f"parity: raw-serialize fires in {path} (awk selftest fixture)",
           path, _STRUCT_DUMP_SEED, fires=["raw-serialize", "raw-serialize"])
      for path in ("src/cluster/struct_dump.cpp",
                   "src/serve/struct_dump.cpp")],
    *[Case(f"parity: raw-serialize silent in {path}", path,
           _STRUCT_DUMP_SEED, fires=[], silent=["raw-serialize"])
      for path in ("src/cluster/codec.cpp", "src/baselines/pack.cpp")],
    Case("parity: raw-serialize honors legacy lint:allow markers",
         "src/cluster/marked.cpp",
         """#include <cstring>
struct Hdr { unsigned magic; unsigned len; };
// lint:allow(raw-serialize) selftest: justification goes here
void dump(char* out, const Hdr& h) { std::memcpy(out, &h, sizeof h); }
""",
         fires=[], silent=["raw-serialize"]),
    Case("parity: cv-wait-pred fires (awk selftest fixture)",
         "src/analysis/sched/naked_wait.cpp",
         """#include <condition_variable>
#include <mutex>
void park(std::condition_variable& cv, std::unique_lock<std::mutex>& lk) {
  cv.wait(lk);
}
""",
         fires=["cv-wait-pred"]),
    Case("parity: cv-wait-pred silent on predicate loops and legacy markers",
         "src/analysis/sched/guarded_wait.cpp",
         """#include <condition_variable>
#include <mutex>
void park(std::condition_variable& cv, std::unique_lock<std::mutex>& lk,
          bool& ready) {
  while (!ready) cv.wait(lk);
  while (!ready)
    cv.wait(lk);
  // lint:allow(cv-wait-pred) selftest: predicate re-checked by caller
  cv.wait(lk);
  cv.wait(lk, [&] { return ready; });
}
""",
         fires=[], silent=["cv-wait-pred"]),

    # ---- lexer immunity --------------------------------------------------
    Case("raw strings and block comments cannot trip rules",
         "src/det/lexer_immune.cpp",
         """/* std::sort(everything) and rand() in prose,
   spanning lines, plus getenv("X") */
const char* kDoc = R"(std::sort(v.begin(), v.end()); rand(); new int;)";
const char kQuote = '"';
int after(int x) { return x + 1; }  // std::this_thread::get_id() in prose
""",
         fires=[],
         silent=["unstable-sort", "unseeded-rng", "env-read", "naked-new",
                 "thread-id"]),
]


def run() -> int:
    import os
    import tempfile

    contracts = _contracts()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            if case.header is not None:
                hpath = os.path.join(tmp, case.path[:-4] + ".h")
                os.makedirs(os.path.dirname(hpath), exist_ok=True)
                with open(hpath, "w", encoding="utf-8") as fh:
                    fh.write(case.header)
            fpath = os.path.join(tmp, case.path)
            os.makedirs(os.path.dirname(fpath), exist_ok=True)
            with open(fpath, "w", encoding="utf-8") as fh:
                fh.write(case.source)

            findings = rules.analyze_file(fpath, case.path, case.source,
                                          contracts)
            got = sorted(f.rule for f in findings)
            want = sorted(case.fires)
            ok = got == want and not any(f.rule in case.silent
                                         for f in findings)
            if ok:
                print(f"selftest ok: {case.name}")
            else:
                failures += 1
                print(f"selftest FAIL: {case.name}")
                print(f"  want rules: {want}")
                print(f"  got  rules: {got}")
                for f in findings:
                    print("  " + f.human().replace(chr(10), chr(10) + "  "))
    if failures:
        print(f"detlint selftest: {failures} case(s) FAILED"
              f" of {len(CASES)}")
        return 1
    print(f"detlint selftest OK ({len(CASES)} cases)")
    return 0
