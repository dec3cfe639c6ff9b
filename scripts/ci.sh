#!/usr/bin/env bash
# ci.sh -- the checks a PR must pass.
#
#   1. tier-1: Release build + full ctest suite (ROADMAP.md's verify).
#   2. sanitizer: ASan+UBSan build (OCTGB_SANITIZE=ON) of the fast
#      tests, run directly (the full suite under ASan is slow; the fast
#      set covers every module boundary the serving layer touches).
#   3. simd: batched-kernel equivalence under both SIMD configurations
#      -- the default build (the AVX2 TU gets -mavx2 -mfma on x86_64)
#      and an OCTGB_SIMD=OFF build where the scalar fallback must pass
#      the same bit-exactness/tolerance suite (kernels_batch_test) and
#      the driver and docking suites (runtime_test, docking_test).
#   4. lint: scripts/lint.sh -- detlint, the awk project rules,
#      compile-commands TU coverage, and clang-tidy (when installed).
#      See DESIGN.md "Static analysis & race detection".
#   5. detlint: the determinism gate. `python3 scripts/detlint
#      --selftest` (every rule must fire on its seeded violation and
#      honor its suppression), the full-tree contract scan (zero
#      unsuppressed findings), then the dynamic divergence oracle:
#      determinism_oracle_test runs every strict-contract pipeline at
#      1/2/8 workers and the digests must agree bit for bit. See
#      DESIGN.md section 17.
#   6. tsan: ThreadSanitizer build (OCTGB_TSAN=ON) of the concurrent
#      core's tests, run with halt_on_error so any report fails CI.
#   7. telemetry: OCTGB_TELEMETRY=OFF build must pass the full suite
#      (the instrumentation macros compile to nothing and must not
#      change behaviour), and the concurrency stress tests must be
#      TSan-clean with telemetry ON and the tracer armed (the lock-free
#      span recorder and the metrics registry run under contention).
#   8. validate: OCTGB_VALIDATE=ON build -- every contract checkpoint
#      armed -- must pass the full suite with FP-exception traps on
#      (OCTGB_FPE=1), then a mutation self-test proves the checkpoints
#      are live: each OCTGB_TEST_CORRUPT hook (born_sign, plan_drop,
#      bin_charge) flips one value mid-pipeline and the matching
#      validator must abort with a contract-violation report.
#   9. loadtest-smoke: the open-loop load harness (src/load) at smoke
#      scale in the validate build -- a 16-config capacity sweep plus
#      the live sim-vs-service demo. Passes iff it finishes inside the
#      time budget, no armed contract checkpoint trips, the emitted
#      BENCH_loadtest.json parses, carries >= 12 policy configs with
#      nonzero goodput, and the determinism self-check held.
#  10. fuzz-smoke: both fuzz targets (fuzz/) replay their seed corpora
#      and mutate for 60 s each, crash-free (OCTGB_FUZZ=ON build; uses
#      libFuzzer under clang, the bundled driver under gcc).
#  11. lockgraph: OCTGB_LOCKGRAPH=ON build, full suite with the
#      lock-order witness dumping per-process graphs, then
#      scripts/lockgraph_check.py must find the merged graph acyclic
#      (modulo the committed allowlist). A mutation self-test then
#      plants a deliberate ABBA inversion and the checker must FAIL on
#      it -- a gate that cannot see a real inversion is a dead gate.
#  12. sched-smoke: the deterministic schedule explorer re-runs the
#      race-stress scenarios (pool drain, cache evict-vs-refit, service
#      admission/shed, batch coalescing) across >= 1000 distinct seeded
#      schedules; run as one process so the schedule counter spans all
#      sweeps.
#  13. shard-smoke: the sharded serving layer (src/cluster) three ways
#      -- cluster_test under TSan with halt_on_error (router event loop,
#      worker poll loops and the codec run as real rank-threads), the
#      same suite in the OCTGB_VALIDATE build with FPE traps armed
#      (every service/octree checkpoint live while entries ship between
#      shards), and again in the OCTGB_LOCKGRAPH build with the
#      lock-order witness dumping graphs that the checker must find
#      acyclic.
#  14. treebuild: the linearized-construction equivalence suite
#      (octree_test: parallel build / refit bit-identity, re-key refit
#      vs rebuild through gb) under the OCTGB_VALIDATE build with FPE
#      traps -- every octree checkpoint armed, including the new
#      level-offset and key-range invariants -- then the same suite in
#      the TSan build with the tracer armed (the build/refit spans and
#      the pool contend for the telemetry rings).
#
# Usage: scripts/ci.sh [--tier1-only | --simd-only | --lint-only |
#                       --detlint-only | --tsan-only | --telemetry-only |
#                       --validate-only | --loadtest-smoke |
#                       --fuzz-smoke | --lockgraph-only |
#                       --sched-smoke-only | --shard-only |
#                       --treebuild-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
MODE="${1:-}"

run_tier1() {
  echo "==> tier-1: Release build + ctest"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_asan() {
  local FAST_TESTS=(geom_test molecule_test octree_test util_test
    parallel_test serve_test range_query_test celllist_misc_test)
  echo "==> sanitizer: ASan+UBSan build of fast tests"
  cmake -B build-asan -S . -DOCTGB_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-asan -j "$JOBS" --target "${FAST_TESTS[@]}"
  local t
  for t in "${FAST_TESTS[@]}"; do
    echo "--> $t"
    "build-asan/tests/$t" --gtest_brief=1
  done
}

run_simd() {
  echo "==> simd: kernel equivalence, AVX2 and no-SIMD builds"
  # Default build: src/CMakeLists.txt compiles the AVX2 TU with
  # -mavx2 -mfma on x86_64 and dispatches at runtime.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS" --target kernels_batch_test
  echo "--> kernels_batch_test (SIMD build)"
  build/tests/kernels_batch_test --gtest_brief=1
  # OCTGB_SIMD=OFF strips the AVX2 TU entirely; the scalar fallback
  # must pass the identical equivalence suite, and the drivers and the
  # docking scorer -- plan callers that take no SimdMode -- must pass on
  # the executor's scalar engine.
  local NOSIMD_TESTS=(kernels_batch_test runtime_test docking_test)
  cmake -B build-nosimd -S . -DOCTGB_SIMD=OFF \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-nosimd -j "$JOBS" --target "${NOSIMD_TESTS[@]}"
  local t
  for t in "${NOSIMD_TESTS[@]}"; do
    echo "--> $t (no-SIMD build)"
    "build-nosimd/tests/$t" --gtest_brief=1
  done
}

run_lint() {
  echo "==> lint: scripts/lint.sh"
  scripts/lint.sh
}

run_detlint() {
  command -v python3 >/dev/null 2>&1 || {
    echo "FAIL: detlint stage needs python3"
    return 1
  }
  # Static half. The selftest proves every rule FIRES on its seeded
  # violation and honors its suppression marker before the real scan is
  # trusted; the tree scan then enforces the contracts with zero
  # unsuppressed findings.
  echo "==> detlint: analyzer selftest (every rule fires + suppresses)"
  python3 scripts/detlint --selftest
  echo "==> detlint: contract scan over src/"
  python3 scripts/detlint src

  # Dynamic half: the divergence oracle. Every strict-contract pipeline
  # is digested at 1/2/8 workers (and repeated runs); any reordered
  # element or ulp of drift fails. Reuses the tier-1 Release tree.
  echo "==> detlint: divergence oracle (1/2/8 workers, bit-identical digests)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS" --target determinism_oracle_test
  build/tests/determinism_oracle_test --gtest_brief=1
}

run_tsan() {
  # The suites that exercise shared mutable state: the work-stealing
  # pool, the serving layer, the race stress battery, the simmpi rank
  # threads, the pooled surface loops (surface_test runs a pooled cold
  # call; celllist_misc_test a pooled PoseScorer), and the pooled plan
  # builder and executor (kernels_batch_test; docking_test's pooled
  # cross-tree Born plans). Executor chunks own whole targets and
  # write disjoint ranges with plain stores, so a chunking bug is a
  # data race TSan reports.
  local TSAN_TESTS=(parallel_test serve_test race_stress_test simmpi_test
                    surface_test celllist_misc_test kernels_batch_test
                    docking_test)
  echo "==> tsan: ThreadSanitizer build of concurrency tests"
  cmake -B build-tsan -S . -DOCTGB_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
  local t
  for t in "${TSAN_TESTS[@]}"; do
    echo "--> $t (TSAN_OPTIONS=halt_on_error=1)"
    TSAN_OPTIONS="halt_on_error=1" "build-tsan/tests/$t" --gtest_brief=1
  done
}

run_telemetry() {
  echo "==> telemetry: OCTGB_TELEMETRY=OFF build + full suite"
  # OFF build: every OCTGB_TRACE_SCOPE / OCTGB_COUNTER_ADD site expands
  # to `do {} while (0)`, so the whole suite must pass unchanged.
  cmake -B build-notele -S . -DOCTGB_TELEMETRY=OFF \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-notele -j "$JOBS"
  ctest --test-dir build-notele --output-on-failure -j "$JOBS"
  # ON + TSan + armed tracer: the per-thread seqlock rings and the
  # registry maps are hit from every pool/serve thread. Reuses the
  # build-tsan tree (telemetry defaults ON there).
  local TELE_TSAN_TESTS=(race_stress_test serve_test telemetry_test)
  echo "==> telemetry: TSan with tracer armed (OCTGB_TRACE=1)"
  cmake -B build-tsan -S . -DOCTGB_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target "${TELE_TSAN_TESTS[@]}"
  local t
  for t in "${TELE_TSAN_TESTS[@]}"; do
    echo "--> $t (OCTGB_TRACE=1, TSAN_OPTIONS=halt_on_error=1)"
    OCTGB_TRACE=1 TSAN_OPTIONS="halt_on_error=1" \
      "build-tsan/tests/$t" --gtest_brief=1
  done
}

run_validate() {
  echo "==> validate: OCTGB_VALIDATE=ON build + full suite under OCTGB_FPE=1"
  cmake -B build-validate -S . -DOCTGB_VALIDATE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-validate -j "$JOBS"
  OCTGB_FPE=1 ctest --test-dir build-validate --output-on-failure -j "$JOBS"

  # Mutation self-test: each hook corrupts one value mid-pipeline; a
  # checkpoint that fails to abort on it is a dead checkpoint, which
  # this gate treats as a CI failure.
  echo "==> validate: mutation self-test (OCTGB_TEST_CORRUPT hooks)"
  local hook out rc
  for hook in born_sign plan_drop bin_charge; do
    rc=0
    out=$(OCTGB_TEST_CORRUPT="$hook" build-validate/examples/quickstart 2>&1) \
      || rc=$?
    if [[ "$rc" -eq 0 ]]; then
      echo "FAIL: corruption hook '$hook' was not caught (exit 0)"
      return 1
    fi
    if ! grep -q "contract violated" <<<"$out"; then
      echo "FAIL: hook '$hook' died without a contract report (exit $rc):"
      printf '%s\n' "$out"
      return 1
    fi
    echo "--> $hook: caught ($(grep -m1 'contract violated' <<<"$out"))"
  done
}

run_loadtest() {
  # Smoke-scale: 16 policies x 4 loads x 500 requests = 32k virtual
  # requests, plus the live sim-vs-service demo -- well under the 30 s
  # budget. Runs in the build-validate tree so every armed contract
  # checkpoint (serve invariants included) gets exercised by real
  # service traffic; any trip aborts the binary and fails the stage.
  echo "==> loadtest-smoke: capacity sweep + live replay (validate build)"
  cmake -B build-validate -S . -DOCTGB_VALIDATE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-validate -j "$JOBS" --target loadtest load_demo
  local json=build-validate/BENCH_loadtest.json
  rm -f "$json"
  echo "--> loadtest (LOADTEST_REQUESTS=500)"
  (cd build-validate && LOADTEST_REQUESTS=500 timeout 30 bench/loadtest)
  echo "--> load_demo (live open-loop replay)"
  timeout 60 build-validate/examples/load_demo

  if [[ ! -f "$json" ]]; then
    echo "FAIL: $json was not written"
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    record = json.load(f)  # throws (fails the stage) on invalid JSON
rows = record["capacity"]
assert len(rows) >= 12, f"only {len(rows)} policy configs in capacity table"
good = [c["goodput_rps"] for r in rows for c in r["cells"]]
assert any(g > 0 for g in good), "zero goodput everywhere"
assert record.get("deterministic") == 1, "determinism self-check failed"
print(f"--> BENCH_loadtest.json: valid, {len(rows)} configs, "
      f"peak goodput {max(good):.0f} rps")
EOF
  else
    # No python3: at least prove the record exists and carries goodput.
    grep -q '"goodput_rps"' "$json" || {
      echo "FAIL: no goodput_rps in $json"
      return 1
    }
    echo "--> BENCH_loadtest.json present (python3 unavailable; JSON not parsed)"
  fi
}

run_fuzz() {
  local budget="${OCTGB_FUZZ_BUDGET:-60}"
  echo "==> fuzz-smoke: OCTGB_FUZZ=ON build, ${budget}s per target"
  cmake -B build-fuzz -S . -DOCTGB_FUZZ=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-fuzz -j "$JOBS" \
    --target fuzz_molecule_io fuzz_plan fuzz_codec
  local t
  for t in fuzz_molecule_io fuzz_plan fuzz_codec; do
    echo "--> $t (corpus fuzz/corpus/${t#fuzz_}, -max_total_time=$budget)"
    "build-fuzz/fuzz/$t" -max_total_time="$budget" \
      "fuzz/corpus/${t#fuzz_}"
  done
}

run_lockgraph() {
  command -v python3 >/dev/null 2>&1 || {
    echo "FAIL: lockgraph stage needs python3 for the checker"
    return 1
  }
  echo "==> lockgraph: OCTGB_LOCKGRAPH=ON build + full suite + checker"
  cmake -B build-lockgraph -S . -DOCTGB_LOCKGRAPH=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-lockgraph -j "$JOBS"
  # Absolute path: ctest runs each test with its own working directory,
  # so a relative $OCTGB_LOCKGRAPH_OUT would resolve per-test.
  local dumps="$PWD/build-lockgraph/lockgraph-dumps"
  rm -rf "$dumps" && mkdir -p "$dumps"
  # ctest runs one process per test; each dumps its graph at exit.
  OCTGB_LOCKGRAPH_OUT="$dumps" \
    ctest --test-dir build-lockgraph --output-on-failure -j "$JOBS"
  python3 scripts/lockgraph_check.py "$dumps" \
    --merged-out build-lockgraph/lockgraph-merged.json

  # Mutation self-test: LockgraphGateSelfTest.DeliberateInversion (only
  # live under OCTGB_LOCKGRAPH_SELFTEST=1) takes two locks in both
  # orders and deliberately skips the reset, so its process-exit dump
  # carries a genuine ABBA cycle. The checker must FAIL on that dump
  # (--expect-cycle inverts its verdict).
  echo "==> lockgraph: mutation self-test (planted ABBA inversion)"
  local seeded=build-lockgraph/lockgraph-selftest
  rm -rf "$seeded" && mkdir -p "$seeded"
  OCTGB_LOCKGRAPH_SELFTEST=1 OCTGB_LOCKGRAPH_OUT="$seeded" \
    build-lockgraph/tests/lockgraph_test \
    --gtest_filter='LockgraphGateSelfTest.*' --gtest_brief=1
  python3 scripts/lockgraph_check.py "$seeded" --expect-cycle
}

run_sched_smoke() {
  # Four scenario sweeps x OCTGB_SCHED_SEEDS seeds each; the binary
  # runs as ONE process (not under ctest) so the cross-test schedule
  # counter spans all sweeps and SchedSmokeTest.SmokeTotal can enforce
  # the floor.
  local seeds="${OCTGB_SCHED_SEEDS:-250}"
  echo "==> sched-smoke: schedule explorer, $seeds seeds per scenario sweep"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS" --target sched_explore_test
  OCTGB_SCHED_SEEDS="$seeds" OCTGB_SCHED_MIN_TOTAL="$((4 * seeds))" \
    build/tests/sched_explore_test --gtest_brief=1
}

run_shard() {
  # The cluster suite covers the codec (round-trip bit-identity, typed
  # rejection), the hash ring, the router policy object, the live
  # router + R-shard simmpi cluster and the deterministic shard sim.
  echo "==> shard-smoke: cluster suite under TSan"
  cmake -B build-tsan -S . -DOCTGB_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target cluster_test
  TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/cluster_test --gtest_brief=1

  echo "==> shard-smoke: cluster suite with contract checkpoints + FPE traps"
  cmake -B build-validate -S . -DOCTGB_VALIDATE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-validate -j "$JOBS" --target cluster_test
  OCTGB_FPE=1 build-validate/tests/cluster_test --gtest_brief=1

  command -v python3 >/dev/null 2>&1 || {
    echo "FAIL: shard-smoke lockgraph check needs python3"
    return 1
  }
  echo "==> shard-smoke: cluster suite with the lock-order witness armed"
  cmake -B build-lockgraph -S . -DOCTGB_LOCKGRAPH=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-lockgraph -j "$JOBS" --target cluster_test
  local dumps="$PWD/build-lockgraph/lockgraph-shard"
  rm -rf "$dumps" && mkdir -p "$dumps"
  OCTGB_LOCKGRAPH_OUT="$dumps" \
    build-lockgraph/tests/cluster_test --gtest_brief=1
  python3 scripts/lockgraph_check.py "$dumps"
}

run_treebuild() {
  # Equivalence under contract checkpoints: the randomized octree suite
  # asserts identical topology / point order / bit-identical aggregates
  # across worker counts and re-key refit == rebuild through gb, while
  # OCTGB_VALIDATE arms the octree checkpoints (level-offset and
  # key-range invariants included) on every build and refit it does.
  echo "==> treebuild: octree equivalence suite (validate build, FPE traps)"
  cmake -B build-validate -S . -DOCTGB_VALIDATE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-validate -j "$JOBS" --target octree_test
  OCTGB_FPE=1 build-validate/tests/octree_test --gtest_brief=1

  # Race coverage: the same suite under TSan with the tracer armed --
  # the radix-sort phases, the per-level splitting/aggregate loops and
  # the refit sweeps all run on the pool while emitting spans.
  echo "==> treebuild: octree equivalence suite (TSan, tracer armed)"
  cmake -B build-tsan -S . -DOCTGB_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target octree_test
  OCTGB_TRACE=1 TSAN_OPTIONS="halt_on_error=1" \
    build-tsan/tests/octree_test --gtest_brief=1
}

case "$MODE" in
  --tier1-only)
    run_tier1
    echo "==> tier-1 OK (remaining stages skipped)"
    ;;
  --simd-only)
    run_simd
    echo "==> simd OK"
    ;;
  --lint-only)
    run_lint
    echo "==> lint OK"
    ;;
  --detlint-only)
    run_detlint
    echo "==> detlint OK"
    ;;
  --tsan-only)
    run_tsan
    echo "==> tsan OK"
    ;;
  --telemetry-only)
    run_telemetry
    echo "==> telemetry OK"
    ;;
  --validate-only)
    run_validate
    echo "==> validate OK"
    ;;
  --fuzz-smoke)
    run_fuzz
    echo "==> fuzz-smoke OK"
    ;;
  --loadtest-smoke)
    run_loadtest
    echo "==> loadtest-smoke OK"
    ;;
  --lockgraph-only)
    run_lockgraph
    echo "==> lockgraph OK"
    ;;
  --sched-smoke-only)
    run_sched_smoke
    echo "==> sched-smoke OK"
    ;;
  --shard-only)
    run_shard
    echo "==> shard-smoke OK"
    ;;
  --treebuild-only)
    run_treebuild
    echo "==> treebuild OK"
    ;;
  "")
    run_tier1
    run_asan
    run_simd
    run_lint
    run_detlint
    run_tsan
    run_telemetry
    run_validate
    run_loadtest
    run_fuzz
    run_lockgraph
    run_sched_smoke
    run_shard
    run_treebuild
    echo "==> CI OK"
    ;;
  *)
    echo "usage: scripts/ci.sh [--tier1-only | --simd-only | --lint-only | --detlint-only | --tsan-only | --telemetry-only | --validate-only | --loadtest-smoke | --fuzz-smoke | --lockgraph-only | --sched-smoke-only | --shard-only | --treebuild-only]" >&2
    exit 2
    ;;
esac
