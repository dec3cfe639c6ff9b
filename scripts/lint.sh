#!/usr/bin/env bash
# lint.sh -- the project lint gate (stage 3 of scripts/ci.sh).
#
# Three layers:
#   1. scripts/detlint (python3, stdlib only): the one rule engine. It
#      runs every project rule with a comment/string-aware lexer: the
#      global hygiene rules (naked-new, float-eq, unseeded-rng,
#      mutex-unguarded; fastmath, sqrt-domain and narrow-cast in
#      src/gb/; rawclock, raw-mutex, raw-serialize and cv-wait-pred with
#      their path scopes and exempt files) plus the strict-contract rule
#      set (unordered-iter, shared-float-accum, nondet-taint, ...) scoped
#      by scripts/detlint/contracts.txt. Each rule is documented at the
#      top of scripts/detlint/rules.py; see DESIGN.md section 17.
#      Intentional exceptions carry `lint:allow(<rule>)` (global rules)
#      or `detlint:allow(<rule>): <why>` plus a justification.
#   2. TU coverage: every src/**/*.cpp must appear in
#      build/compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is ON
#      unconditionally). A TU built by no target is a TU no compiler,
#      tidy run, or analyzer ever sees -- that is a loud failure here,
#      never a silent skip.
#   3. clang-tidy over src/ with the repo's .clang-tidy config
#      (bugprone-*, concurrency-*, performance-*, curated modernize
#      subset). Skipped gracefully when clang-tidy is not installed.
#      (The TU coverage check above runs either way: it is
#      toolchain-independent.)
#
# Usage:
#   scripts/lint.sh              lint src/ (exit 1 on any violation)
#   scripts/lint.sh --selftest   prove each rule fires on a seeded
#                                violation and stays quiet on clean code
#                                (python3 scripts/detlint --selftest)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# ---------------------------------------------------------------- helpers

# Every src TU must be visible to the build (and thus to clang-tidy and
# any compile_commands consumer). Generates the tier-1 configure if the
# database is absent; a TU missing FROM the database is a hard failure,
# not a skip -- an unbuilt TU is unlinted, unwarned, and untested.
check_tu_coverage() {
  if [[ ! -f build/compile_commands.json ]]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
  python3 - <<'EOF'
import json, pathlib, sys
entries = json.load(open("build/compile_commands.json"))
seen = {str(pathlib.Path(e["file"]).resolve()) for e in entries}
missing = [str(p) for p in sorted(pathlib.Path("src").rglob("*.cpp"))
           if str(p.resolve()) not in seen]
if missing:
    print(f"lint: {len(missing)} src TU(s) missing from "
          "build/compile_commands.json -- built by no target, so no "
          "compiler or analyzer ever sees them:")
    for m in missing:
        print("  " + m)
    sys.exit(1)
print(f"lint: compile_commands coverage ok "
      f"({len([e for e in entries])} database entries cover all src TUs)")
EOF
}

# ------------------------------------------------------------------- main

if [[ "${1:-}" == "--selftest" ]]; then
  if python3 scripts/detlint --selftest; then
    echo "lint selftest OK"
    exit 0
  fi
  exit 1
fi

echo "==> lint: detlint (project rules + determinism contracts)"
if ! python3 scripts/detlint src; then
  fail=1
fi

echo "==> lint: TU coverage of build/compile_commands.json"
if ! check_tu_coverage; then
  fail=1
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> lint: clang-tidy (.clang-tidy config)"
  # Compile commands for the tidy run come from the tier-1 build tree.
  if [[ ! -f build/compile_commands.json ]]; then
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  if ! find src -name '*.cpp' | sort |
      xargs clang-tidy -p build --quiet; then
    fail=1
  fi
else
  echo "==> lint: clang-tidy not installed; skipping (detlint rules still enforced)"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
