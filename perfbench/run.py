#!/usr/bin/env python3
"""Builds the octgb benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cold_ladder|serve_md|capsid_mpi|dock_scan>
                             --seed <n> --seconds <s> --trace <0|1>

The build tree lives in .bench_build/perfbench under the repository root
and is reused by later runs. Build output goes to standard error; the
benchmark's last line of standard output is its JSON result, and the run
exits 1 if that line's metrics are not the ones BENCHMARK.json lists. With
--trace 1 the spans are written to .bench_build/perfbench-trace-*.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "octgb_perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode != 0:
            print("error: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("error: octgb sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 1
    if not build():
        return 1
    cmd = [BINARY] + args
    if option(args, "--trace") not in (None, "0"):
        name = "perfbench-trace-%s-seed%s.json" % (
            option(args, "--workload") or "unknown",
            option(args, "--seed") or "0")
        cmd += ["--trace-out", os.path.join(ROOT, ".bench_build", name)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    return check_result(proc.stdout, option(args, "--trace") not in (None, "0"))


def check_result(stdout, traced):
    """Exit status 1 unless the last line names exactly the metrics that
    BENCHMARK.json lists for this kind of run, each in its unit."""
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(manifest):
        return 0
    with open(manifest) as f:
        listed = json.load(f)["per_layer" if traced else "end_to_end"]
    lines = stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        print("error: the last line is not a JSON result", file=sys.stderr)
        return 1
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        print("error: metrics differ from BENCHMARK.json: %s" %
              sorted(set(got.items()) ^ set(want.items())), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
