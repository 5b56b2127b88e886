#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads: grid and serve_churn, plus serve_ingest and serve_hot, which run
but are not in BENCHMARK.json (see perfbench/workloads.hpp). The seed drives the
inline graphs of serve_ingest and the churn pairs of serve_churn; the
program receives only the generated inputs. The default seed is 1; confirm
a later claim on seed 2 as well.

The first run configures and builds the tcgpu libraries and the perfbench
binary under .bench_build/perfbench (RelWithDebInfo, the repository's
default build type); later runs only re-check that build. Build output goes
to stderr, so the last stdout line is the binary's JSON result.

The script exits non-zero when the binary reports a wrong count or a broken
workload invariant (its result then says "correct": false), and without a
result when the sources are missing, the build fails, or the metric names
differ from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("grid", "serve_hot", "serve_ingest", "serve_churn")
RUN_TIMEOUT_S = 175


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the tcgpu sources (src/) are missing", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    binary = BUILD / "perfbench"
    st = binary.stat()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD / "out"),
           "--build-id", f"{st.st_size}-{st.st_mtime_ns}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
