#!/usr/bin/env python3
"""Perf ledger: one seeded benchmark of the parsim engine.

Usage (from anywhere; paths resolve against the checkout holding this file):

    python3 bench/ledger/run.py [--workload W] [--seed S] [--trace 0|1]
                                [--smoke] [--out DIR]

Builds the Release library and the perf_ledger driver into build-ledger/,
runs workload W (all five when omitted), prints `workload metric value unit`
lines, writes one JSON ledger per workload run into DIR (default
build-ledger/ledger/) and ends each workload with one JSON result line:
{"correct", "attempted", "failed", "metrics"}. --trace 1 runs with phase
profiling and spans on, reports the per-layer metrics instead of the
end-to-end ones and writes the spans next to the ledger. Exits nonzero on
a build failure, a wrong answer or a missing metric.

Each workload measures for BENCHMARK.json's run_seconds, or 1 s under
--smoke. --seconds T is accepted so that a caller can state the run length
it expects; it must equal that value.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-ledger"
WORKLOADS = [
    "knn-uniform-sq8",
    "knn-fourier-exact",
    "serve-fourier-sq8",
    "join-clustered-sq8",
    "rw-fourier-sq8",
]
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources (CMakeLists.txt, src/) under {ROOT}")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([
            "cmake", "-S", str(ROOT), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release",
            "-DPARSIM_BUILD_TESTS=OFF",
            "-DPARSIM_BUILD_BENCHMARKS=OFF",
            "-DPARSIM_BUILD_EXAMPLES=OFF",
            "-DCMAKE_PROJECT_INCLUDE="
            f"{ROOT / 'bench' / 'ledger' / 'ledger.cmake'}",
        ])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perf_ledger",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perf_ledger"


def benchmark_spec():
    """The parsed BENCHMARK.json at the checkout root."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        fail(f"no BENCHMARK.json under {ROOT}")
    with open(spec, encoding="utf-8") as f:
        return json.load(f)


def run_workload(driver, workload, args, seconds, out_dir):
    stamp = time.time_ns()
    traced = args.trace == 1
    stem = f"{workload}-seed{args.seed}{'-trace' if traced else ''}-{stamp}"
    ledger = out_dir / f"{stem}.json"
    cmd = [str(driver), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--ledger", str(ledger)]
    if traced:
        cmd += ["--trace-file", str(out_dir / f"{stem}.trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {DRIVER_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    if done.returncode not in (0, 1) or not ledger.is_file():
        fail(f"{workload}: driver exited with {done.returncode}")
    with open(ledger, encoding="utf-8") as f:
        result = json.load(f)

    kind = "per_layer" if traced else "end_to_end"
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    wanted = [m["name"] for m in benchmark_spec()[kind]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail(f"{workload}: BENCHMARK.json lists unmeasured {missing}")
    metrics = {name: metrics[name] for name in wanted}
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    print(f"{workload} ledger {ledger}", file=sys.stderr)
    print(json.dumps(line), flush=True)
    return line["correct"] and done.returncode == 0


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running build step or driver before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/50 of the sizes, 1 s per workload, "
                             "every check kept")
    parser.add_argument("--out", type=Path, default=BUILD / "ledger",
                        help="directory for the JSON ledgers and traces")
    args = parser.parse_args()
    # Run length is fixed by the benchmark, so that every run of every
    # commit measures for the same time.
    run_seconds = int(benchmark_spec()["run_seconds"])
    if args.seconds is not None and args.seconds != run_seconds:
        fail(f"--seconds must equal BENCHMARK.json run_seconds "
             f"({run_seconds})")
    seconds = 1 if args.smoke else run_seconds

    driver = build()
    args.out.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        ok = run_workload(driver, workload, args, seconds, args.out) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
