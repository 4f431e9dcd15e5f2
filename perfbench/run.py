#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the driver from source into
.bench_build/perfbench (CMake, Release), runs one workload, and prints as its
last line one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
The line before it records the build type, the host thread count and the
correctness checks. A traced run also writes its spans as Chrome/Perfetto
JSON under .bench_build/perfbench/spans/.

Exits 0 when every correctness check passed, 1 when one failed, 2 when the
benchmark cannot run (no library sources, build failure, bad arguments).
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the driver; build output goes to stderr so
    stdout carries only results."""
    if not (ROOT / "src" / "core" / "gnnone.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_driver(workload, seed, seconds, trace, spans=None):
    """Runs the driver once; returns (raw measurements, exit code)."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode not in (0, 3) or not proc.stdout.strip():
        fail(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = metrics.load_spec()
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    build()

    spans = None
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
    raw, code = run_driver(args.workload, args.seed, args.seconds, args.trace,
                           spans)
    out = metrics.result(raw, spec, args.trace, driver_ok=code == 0)
    print(json.dumps({
        "workload": raw["workload"],
        "seed": raw["seed"],
        "build_type": raw["build_type"],
        "host_threads": raw["host_threads"],
        "checks": raw["checks"],
        "spans": str(spans.relative_to(ROOT)) if spans else None,
    }))
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
