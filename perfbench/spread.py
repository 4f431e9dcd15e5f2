#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

    python3 perfbench/spread.py --workloads serve_closed,train_full --seeds 1-10

Runs the benchmark once per (workload, seed), untraced, and prints for each
end-to-end metric the spread between the first and third quartile of its
values as a share of their median, next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged (`!`),
one above the bound fails the check (`FAIL`, exit 1). With --sets 2 the seeds run twice, and every metric's second median
must not be worse than the first by more than its bound. Results are also
written as JSON with --out.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = metrics.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--out", type=pathlib.Path)
    args = ap.parse_args()

    e2e = spec["end_to_end"]
    report, failed = {}, False
    for w in args.workloads.split(","):
        report[w] = []
        for k in range(args.sets):
            runs = [run_once(w, s, args.seconds)
                    for s in parse_seeds(args.seeds)]
            print(f"== {w} set {k + 1} ({len(runs)} runs)")
            rows = {}
            for m in e2e:
                name, bound = m["name"], m["bound"]
                values = [r["metrics"][name]["value"] for r in runs]
                spread = metrics.quartile_spread(values)
                med = statistics.median(values)
                flag = ""
                if spread > bound:
                    flag, failed = "FAIL", True
                elif spread >= bound / 3:
                    flag = "!"
                if k > 0:
                    worse = metrics.worse_by(report[w][0][name]["median"],
                                             med, m["better"])
                    if worse > bound:
                        flag, failed = flag + " MEDIAN-FAIL", True
                rows[name] = {"values": values, "spread": spread,
                              "median": med}
                print(f"  {name:28s} median {med:14.6g} "
                      f"spread {spread:7.4f} bound {bound:5.2f} {flag}")
            report[w].append(rows)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
