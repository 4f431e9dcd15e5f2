"""Metric arithmetic of the end-to-end benchmark.

Turns the driver's raw measurements into the metrics BENCHMARK.json names,
and holds the order statistics the benchmark and its spread check use.
"""

import json
import math
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec(root=ROOT):
    """The benchmark definition (BENCHMARK.json at the repo root)."""
    with open(pathlib.Path(root) / "BENCHMARK.json") as f:
        return json.load(f)


def percentile(samples, p):
    """Exact nearest-rank percentile, the definition util/stats.h uses: the
    smallest sample such that at least ceil(p/100 * n) samples are <= it."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    ordered = sorted(samples)
    n = len(ordered)
    p_scaled = int(p * 100.0 + 0.5)  # p on a 1/100-percent grid
    rank = (p_scaled * n + 10000 - 1) // 10000
    return ordered[min(max(rank, 1), n) - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(values, n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`
    (negative when it is better)."""
    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def best_per_input(calls, inputs):
    """Each input's fastest call, where call k served input k % inputs.

    The timed loop serves the same inputs round after round; the fastest of
    an input's calls is its cost with the least interference from other
    processes on the host, which is what makes runs comparable.
    """
    if len(calls) < inputs:
        raise ValueError(f"{len(calls)} calls cannot cover {inputs} inputs")
    best = [math.inf] * inputs
    for k, c in enumerate(calls):
        best[k % inputs] = min(best[k % inputs], c)
    return best


def end_to_end(raw):
    """Every end-to-end metric from one untraced run's raw measurements.

    Host times come from each input's fastest call (best_per_input). Training
    has no requests: there one epoch counts as one request, its modeled
    latency is the epoch's cycles, and the SLO share is the share of training
    runs that completed. A serving workload's "epoch" is one pass over its
    request trace.
    """
    mod = raw["modeled"]
    best = best_per_input(raw["call_s"], raw["inputs"])
    m = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "host_call_ms_p50": percentile(best, 50) * 1e3,
        "host_call_ms_p99": percentile(best, 99) * 1e3,
    }
    if "epoch_cycles" in mod:
        epoch_s = (best[0] - min(raw["train_setup_s"])) / raw["epochs_per_call"]
        m["train_epoch_s"] = epoch_s
        m["host_req_per_s"] = 1.0 / epoch_s
        cycles = mod["epoch_cycles"]
        m["modeled_work_cycles_per_req"] = cycles
        m["modeled_latency_p50_cycles"] = cycles
        m["modeled_latency_p99_cycles"] = cycles
        m["modeled_epoch_cycles"] = cycles
        m["slo_attainment_min"] = raw["served"] / raw["attempted"]
    else:
        pass_s = sum(best)
        m["host_req_per_s"] = mod["served"] / pass_s
        m["train_epoch_s"] = pass_s
        m["modeled_work_cycles_per_req"] = mod["work_cycles_per_req"]
        m["modeled_latency_p50_cycles"] = mod["latency_p50_cycles"]
        m["modeled_latency_p99_cycles"] = mod["latency_p99_cycles"]
        m["modeled_epoch_cycles"] = mod["makespan_cycles"]
        m["slo_attainment_min"] = mod["slo_attainment_min"]
    return m


def result(raw, spec, trace, driver_ok):
    """The benchmark's last output line: correctness, counts and metrics."""
    failed = int(raw["attempted"] - raw["served"]) + raw["checks_failed"]
    attempted = max(int(raw["attempted"]), 1)
    if trace:
        wanted = spec["per_layer"]
        unknown = set(raw["layers"]) - {w["name"] for w in wanted}
        if unknown:
            raise KeyError(f"driver reported unlisted metrics {sorted(unknown)}")
        # A layer that does not run on the workload reports 0.
        values = {w["name"]: raw["layers"].get(w["name"], 0.0) for w in wanted}
    else:
        values = end_to_end(raw)
        values["served_frac"] = max(attempted - failed, 0) / attempted
        wanted = spec["end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        raise KeyError(f"driver gave no value for {missing}")
    return {
        "correct": driver_ok and raw["checks_failed"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
            for w in wanted
        },
    }
