"""Tests of the end-to-end benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The arithmetic tests run instantly; the driver tests build the driver (as
run.py does) and run short workloads.
"""

import json
import re
import statistics
import unittest

import metrics
import run

SPEC = metrics.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]


def serve_raw():
    return {
        "setup_s": [0.3, 0.1, 0.2],
        # Two rounds over four inputs; the fastest calls are 10, 18, 30 and
        # 35 ms.
        "inputs": 4,
        "call_s": [0.01, 0.02, 0.03, 0.04, 0.015, 0.018, 0.05, 0.035],
        "served": 990.0,
        "attempted": 1000.0,
        "checks_failed": 0,
        "peak_rss_mb": 30.0,
        "modeled": {"requests": 256, "served": 256,
                    "work_cycles_per_req": 4000.0,
                    "latency_p50_cycles": 30000, "latency_p99_cycles": 35000,
                    "makespan_cycles": 400000, "slo_attainment_min": 1.0},
    }


class Arithmetic(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 50), 50)
        self.assertEqual(metrics.percentile(xs, 99), 99)
        self.assertEqual(metrics.percentile(xs, 0), 1)
        self.assertEqual(metrics.percentile(xs, 100), 100)
        # Ten samples: p99 is the largest, p50 the fifth.
        ten = [5, 1, 9, 3, 7, 2, 8, 4, 10, 6]
        self.assertEqual(metrics.percentile(ten, 99), 10)
        self.assertEqual(metrics.percentile(ten, 50), 5)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_quartile_spread_matches_statistics_quantiles(self):
        xs = [float(x) for x in range(1, 11)]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(metrics.quartile_spread(xs),
                               (q3 - q1) / 5.5)
        self.assertAlmostEqual(metrics.quartile_spread(xs), 1.0)
        self.assertEqual(metrics.quartile_spread([2.0] * 5), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(metrics.worse_by(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(metrics.worse_by(100, 90, "lower"), -0.1)
        self.assertAlmostEqual(metrics.worse_by(100, 90, "higher"), 0.1)
        self.assertAlmostEqual(metrics.worse_by(100, 125, "higher"), -0.25)
        # A bound of 0.1 admits 10% worse, not 11%.
        self.assertLessEqual(metrics.worse_by(1.0, 1.1, "lower"), 0.1 + 1e-12)
        self.assertGreater(metrics.worse_by(1.0, 1.11, "lower"), 0.1)

    def test_best_per_input(self):
        self.assertEqual(metrics.best_per_input([3, 5, 1, 4, 2], 2), [1, 4])
        self.assertEqual(metrics.best_per_input([7, 6], 1), [6])
        with self.assertRaises(ValueError):
            metrics.best_per_input([1, 2], 3)

    def test_serve_end_to_end(self):
        out = metrics.result(serve_raw(), SPEC, trace=False, driver_ok=True)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        self.assertEqual(list(m), E2E)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["host_req_per_s"], 256 / 0.093)
        self.assertAlmostEqual(m["host_call_ms_p50"], 18.0)
        self.assertAlmostEqual(m["host_call_ms_p99"], 35.0)
        self.assertAlmostEqual(m["train_epoch_s"], 0.093)
        self.assertAlmostEqual(m["served_frac"], 0.99)
        self.assertEqual((out["attempted"], out["failed"]), (1000, 10))
        self.assertTrue(out["correct"])

    def test_train_end_to_end_subtracts_setup(self):
        raw = serve_raw()
        # (fastest call - fastest set-up) / epochs per call.
        raw.update(call_s=[1.2, 1.3, 1.1], train_setup_s=[0.2, 0.1, 0.3],
                   inputs=1, epochs_per_call=2, served=3.0, attempted=3.0,
                   modeled={"epoch_cycles": 1000})
        m = {k: v["value"] for k, v in
             metrics.result(raw, SPEC, False, True)["metrics"].items()}
        self.assertAlmostEqual(m["train_epoch_s"], 0.5)
        self.assertAlmostEqual(m["host_req_per_s"], 2.0)
        self.assertEqual(m["modeled_epoch_cycles"], 1000)

    def test_layers_that_do_not_run_report_zero(self):
        raw = serve_raw()
        raw["layers"] = {"train.spmm_frac": 0.5}
        out = metrics.result(raw, SPEC, trace=True, driver_ok=True)
        self.assertEqual(list(out["metrics"]), LAYERS)
        self.assertEqual(out["metrics"]["train.spmm_frac"]["value"], 0.5)
        self.assertEqual(out["metrics"]["sample.us_per_req"]["value"], 0.0)
        raw["layers"]["sample.us_per_reqq"] = 1.0
        with self.assertRaises(KeyError):
            metrics.result(raw, SPEC, trace=True, driver_ok=True)

    def test_failed_check_marks_run_incorrect(self):
        raw = serve_raw()
        raw["checks_failed"] = 1
        out = metrics.result(raw, SPEC, trace=False, driver_ok=False)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 11)


class Spec(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in SPEC["workloads"]] + E2E + LAYERS
        for n in names:
            self.assertRegex(n, name)
        self.assertEqual(len(E2E + LAYERS), len(set(E2E + LAYERS)))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], unit)
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Driver(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_traced_runs_report_every_per_layer_metric(self):
        for w in [w["name"] for w in SPEC["workloads"]]:
            raw, code = run.run_driver(w, seed=5, seconds=0.3, trace=1)
            self.assertEqual(code, 0, raw["checks"])
            self.assertLessEqual(set(raw["layers"]), set(LAYERS))
            out = metrics.result(raw, SPEC, trace=True, driver_ok=True)
            self.assertEqual(list(out["metrics"]), LAYERS)
            self.assertEqual(raw["build_type"], "Release")
            self.assertGreaterEqual(raw["host_threads"], 1)

    def test_replay_counts_only_the_forwards_launches(self):
        # A 2-layer GCN forward launches one SpMM per layer; the re-issue of
        # those shapes must not be counted as the next batch's launches.
        raw, code = run.run_driver("serve_closed", seed=7, seconds=0.3,
                                   trace=1)
        self.assertEqual(code, 0, raw["checks"])
        self.assertEqual(raw["layers"]["kernels.launches_per_batch"], 2.0)
        self.assertEqual(raw["layers"]["kernels.reissue_match_frac"], 1.0)

    def test_short_seed_gives_identical_modeled_metrics_twice(self):
        for w in ("serve_closed", "serve_open_mix"):
            a, code_a = run.run_driver(w, seed=7, seconds=0.2, trace=0)
            b, code_b = run.run_driver(w, seed=7, seconds=0.2, trace=0)
            self.assertEqual((code_a, code_b), (0, 0))
            self.assertEqual(json.dumps(a["modeled"], sort_keys=True),
                             json.dumps(b["modeled"], sort_keys=True))
            out = metrics.result(a, SPEC, trace=False, driver_ok=True)
            self.assertEqual(list(out["metrics"]), E2E)


if __name__ == "__main__":
    unittest.main()
