"""Self-tests of the benchmark's helpers.

Run with ``python3 perfbench/test_perfbench.py`` (or pytest on this
file).  None of them starts the program; they check the statistics,
the span arithmetic, the seeded schedule, the fixed throughput
numerator and the output check the benchmark's results rest on.
"""

from __future__ import annotations

import copy
import json
import time
import unittest
from pathlib import Path

import batch
import common
import serve_mix
import spans

HERE = Path(__file__).resolve().parent


class PercentileRule(unittest.TestCase):
    def test_interpolates_inclusively(self):
        self.assertEqual(common.percentile([3, 1, 2], 0), 1)
        self.assertEqual(common.percentile([3, 1, 2], 100), 3)
        self.assertEqual(common.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(common.percentile(list(range(11)), 90), 9.0)

    def test_needs_ten_samples_beyond(self):
        self.assertTrue(common.tail_allowed(100, 90))
        self.assertFalse(common.tail_allowed(99, 90))
        self.assertTrue(common.tail_allowed(20, 50))
        self.assertIsNone(common.tail_percentile(list(range(16)), 90))
        self.assertIsNone(common.tail_percentile(list(range(999)), 99))
        self.assertEqual(common.tail_percentile(list(range(101)), 90), 90.0)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(name, start, end, parent):
        span = spans.Span(name, start, parent, None)
        span.end = end
        return span

    def test_nested_spans(self):
        tree = [
            self.span("root", 0.0, 10.0, None),
            self.span("a", 1.0, 4.0, 0),
            self.span("a.child", 2.0, 3.0, 1),
            self.span("b", 5.0, 6.0, 0),
        ]
        self.assertEqual(spans.self_times(tree), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        tree = [
            self.span("root", 0.0, 10.0, None),
            self.span("a", 1.0, 5.0, 0),
            self.span("b", 3.0, 7.0, 0),
        ]
        self.assertEqual(spans.self_times(tree)[0], 4.0)

    def test_wrapped_calls_nest_and_report(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("cmt.simulate", lambda: None)
        outer = tracer.wrap("experiments.dispatch", lambda: inner())
        outer()
        self.assertEqual(tracer.spans, [])  # disabled: nothing recorded
        tracer.enabled = True
        root = tracer.begin("experiments.figure")
        outer()
        tracer.end(root)
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(
            names,
            [("experiments.figure", None), ("experiments.dispatch", 0),
             ("cmt.simulate", 1)],
        )
        report = spans.layer_report(tracer.spans, 0)
        self.assertEqual(report["cmt.sims"], 1)
        total = (
            report["cmt.sim_s"] + report["experiments.dispatch_s"] + report["other_s"]
        )
        self.assertAlmostEqual(total, root.end - root.start, places=9)


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(serve_mix.schedule(7, 30), serve_mix.schedule(7, 30))
        self.assertNotEqual(serve_mix.schedule(7, 30), serve_mix.schedule(8, 30))

    def test_open_loop_shape(self):
        requests = serve_mix.schedule(3, 30)
        offsets = [offset for offset, _, _ in requests]
        self.assertEqual(offsets, sorted(offsets))
        fresh = [serve_mix.config_key(p) for _, p, kind in requests if kind == "fresh"]
        self.assertGreaterEqual(len(fresh), 100)  # ten beyond the p90
        self.assertEqual(len(fresh), len(set(fresh)))
        per_pair = {}
        for _, params, kind in requests:
            if kind == "fresh":
                pair = (params["name"], params["overrides"].get("value_predictor"))
                per_pair[pair] = per_pair.get(pair, 0) + 1
        self.assertEqual(len(per_pair), 40)
        self.assertEqual(set(per_pair.values()), {serve_mix.MIN_PER_PAIR})
        prior = {serve_mix.config_key(p) for p in serve_mix.prior_configs()}
        self.assertFalse(prior & set(fresh))
        share = 1 - len(fresh) / len(requests)
        self.assertAlmostEqual(share, serve_mix.REPEAT_SHARE, delta=0.01)
        repeats = [serve_mix.config_key(p) for _, p, kind in requests if kind == "prior"]
        self.assertEqual(len(repeats), len(set(repeats)))  # probe answers, no dedups
        self.assertLessEqual(set(repeats), prior)

    def test_prior_configs_cover_every_baseline(self):
        prior = serve_mix.prior_configs()
        self.assertEqual(len(prior), 80)
        pairs = {(p["name"], p["overrides"].get("value_predictor")) for p in prior}
        self.assertEqual(len(pairs), 40)
        for params in prior:
            self.assertNotIn("num_thread_units", params["overrides"])
            self.assertEqual(params["scale"], common.SERVE_SCALE)
        self.assertEqual(len(serve_mix.all_configs()), 320)


class Numerator(unittest.TestCase):
    def test_fixed_by_the_grid(self):
        for figure, per_workload in (("figure8", 2), ("figure9a", 4)):
            expected = common.load_expected(figure)
            points = [[key, 0.0, 0.0, True, value] for key, value in expected["points"].items()]
            total = batch.grid_insts(points, expected["insts"])
            self.assertEqual(total, per_workload * sum(expected["insts"].values()))


class OutputCheck(unittest.TestCase):
    @staticmethod
    def unit_from(expected):
        points = [[key, 0.1, 0.1, True, value] for key, value in expected["points"].items()]
        leg = {"wall": 1.0, "wall_nominal": 1.0, "points": points, "series": expected["series"],
               "summary": expected["summary"]}
        return {"sweep": leg, "insts": expected["insts"]}

    def test_recorded_outputs_pass(self):
        expected = common.load_expected("figure8")
        checker = common.Checker()
        batch.check_unit(self.unit_from(expected), expected, checker, "unit")
        self.assertEqual(checker.failed, 0)
        self.assertGreater(checker.attempted, len(expected["points"]))

    def test_tampered_expected_output_fails(self):
        expected = common.load_expected("figure8")
        out = self.unit_from(expected)
        tampered = copy.deepcopy(expected)
        key = sorted(tampered["points"])[0]
        tampered["points"][key]["cycles"] += 1
        checker = common.Checker()
        batch.check_unit(out, tampered, checker, "unit")
        self.assertEqual(checker.failed, 1)
        self.assertIn(key, checker.failures[0])


class SpeedSamples(unittest.TestCase):
    def test_samples_overlapping_busy_intervals_are_dropped(self):
        probe = common.SpeedProbe(time.perf_counter)
        # (stamp, reference seconds, sample seconds)
        probe.samples = [(0.0, 1.0, 0.5), (1.0, 1.0, 0.5), (2.0, 1.0, 0.5), (3.0, 1.0, 0.5)]
        probe.drop_during([(1.2, 1.4), (2.5, 2.9)])
        self.assertEqual([s[0] for s in probe.samples], [0.0, 2.0, 3.0])


class Catalogue(unittest.TestCase):
    def test_metric_map_describes_every_declared_metric(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        described = json.loads((HERE / "metric_map.json").read_text())
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                [m["name"] for m in bench[kind]], list(described[kind])
            )
        self.assertEqual(
            [w["name"] for w in bench["workloads"]], list(described["workloads"])
        )

    def test_every_layer_value_is_declared(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        report = spans.layer_report([spans.Span("root", 0.0, None, None)], 0)
        names = set(report) - {"other_s", "root_s"}
        names |= {"trace.other_pct", "trace.overhead_pct"}
        self.assertLessEqual(names, {m["name"] for m in bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()
