"""Self-test of the benchmark's statistics: python3 perfbench/test_stats.py"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(199)), 95)
        stats.percentile(list(range(200)), 95)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(list(range(19)), 50)
        stats.percentile(list(range(20)), 50)
        with self.assertRaises(stats.TooFewSamples):
            stats.require_beyond(199, 95)
        stats.require_beyond(200, 95)

    def test_interpolates_like_numpy(self):
        xs = list(range(1, 201))
        self.assertAlmostEqual(stats.percentile(xs, 50), 100.5)
        self.assertAlmostEqual(stats.percentile(xs, 95), 190.05)
        self.assertEqual(stats.percentile([5.0] * 40, 50), 5.0)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(stats.TooFewSamples):
            stats.median([])


def fake_episode(traced=False, wall=2.0, cpu=1.5):
    counts = {"rounds": 200, "msgs_total": 1000, "bytes_total": 50000,
              "msgs_per_round_max": 30, "pairs_delivered": 200,
              "pairs_admissible": 200, "audit_envelopes": 1000,
              "deliver_rounds_p50": 10, "deliver_rounds_p95": 11,
              "cg_confirmed": 9, "cg_injected": 12, "cg_injected_direct": 2,
              "cg_shoots": 1, "duplicates_suppressed": 5, "filter_drops": 0}
    for s in run.SERVICES:
        counts[f"msgs.{s}"] = 1
        counts[f"bytes.{s}"] = 2
    gate = {k: 0 for k in run.ZERO_GATES}
    gate.update(qod_admissible=200, weakest_coalition=0, weakest_coalition_unbreakable=1)
    layers = {"partition.build_s": 0.001}
    if traced:
        layers.update({"span.sim.round": 0.0, "span.sim.adversary": 0.1,
                       "span.sim.send": 0.5, "span.sim.deliver": 0.9,
                       "span.sim.receive": 0.5, "span.sim.round_end": 0.1,
                       "audit.confidentiality_s": 0.6})
    return {"traced": traced, "wall_s": wall,
            "round_s": [wall / 200] * 200, "round_cpu_s": [cpu / 200] * 200,
            "counts": counts,
            "gate": gate, "layers": layers}


class RatioBases(unittest.TestCase):
    def test_end_to_end_bases(self):
        raw = {"setup_only_s": [0.01, 0.03, 0.02], "peak_rss_kb": 2048}
        m = run.end_to_end(raw, [fake_episode(wall=2.0, cpu=4.0)] * 3)
        self.assertAlmostEqual(m["rounds_per_s"], 100.0)  # per wall second, not CPU
        self.assertAlmostEqual(m["cpu_ms_per_round"], 20.0)  # all threads' CPU / rounds
        self.assertAlmostEqual(m["msgs_per_pair"], 5.0)  # per delivered admissible pair
        self.assertAlmostEqual(m["bytes_per_pair"], 250.0)
        self.assertAlmostEqual(m["deliver_rounds_p50"], 10.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["round_ms_p95"], 10.0)
        self.assertAlmostEqual(m["setup_s"], 0.02)  # median of the set-up reps

    def test_rounds_take_their_fastest_repetition(self):
        raw = {"setup_only_s": [0.01], "peak_rss_kb": 2048}
        fast, slow = fake_episode(wall=2.0, cpu=2.0), fake_episode(wall=2.0, cpu=2.0)
        # Each episode is slow (x3) in a different half of its rounds.
        fast["round_s"] = [0.01] * 100 + [0.03] * 100
        slow["round_s"] = [0.03] * 100 + [0.01] * 100
        fast["round_cpu_s"] = [0.03] * 200
        m = run.end_to_end(raw, [fast, slow])
        self.assertAlmostEqual(m["rounds_per_s"], 100.0)  # 200 rounds / 200 x 10 ms
        self.assertAlmostEqual(m["round_ms_p50"], 10.0)
        self.assertAlmostEqual(m["round_ms_p95"], 10.0)
        self.assertAlmostEqual(m["cpu_ms_per_round"], 10.0)

    def test_fastest_per_round_needs_the_same_rounds(self):
        self.assertEqual(stats.fastest_per_round([[3, 1], [2, 4]]), [2, 1])
        with self.assertRaises(ValueError):
            stats.fastest_per_round([[1, 2], [1]])
        with self.assertRaises(ValueError):
            stats.fastest_per_round([])

    def test_per_layer_bases(self):
        eps = [fake_episode(), fake_episode(traced=True, wall=2.2)]
        m = run.per_layer(eps)
        self.assertAlmostEqual(m["congos.confirmed_frac"], 9 / 10)  # of pipeline rumors
        self.assertAlmostEqual(m["sim.deliver_s"], 0.3)  # audit time taken out
        self.assertAlmostEqual(m["trace_overhead_frac"], 0.1)
        self.assertAlmostEqual(m["trace.layer_sum_frac"], 2.1 / 2.2)

    def test_delivery_percentiles_need_pairs(self):
        raw = {"setup_only_s": [0.01], "peak_rss_kb": 2048}
        ep = fake_episode()
        ep["counts"]["pairs_delivered"] = 199  # p95 would have 9 pairs beyond it
        with self.assertRaises(stats.TooFewSamples):
            run.end_to_end(raw, [ep] * 3)

    def test_zero_base_refused(self):
        with self.assertRaises(ValueError):
            stats.ratio(1, 0, "pairs")


class Names(unittest.TestCase):
    def test_charset(self):
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            stats.check_name(name)
            stats.check_unit(unit)
            self.assertIn(better, ("lower", "higher"))
        for bad in ("", "_x", "a b", "x" * 65, "é"):
            with self.assertRaises(ValueError):
                stats.check_name(bad)

    def test_benchmark_json_matches_tables(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
