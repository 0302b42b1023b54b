"""Tests of the benchmark's own arithmetic (analysis.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402


def span(i, parent, name, layer, start_ms, end_ms, split=None):
    return {"id": i, "parent": parent, "item": 0, "name": name,
            "layer": layer, "start_ns": int(start_ms * 1e6),
            "end_ns": int(end_ms * 1e6), "split": split or {}}


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_ten_samples_lie_beyond_it(self):
        samples = list(range(1, 2001))  # 1..2000
        pct, value = analysis.tail_percentile(samples)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 1980)  # 20 samples beyond

    def test_exactly_ten_beyond_p99(self):
        pct, value = analysis.tail_percentile(list(range(1, 1001)))
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)

    def test_lower_percentile_leaves_ten_beyond(self):
        samples = list(range(1, 101))
        pct, value = analysis.tail_percentile(samples)
        self.assertEqual(value, 90)  # the 11th largest
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(analysis.tail_percentile(samples),
                         analysis.tail_percentile(sorted(samples)))

    def test_few_samples_give_the_maximum(self):
        self.assertEqual(analysis.tail_percentile([3, 1, 2]), (100.0, 3))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.tail_percentile([])


class ItemCostTest(unittest.TestCase):
    def test_cost_is_the_fastest_execution_of_items_that_ran(self):
        costs = analysis.item_costs([2.5, 1.0, 0.0, 0.5], [3, 2, 0, 1])
        self.assertEqual(costs, {0: 2.5, 1: 1.0, 3: 0.5})

    def test_only_complete_passes_count(self):
        samples = analysis.pass_latencies({0: 1.0, 1: 2.0}, [3, 2])
        self.assertEqual(sorted(samples), [1.0, 1.0, 2.0, 2.0])

    def test_end_to_end_uses_item_costs(self):
        record = {
            # Items 0 and 1, fastest executions 10 and 15 ms; three
            # complete passes plus a partial one.
            "item_ms_untraced": [10.0, 15.0],
            "item_runs_untraced": [4, 3],
            "attempted": 7, "failed": 0,
            "item_instrs": [2e6, 6e6], "modeled": [10.0, 1e-6],
            "setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 5.0,
        }
        m = analysis.end_to_end(record)
        # One pass is 25 ms.
        self.assertAlmostEqual(m["items_per_s"], 2 / 0.025)
        self.assertAlmostEqual(m["host_mips"], 8e6 / 0.025 / 1e6)
        self.assertAlmostEqual(m["item_ms_p50"], 12.5)
        self.assertAlmostEqual(m["item_ms_p99"], 15.0)
        self.assertAlmostEqual(m["modeled_mips"], 10.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)

    def test_host_mips_counts_only_items_with_instructions(self):
        record = {
            "item_ms_untraced": [10.0, 15.0], "item_runs_untraced": [2, 2],
            "attempted": 4, "failed": 0, "item_instrs": [0, 3e6],
            "modeled": [0, 0], "setup_s": [1.0], "peak_rss_mb": 1.0,
        }
        m = analysis.end_to_end(record)
        self.assertAlmostEqual(m["host_mips"], 3e6 / 0.015 / 1e6)
        self.assertAlmostEqual(m["items_per_s"], 2 / 0.025)

    def test_failed_items_do_not_count_as_done(self):
        record = {
            "item_ms_untraced": [10.0, 15.0], "item_runs_untraced": [2, 2],
            "attempted": 4, "failed": 1,
            "item_instrs": [1, 1], "modeled": [0, 0], "setup_s": [1.0],
            "peak_rss_mb": 1.0,
        }
        m = analysis.end_to_end(record)
        self.assertAlmostEqual(m["items_per_s"], 2 / 0.025 * 0.75)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, 0, "a", "xlat", 1, 3),
                 span(2, 0, "b", "vliw", 4, 9)]
        selfs = analysis.self_times(spans)
        self.assertAlmostEqual(selfs[0], 3.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 5.0)

    def test_only_direct_children_count(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, 0, "a", "platform", 0, 8),
                 span(2, 1, "b", "iss", 2, 6)]
        selfs = analysis.self_times(spans)
        self.assertAlmostEqual(selfs[0], 2.0)
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 4.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, 0, "a", "sim", 1, 5),
                 span(2, 0, "b", "sim", 3, 7),
                 span(3, 0, "c", "sim", 8, 12)]  # runs past its parent
        self.assertAlmostEqual(analysis.self_times(spans)[0], 10 - 6 - 2)

    def test_layers_sum_to_item_time(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, 0, "a", "xlat", 1, 3),
                 span(2, 0, "b", "vliw", 4, 9),
                 span(3, -1, "item", "bench", 20, 24),
                 span(4, 3, "a", "xlat", 20, 24)]
        layers, item_ms = analysis.layer_self_ms(spans)
        self.assertAlmostEqual(item_ms, 14.0)
        self.assertAlmostEqual(sum(layers.values()), 14.0)
        self.assertAlmostEqual(layers["xlat"], 6.0)
        self.assertAlmostEqual(layers["vliw"], 5.0)
        self.assertAlmostEqual(layers["bench"], 3.0)

    def test_probe_spans_are_not_item_time(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, -1, "iss::Iss::run", "iss", 10, 30)]
        layers, item_ms = analysis.layer_self_ms(spans)
        self.assertAlmostEqual(item_ms, 10.0)
        self.assertNotIn("iss", layers)

    def test_split_moves_self_time(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, 0, "ReferenceBoard::run", "sim", 0, 8,
                      {"iss": 6.0})]
        layers, _ = analysis.layer_self_ms(spans)
        self.assertAlmostEqual(layers["iss"], 6.0)
        self.assertAlmostEqual(layers["sim"], 2.0)

    def test_split_larger_than_self_time_is_scaled_to_fit(self):
        spans = [span(0, -1, "item", "bench", 0, 10),
                 span(1, 0, "fuzz::Farm::run", "fuzz", 0, 10,
                      {"iss": 9.0, "sim": 3.0})]
        layers, _ = analysis.layer_self_ms(spans)
        self.assertAlmostEqual(layers["iss"], 7.5)
        self.assertAlmostEqual(layers["sim"], 2.5)
        self.assertAlmostEqual(layers["fuzz"], 0.0)


class PerLayerTest(unittest.TestCase):
    def record(self, **overrides):
        rec = {"counters": {}, "probes": {}, "spans": [],
               "item_ms_untraced": [], "item_runs_untraced": [],
               "item_ms_traced": [], "item_runs_traced": []}
        rec.update(overrides)
        return rec

    def test_every_metric_is_reported(self):
        values = analysis.per_layer(self.record())
        self.assertEqual(set(values), set(analysis.PER_LAYER))

    def test_ratios_and_overhead(self):
        values = analysis.per_layer(self.record(
            counters={"fuzz.fork_hits": 1, "fuzz.fork_misses": 3,
                      "vliw.cycles": 200, "soc.sync.stall_cycles": 50},
            item_ms_untraced=[1.0, 3.0], item_runs_untraced=[1, 1],
            item_ms_traced=[1.25, 3.75], item_runs_traced=[1, 2]))
        self.assertAlmostEqual(values["fuzz.fork_hit_ratio"], 0.25)
        self.assertAlmostEqual(values["soc.sync.stall_share"], 0.25)
        self.assertAlmostEqual(values["vliw.cycles"], 200)
        self.assertAlmostEqual(values["trace.overhead_pct"], 20.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            analysis.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            analysis.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
