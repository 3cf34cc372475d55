"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import median_pass, pass_seconds  # noqa: E402
from speed import REFERENCE_PROBE_S, reference_seconds  # noqa: E402
from tracing import layer_metrics, root_time, self_times  # noqa: E402


class PassSecondsTest(unittest.TestCase):
    PASSES = [{"op_reference_seconds": [t, 10.0 * t], "op_seconds": [2 * t, 0.0], "seconds": t}
              for t in (5.0, 1.0, 4.0, 2.0, 3.0)]

    def test_median_follows_the_sample_count(self):
        # odd counts take the middle sample, even counts the mean of the two
        self.assertEqual(pass_seconds(self.PASSES), 3.0 + 30.0)
        self.assertEqual(pass_seconds(self.PASSES[:1]), 55.0)
        self.assertEqual(pass_seconds(self.PASSES[:2]), 3.0 + 30.0)
        self.assertEqual(pass_seconds(self.PASSES[:4]), 3.0 + 30.0)
        self.assertEqual(pass_seconds(self.PASSES[1:5]), 2.5 + 25.0)

    def test_measured_times_are_summed_apart(self):
        self.assertEqual(pass_seconds(self.PASSES, "op_seconds"), 6.0)

    def test_median_pass_is_the_lower_median(self):
        self.assertEqual(median_pass(self.PASSES)["seconds"], 3.0)
        self.assertEqual(median_pass(self.PASSES[:4])["seconds"], 2.0)


class ReferenceSecondsTest(unittest.TestCase):
    def test_rescales_by_the_mean_probe_time(self):
        # probes twice as slow as the reference: the machine ran at half speed
        self.assertAlmostEqual(reference_seconds(3.0, 4, 8 * REFERENCE_PROBE_S), 1.5)
        self.assertAlmostEqual(reference_seconds(3.0, 2, REFERENCE_PROBE_S), 6.0)

    def test_without_samples_the_time_stands(self):
        self.assertEqual(reference_seconds(3.0, 0, 0.0), 3.0)


class SelfTimeTest(unittest.TestCase):
    # (name, start_ns, end_ns, parent index)
    SPANS = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 20, 30, 1),
        ("d", 50, 60, 0),
        ("a", 120, 150, -1),
        ("a", 125, 135, 4),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        got = {k: round(v * 1e9) for k, v in self_times(self.SPANS).items()}
        # a: (100 - 30 - 10) + (30 - 10) + 10; b: 30 - 10; c and d: leaves
        self.assertEqual(got, {"a": 90, "b": 20, "c": 10, "d": 10})

    def test_self_times_add_up_to_root_time(self):
        self.assertAlmostEqual(sum(self_times(self.SPANS).values()), root_time(self.SPANS))
        self.assertAlmostEqual(root_time(self.SPANS), 130e-9)

    def test_layer_metrics_accounts_for_the_whole_pass(self):
        spans = [("cover.build", 0, 400, -1), ("words.language", 100, 250, 0), ("pipeline", 500, 900, -1)]
        counts = {"words.language_calls": 3, "words.factors_built": 7}
        metrics = layer_metrics(spans, counts, 1000e-9, costs=(2.0, 0.5))
        self.assertAlmostEqual(metrics["cover.build_s"], 250e-9)
        self.assertAlmostEqual(metrics["words.language_s"], 150e-9)
        self.assertAlmostEqual(metrics["pipeline.self_s"], 400e-9)
        self.assertAlmostEqual(metrics["trace.unspanned_s"], 200e-9)
        self.assertAlmostEqual(metrics["trace.run_s"], 1000e-9)
        self.assertEqual(metrics["words.language_calls"], 3)
        self.assertEqual(metrics["words.factors_built"], 7)
        self.assertEqual(metrics["groupoid.window_s"], 0.0)
        # three spans at 2 s each and three counted language calls at 0.5 s
        self.assertEqual(metrics["tracing_overhead_s"], 3 * 2.0 + 3 * 0.5)
        spent = sum(v for k, v in metrics.items()
                    if k.endswith("_s") and k not in ("trace.run_s", "tracing_overhead_s"))
        self.assertAlmostEqual(spent, metrics["trace.run_s"])


if __name__ == "__main__":
    unittest.main()
