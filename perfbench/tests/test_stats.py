"""Self-tests of the benchmark's statistics and of its metric table.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import stats  # noqa: E402


class MedianAndSpread(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_iqr_share_uses_exclusive_quartiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(stats.iqr_share(values), (8.25 - 2.75) / 5.5)

    def test_iqr_share_of_identical_values_is_zero(self):
        self.assertEqual(stats.iqr_share([7.0] * 10), 0.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile(list(reversed(values)), 90), 90)

    def test_one_sample(self):
        self.assertEqual(stats.percentile([4.2], 99), 4.2)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.highest_supported_percentile(1000), 99)
        self.assertEqual(stats.highest_supported_percentile(999), 90)
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)
        self.assertEqual(stats.highest_supported_percentile(20), 50)
        self.assertIsNone(stats.highest_supported_percentile(19))


class Capacity(unittest.TestCase):
    def test_evenly_spaced_completions(self):
        times = [i * 0.001 for i in range(501)]  # 500 gaps of 1 ms
        self.assertAlmostEqual(stats.capacity([times]), 1000.0)

    def test_order_does_not_matter(self):
        times = [0.3, 0.1, 0.2, 0.0]
        self.assertAlmostEqual(stats.capacity([times]), 10.0)

    def test_rounds_pool_completions_and_busy_time(self):
        fast = [i * 0.001 for i in range(101)]  # 100 in 0.1 s
        slow = [5.0 + i * 0.002 for i in range(101)]  # 100 in 0.2 s, later
        self.assertAlmostEqual(stats.capacity([fast, slow]), 200 / 0.3)

    def test_a_round_needs_two_completions(self):
        with self.assertRaises(ValueError):
            stats.capacity([[0.0, 1.0], [2.0]])
        with self.assertRaises(ValueError):
            stats.capacity([[1.0, 1.0]])


class StealShare(unittest.TestCase):
    def test_share_of_all_jiffies(self):
        before = [100, 0, 50, 800, 0, 0, 0, 50]
        after = [200, 0, 100, 1600, 0, 0, 0, 100]  # 1000 jiffies, 50 stolen
        self.assertAlmostEqual(run.steal_share(before, after), 0.05)

    def test_unknown_without_a_steal_field(self):
        self.assertIsNone(run.steal_share([], []))
        self.assertIsNone(run.steal_share([1, 2, 3], [4, 5, 6]))


class MetricTable(unittest.TestCase):
    """BENCHMARK.json must name exactly the metrics run.py prints."""

    def setUp(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        self.bench = json.loads(path.read_text())

    def test_end_to_end_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]},
                         run.PER_LAYER)

    def test_workloads_are_runnable(self):
        for workload in self.bench["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
