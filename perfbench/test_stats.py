"""Tests for the benchmark's own arithmetic (stats.py).

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        # statistics.quantiles' default (exclusive) method on 1..9.
        self.assertEqual(stats.quartiles(range(1, 10)), (2.5, 5.0, 7.5))
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([10, 20, 30, 40, 50], 0.5), 30)
        self.assertEqual(stats.percentile([10, 20], 0.25), 12.5)
        self.assertEqual(stats.percentile(list(range(101)), 0.99), 99)
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_quantile(1000, 0.99), 0.99)
        self.assertEqual(stats.tail_quantile(5000, 0.99), 0.99)
        # 999 samples leave 9.99 beyond p99: fall back to the highest
        # quantile that leaves ten.
        self.assertAlmostEqual(stats.tail_quantile(999, 0.99), 1 - 10 / 999)
        self.assertAlmostEqual(stats.tail_quantile(79, 0.99), 1 - 10 / 79)
        self.assertEqual(stats.tail_quantile(20, 0.99), 0.5)
        self.assertIsNone(stats.tail_quantile(19, 0.99))
        self.assertIsNone(stats.tail_quantile(0, 0.99))
        for n in (20, 79, 500, 999, 1000, 4321):
            q = stats.tail_quantile(n, 0.99)
            self.assertGreaterEqual(n * (1 - q), 10 - 1e-9)


class SpanAttributionTest(unittest.TestCase):
    # Round k ends at (k + 1) * 100 ns: every round takes 100 ns.
    ENDS = [100, 200, 300, 400, 500, 600]
    SOLVE = 650  # 50 ns after the last hook

    def test_nesting_self_time(self):
        spans = [
            ("outer", -1, 0, 6),
            ("a", 0, 1, 3),
            ("leaf", 1, 1, 2),
            ("b", 0, 4, 5),
        ]
        totals, selfs = stats.span_times(spans, self.ENDS, self.SOLVE)
        self.assertEqual(totals, [600, 200, 100, 100])
        self.assertEqual(selfs, [300, 100, 100, 100])
        self.assertEqual(sum(selfs), totals[0])
        self.assertEqual(stats.attributed_ns(spans, totals), 600)

    def test_zero_round_spans_get_no_time(self):
        spans = [("outer", -1, 0, 2), ("empty", 0, 1, 1), ("top-empty", -1, 2, 2)]
        totals, selfs = stats.span_times(spans, self.ENDS, self.SOLVE)
        self.assertEqual(totals, [200, 0, 0])
        self.assertEqual(selfs, [200, 0, 0])

    def test_rounds_after_last_hook_end_at_the_solve(self):
        # Rounds 6 and 7 were never hooked: the span gets the 50 ns between
        # the last timestamp and the solve's return, and a span wholly past
        # the hooks gets nothing.
        spans = [("tail", -1, 5, 8), ("past", -1, 7, 9)]
        totals, _ = stats.span_times(spans, self.ENDS, self.SOLVE)
        self.assertEqual(totals, [150, 0])

    def test_by_name_sums_and_counts(self):
        spans = [("p", -1, 0, 4), ("x", 0, 0, 1), ("x", 0, 2, 4)]
        totals, selfs = stats.span_times(spans, self.ENDS, self.SOLVE)
        rows = stats.by_name(spans, totals, selfs)
        self.assertEqual(rows["x"], {"count": 2, "total_ns": 300, "self_ns": 300})
        self.assertEqual(rows["p"], {"count": 1, "total_ns": 400, "self_ns": 100})

    def test_sequential_top_spans_cover_the_hooked_time(self):
        spans = [("a", -1, 0, 3), ("b", -1, 3, 6)]
        totals, _ = stats.span_times(spans, self.ENDS, self.SOLVE)
        self.assertEqual(stats.attributed_ns(spans, totals), 600)


if __name__ == "__main__":
    unittest.main()
