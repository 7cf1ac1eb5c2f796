"""Percentile and quartile arithmetic (perfbench/stats.py)."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        v = [10.0, 20.0, 30.0, 40.0]
        self.assertEqual(stats.percentile(v, 0), 10.0)
        self.assertEqual(stats.percentile(v, 100), 40.0)
        self.assertAlmostEqual(stats.percentile(v, 50), 25.0)
        # rank = 0.9 * 3 = 2.7: 30 + 0.7 * (40 - 30)
        self.assertAlmostEqual(stats.percentile(v, 90), 37.0)

    def test_single_sample_and_bad_input(self):
        self.assertEqual(stats.percentile([5.0], 99), 5.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_monotone_in_p(self):
        v = sorted([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        ps = [0, 10, 25, 50, 75, 90, 99, 100]
        got = [stats.percentile(v, p) for p in ps]
        self.assertEqual(got, sorted(got))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [7.0, 1.0, 3.0, 9.0, 4.0, 8.0, 2.0]
        self.assertEqual(stats.quartiles(v), tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(stats.quartiles(v)[1], statistics.median(v))

    def test_single_value(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.highest_tail(5))
        self.assertIsNone(stats.highest_tail(19))
        self.assertEqual(stats.highest_tail(20), 50.0)
        self.assertEqual(stats.highest_tail(100), 90.0)
        self.assertEqual(stats.highest_tail(999), 90.0)
        self.assertEqual(stats.highest_tail(1000), 99.0)
        self.assertEqual(stats.highest_tail(10000), 99.9)

    def test_summarize(self):
        v = list(range(1, 101))  # 1..100
        s = stats.summarize(reversed(v))
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail_p"], 90.0)
        self.assertAlmostEqual(s["tail"], 90.1)  # rank 89.1
        self.assertEqual((s["q1"], s["q3"]),
                         tuple(statistics.quantiles(v, n=4)[::2]))


if __name__ == "__main__":
    unittest.main()
