#!/usr/bin/env python3
"""Tests of the across-run statistics in compare.py.

    python3 -m unittest discover -s rdabench -p 'test_*.py'
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "tps", "unit": "txn/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
]}


def result(tps, setup, attempted=100, failed=0):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"tps": {"value": tps, "unit": "txn/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(compare.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_median_and_spread(self):
        q1, median, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(median, 5.5)
        self.assertAlmostEqual(compare.spread(range(1, 11)), (q3 - q1) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(compare.spread([3.0] * 10), 0.0)


class ApartTest(unittest.TestCase):
    def test_symmetric_share_of_the_smaller(self):
        self.assertAlmostEqual(compare.apart(100, 110), 0.1)
        self.assertAlmostEqual(compare.apart(110, 100), 0.1)
        self.assertEqual(compare.apart(0, 0), 0.0)
        self.assertEqual(compare.apart(0, 1), float("inf"))


class JudgeTest(unittest.TestCase):
    def test_steady_sets_agree(self):
        a = {"w": [result(100 + i % 3, 1.0 + (i % 5) * 0.01) for i in range(10)]}
        b = {"w": [result(99 + i % 3, 1.0) for i in range(10)]}
        _, ok = compare.judge(SPEC, [a, b])
        self.assertTrue(ok)

    def test_setup_is_judged_like_every_metric(self):
        wide = {"w": [result(100, s) for s in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]}
        _, ok = compare.judge(SPEC, [wide])
        self.assertFalse(ok)
        a = {"w": [result(100, 1.0) for _ in range(10)]}
        slower = {"w": [result(100, 1.5) for _ in range(10)]}
        _, ok = compare.judge(SPEC, [a, slower])
        self.assertFalse(ok)

    def test_wide_spread_fails(self):
        noisy = {"w": [result(v, 1.0) for v in (50, 150) * 5]}
        _, ok = compare.judge(SPEC, [noisy])
        self.assertFalse(ok)

    def test_regression_beyond_bound_fails(self):
        a = {"w": [result(100, 1.0) for _ in range(10)]}
        b = {"w": [result(85, 1.0) for _ in range(10)]}
        _, ok = compare.judge(SPEC, [a, b])
        self.assertFalse(ok)

    def test_improvement_beyond_bound_fails(self):
        a = {"w": [result(100, 1.0) for _ in range(10)]}
        b = {"w": [result(120, 1.0) for _ in range(10)]}
        _, ok = compare.judge(SPEC, [a, b])
        self.assertFalse(ok)
        _, ok = compare.judge(SPEC, [b, a])
        self.assertFalse(ok)

    def test_failed_share_must_match_exactly(self):
        a = {"w": [result(100, 1.0, 101, 1) for _ in range(10)]}
        b = {"w": [result(100, 1.0, 101, 1) for _ in range(9)] +
                   [result(100, 1.0, 101, 0)]}
        _, ok = compare.judge(SPEC, [a, b])
        self.assertFalse(ok)
        _, ok = compare.judge(SPEC, [a, a])
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
