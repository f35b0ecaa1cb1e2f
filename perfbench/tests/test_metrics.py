"""Unit tests for the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import metrics  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(100, 0, -1))  # unsorted input: 100..1
        self.assertEqual(metrics.percentile(xs, 0.50), 50)
        self.assertEqual(metrics.percentile(xs, 0.99), 99)
        self.assertEqual(metrics.percentile(xs, 1.0), 100)
        self.assertEqual(metrics.percentile(xs, 0.0), 1)
        self.assertEqual(metrics.percentile([7.5], 0.99), 7.5)

    def test_rank_rounds_up(self):
        # ceil(0.5 * 5) = 3rd smallest, never an interpolated value.
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)

    def test_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.beyond(1000, 0.99), 10)
        self.assertTrue(metrics.reportable(1000, 0.99))
        self.assertFalse(metrics.reportable(999, 0.99))  # rank 990: 9 beyond
        self.assertFalse(metrics.reportable(0, 0.5))
        self.assertTrue(metrics.reportable(20, 0.5))
        self.assertFalse(metrics.reportable(19, 0.5))  # rank 10: 9 beyond

    def test_pct_or_none_reports_count(self):
        self.assertEqual(metrics.pct_or_none(list(range(50)), 0.99), (None, 50))
        value, n = metrics.pct_or_none(list(range(2000)), 0.99)
        self.assertEqual((value, n), (1979, 2000))


class SelfTime(unittest.TestCase):
    def test_union_of_children_is_clipped(self):
        self.assertAlmostEqual(
            metrics.union_length([(1, 3), (2, 5), (9, 12)], 0, 10), 5.0)
        self.assertAlmostEqual(metrics.union_length([], 0, 10), 0.0)
        self.assertAlmostEqual(metrics.union_length([(0, 4), (1, 2)], 0, 10), 4.0)

    def test_children_and_folded_calls_are_subtracted(self):
        spans = [
            {"id": 1, "parent": 0, "t0": 0.0, "t1": 10.0},
            {"id": 2, "parent": 1, "t0": 1.0, "t1": 3.0},
            {"id": 3, "parent": 1, "t0": 2.0, "t1": 5.0},  # overlaps span 2
            {"id": 4, "parent": 1, "t0": 9.0, "t1": 12.0},  # runs past its parent
        ]
        aggregates = [{"parent": 1, "seconds": 1.5}, {"parent": 1, "seconds": 0.5},
                      {"parent": 3, "seconds": 1.0}]
        selfs = metrics.self_times(spans, aggregates)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[4], 3.0)


def rung(qps, lat_ms, seconds=1.0, backlog=None):
    if backlog is None:
        backlog = [(t / 10.0, 5.0) for t in range(10)]
    return {"qps": qps, "seconds": seconds, "lat_ms": lat_ms, "backlog": backlog}


class MaxQps(unittest.TestCase):
    def test_highest_passing_rung(self):
        rungs = [rung(1000, [1.0] * 1000), rung(2000, [2.0] * 2000),
                 rung(4000, [50.0] * 4000)]
        self.assertEqual(metrics.max_qps_p99(rungs, limit_ms=10.0), 2000.0)

    def test_refusals_count_as_misses(self):
        # 11 refused of 1000: the p99 lands on a miss although every served
        # request was fast.
        refused = rung(2000, [1.0] * 989 + [-1.0] * 11)
        self.assertFalse(metrics.rung_passes(refused, limit_ms=10.0))
        self.assertEqual(
            metrics.max_qps_p99([rung(1000, [1.0] * 1000), refused], 10.0), 1000.0)
        # Ten refusals still leave the 990th-ranked sample served.
        self.assertTrue(metrics.rung_passes(rung(2000, [1.0] * 990 + [-1.0] * 10), 10.0))

    def test_growing_backlog_rejects_rung(self):
        growing = rung(1000, [1.0] * 1000,
                       backlog=[(t / 10.0, 100.0 * t) for t in range(10)])
        self.assertGreater(metrics.backlog_slope(growing["backlog"]), 50.0)
        self.assertFalse(metrics.rung_passes(growing, 10.0))
        self.assertIsNone(metrics.max_qps_p99([growing], 10.0))

    def test_too_few_samples_for_p99(self):
        self.assertFalse(metrics.rung_passes(rung(100, [1.0] * 100), 10.0))

    def test_backlog_slope(self):
        self.assertAlmostEqual(metrics.backlog_slope([(0, 1), (1, 3), (2, 5)]), 2.0)
        self.assertEqual(metrics.backlog_slope([(0, 4)]), 0.0)


def cell(label, p99, paper_iters, correct=10, trials=10, paper_acc="-"):
    return {"label": label, "iters_p99": p99, "trials": trials, "correct": correct,
            "meta": {"paper_iters": paper_iters, "paper_acc": paper_acc}}


class PaperGaps(unittest.TestCase):
    def test_iters_gap_geometric_mean_skips_fail_and_dash(self):
        cells = [
            cell("factorizer=h3dfact size=F3/M16", 10.0, "5"),     # r = 2
            cell("factorizer=h3dfact size=F3/M32", 10.0, "80"),    # r = 1/8
            cell("factorizer=h3dfact size=F4/M64", 10.0, "Fail"),  # paper Fail
            cell("factorizer=h3dfact size=F4/M99", 10.0, "-"),     # no paper cell
            cell("factorizer=h3dfact size=F3/M64", -1.0, "39"),    # measured Fail
            cell("factorizer=baseline size=F3/M16", 100.0, "4"),   # baseline row
        ]
        self.assertAlmostEqual(metrics.paper_iters_gap(cells), 4.0)

    def test_iters_gap_none_without_pairs(self):
        self.assertIsNone(metrics.paper_iters_gap(
            [cell("factorizer=h3dfact size=F3/M16", -1.0, "5")]))

    def test_acc_gap_mean_absolute_pp(self):
        cells = [cell("a", 1, "-", correct=9, trials=10, paper_acc="99.0"),
                 cell("b", 1, "-", correct=10, trials=10, paper_acc="96.0"),
                 cell("c", 1, "-", correct=5, trials=10, paper_acc="-")]
        self.assertAlmostEqual(metrics.paper_acc_gap_pp(cells), (9.0 + 4.0) / 2)


class SweepLayers(unittest.TestCase):
    def test_busy_fraction_and_tail(self):
        p = {"workers": 2, "wall_s": 10.0,
             "cells": [{"wall_seconds": 4.0, "done_s": 4.0},
                       {"wall_seconds": 6.0, "done_s": 6.5},
                       {"wall_seconds": 5.0, "done_s": 10.0}]}
        out = metrics.sweep_layers(p)
        self.assertAlmostEqual(out["sweep.busy_frac"], 15.0 / 20.0)
        self.assertAlmostEqual(out["sweep.max_cell_s"], 6.0)
        self.assertAlmostEqual(out["sweep.tail_s"], 3.5)


if __name__ == "__main__":
    unittest.main()
