"""Tests for the benchmark's own helpers.

    python3 perfbench/test_benchlib.py
"""

import json
import math
import unittest

import benchlib


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, beyond = benchlib.tail(list(range(1, 101)))
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12]
        self.assertEqual(benchlib.tail(values), (2, 100 * 2 / 12, 10))

    def test_eleven_samples_is_the_smallest_that_qualifies(self):
        value, pct, beyond = benchlib.tail([float(i) for i in range(11)])
        self.assertEqual((value, beyond), (0.0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_samples_report_the_maximum_with_none_beyond(self):
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            benchlib.tail([])


class FastestRound(unittest.TestCase):
    def test_each_op_takes_its_fastest_repeat(self):
        rounds = [[1.0, 5.0, 2.0], [2.0, 4.0, 3.0], [1.5, 6.0, 1.0]]
        self.assertEqual(benchlib.fastest_round(rounds), 1.0 + 4.0 + 1.0)

    def test_one_round_is_its_own_sum(self):
        self.assertEqual(benchlib.fastest_round([[0.5, 0.25]]), 0.75)

    def test_rounds_must_repeat_the_same_ops(self):
        with self.assertRaises(ValueError):
            benchlib.fastest_round([[1.0, 2.0], [1.0]])


class FailedRequests(unittest.TestCase):
    def test_failed_or_refused_count_beyond_any_limit(self):
        dues = [0.0, 1.0, 2.0]
        recvs = [0.1, 1.2, 2.01]
        lat = benchlib.latencies(dues, recvs, [True, False, True])
        self.assertTrue(math.isinf(lat[1]))
        self.assertGreater(lat[1], 1e300)

    def test_missing_reply_counts_as_failed(self):
        lat = benchlib.latencies([0.0], [-1.0], [True])
        self.assertEqual(lat, [math.inf])

    def test_eleven_failures_put_the_tail_past_any_limit(self):
        lat = [0.001] * 100 + [math.inf] * 11
        self.assertTrue(math.isinf(benchlib.tail(lat)[0]))
        self.assertEqual(benchlib.median(lat), 0.001)

    def test_ten_failures_leave_the_tail_finite(self):
        lat = [0.001] * 100 + [math.inf] * 10
        self.assertEqual(benchlib.tail(lat)[0], 0.001)


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # Sent 0.5 s late: the wait counts, as it would for a user.
        self.assertAlmostEqual(
            benchlib.latencies([1.0], [1.6], [True])[0], 0.6)

    def test_lateness_is_send_minus_due(self):
        late = benchlib.lateness([1.0, 2.0, 3.0], [1.25, 2.0, -1.0])
        self.assertEqual(late, [0.25, 0.0])

    def _schedule(self, seed):
        return benchlib.make_schedule(seed, 20.0, 40.0, 0.1,
                                      ("eon", "art"), 200_000, 50_000)

    def test_same_seed_same_schedule(self):
        self.assertEqual(self._schedule(7), self._schedule(7))
        self.assertNotEqual(self._schedule(7), self._schedule(8))

    def test_schedule_shape(self):
        hot, requests = self._schedule(3)
        self.assertEqual(len(hot), 4)
        dues = [r[0] for r in requests]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(0 <= dues[0] and dues[-1] < 20.0)
        # ~40/s Poisson over 20 s.
        self.assertTrue(600 < len(requests) < 1000)
        misses = [r for r in requests if r[1] < 0]
        self.assertEqual(len(misses), round(0.1 * len(requests)))

    def test_hits_repeat_the_hot_set_and_misses_are_fresh(self):
        hot, requests = self._schedule(5)
        strip = lambda line: {k: v for k, v in json.loads(line).items()
                              if k != "id"}  # noqa: E731
        hot_ids = [json.dumps(strip(h), sort_keys=True) for h in hot]
        fresh = set()
        for i, (_, h, line) in enumerate(requests):
            self.assertEqual(json.loads(line)["id"], i)
            ident = json.dumps(strip(line), sort_keys=True)
            if h >= 0:
                self.assertEqual(ident, hot_ids[h])
                continue
            self.assertNotIn(ident, hot_ids)
            self.assertNotIn(ident, fresh)
            fresh.add(ident)
            # A fresh identity runs as many sampling intervals as a
            # hot one, and keeps every warm-identity key fixed.
            req = json.loads(line)
            self.assertTrue(150_000 < req["cycles"] < 200_000)
            self.assertEqual(req["config"]["floorplan.variant"], "iq")
            self.assertFalse(set(req["config"]) - set(
                benchlib.TECHNIQUE_FLAGS) - {"dtm.mapping",
                                             "floorplan.variant"})


class SelfTime(unittest.TestCase):
    def span(self, i, name, start, end, parent=-1):
        return {"span": i, "name": name, "start": start, "end": end,
                "parent": parent}

    def test_self_time_subtracts_children(self):
        spans = [self.span(0, "loop", 0.0, 10.0),
                 self.span(1, "tick", 1.0, 4.0, 0),
                 self.span(2, "power", 4.0, 5.0, 0)]
        st = benchlib.self_times(spans)
        self.assertAlmostEqual(st["loop"]["self"], 6.0)
        self.assertAlmostEqual(st["loop"]["total"], 10.0)
        self.assertAlmostEqual(st["tick"]["self"], 3.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [self.span(0, "miss", 0.0, 10.0),
                 self.span(1, "compute", 1.0, 3.0, 0),
                 self.span(2, "compute", 2.0, 5.0, 0),
                 self.span(3, "compute", 9.0, 12.0, 0)]
        self.assertAlmostEqual(
            benchlib.self_times(spans)["miss"]["self"], 5.0)

    def test_grandchildren_do_not_reduce_the_grandparent(self):
        spans = [self.span(0, "fork", 0.0, 10.0),
                 self.span(1, "loop", 2.0, 10.0, 0),
                 self.span(2, "tick", 2.0, 9.0, 1)]
        st = benchlib.self_times(spans)
        self.assertAlmostEqual(st["fork"]["self"], 2.0)
        self.assertAlmostEqual(st["loop"]["self"], 1.0)

    def test_same_name_aggregates(self):
        spans = [self.span(0, "tick", 0.0, 1.0),
                 self.span(1, "tick", 1.0, 3.0)]
        self.assertEqual(benchlib.self_times(spans)["tick"],
                         {"count": 2, "total": 3.0, "self": 3.0})


class Digest(unittest.TestCase):
    def test_fnv1a64_reference_values(self):
        self.assertEqual(benchlib.fnv1a64(b""), benchlib.FNV_BASIS)
        self.assertEqual(benchlib.fnv1a64(b"a"), 0xAF63DC4C8601EC8C)

    def test_chain_depends_on_order(self):
        ab = benchlib.fnv1a64(b"b", benchlib.fnv1a64(b"a"))
        ba = benchlib.fnv1a64(b"a", benchlib.fnv1a64(b"b"))
        self.assertNotEqual(ab, ba)


if __name__ == "__main__":
    unittest.main()
