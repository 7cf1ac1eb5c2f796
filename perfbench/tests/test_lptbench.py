"""Tests that need the lptbench binary (built into .bench_build/ first):
the seeded arrival generator and a deliberately killed workload process."""

import math
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import runner  # noqa: E402

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def arrivals(seed, count):
    out = subprocess.run([BINARY, "arrivals", "--seed", str(seed), "--count",
                          str(count)], stdout=subprocess.PIPE, check=True)
    return [int(x) for x in out.stdout.split()]


class ArrivalsTest(unittest.TestCase):
    N = 20000

    def test_same_seed_same_schedule(self):
        self.assertEqual(arrivals(7, 500), arrivals(7, 500))
        self.assertNotEqual(arrivals(7, 500), arrivals(8, 500))

    def test_poisson_at_1000_per_second(self):
        t = arrivals(3, self.N)
        gaps = [b - a for a, b in zip([0] + t, t)]
        self.assertTrue(all(g >= 0 for g in gaps))
        mean = sum(gaps) / len(gaps)
        # Mean gap 1 ms; the sample mean's sd is 1 ms / sqrt(N) = 0.7 %.
        self.assertAlmostEqual(mean / 1e6, 1.0, delta=0.03)
        # Exponential gaps: P(gap < mean) = 1 - 1/e, unlike a periodic
        # stream, whose gaps all equal the mean.
        below = sum(g < 1e6 for g in gaps) / len(gaps)
        self.assertAlmostEqual(below, 1 - math.exp(-1), delta=0.02)


class KilledRunTest(unittest.TestCase):
    def test_deadline_kill_counts_unfinished_operations(self):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [BINARY, "fork_join", "--seed", "1", "--window", "30",
                    "--out", os.path.join(tmp, "r0")]
            r = runner.run_child(argv, 1.5, os.path.join(tmp, "r0.stderr"),
                                 run.child_env())
        self.assertTrue(r.timed_out)
        self.assertIsNotNone(r.setup_s)
        attempted, failed, checks_ok = r.accounting()
        # The closed loop had one tree in flight when it was killed.
        self.assertEqual(failed, 1)
        self.assertEqual(attempted, r.progress[1] + 1)
        self.assertTrue(checks_ok)


if __name__ == "__main__":
    unittest.main()
