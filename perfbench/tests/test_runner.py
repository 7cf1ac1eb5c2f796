"""Deadlines and failure accounting of measurement processes
(perfbench/runner.py), with stand-in processes that speak the line
protocol."""

import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import runner  # noqa: E402


def child(body):
    """argv of a Python process running `body` after protocol helpers."""
    prelude = ("import json, os, sys, time\n"
               "def say(*a):\n"
               "    print(*a, flush=True)\n")
    return [sys.executable, "-c", prelude + body]


class RunnerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.err = os.path.join(self.tmp.name, "child.stderr")

    def tearDown(self):
        self.tmp.cleanup()

    def test_killed_run_fails_every_operation_not_completed(self):
        t0 = time.monotonic()
        run = runner.run_child(child(
            "say('first_op', time.monotonic_ns())\n"
            "say('progress 10 7')\n"
            "say('watchdog runnable_starvation')\n"
            "say('watchdog runnable_starvation')\n"
            "sys.stderr.write('[lpt watchdog] runnable_starvation\\n')\n"
            "sys.stderr.flush()\n"
            "time.sleep(60)\n"), 1.0, self.err)
        self.assertLess(time.monotonic() - t0, 10)
        self.assertTrue(run.timed_out)
        self.assertFalse(run.ok)
        self.assertEqual(run.describe(), "killed at its deadline")
        self.assertEqual(run.accounting(), (10, 3, True))
        self.assertEqual(run.watchdog, {"runnable_starvation": 2})
        self.assertGreaterEqual(run.setup_s, 0)
        self.assertIn("[lpt watchdog] runnable_starvation", run.stderr_tail())

    def test_crash_without_progress_fails_one_operation(self):
        run = runner.run_child(child("os.abort()\n"), 10.0, self.err)
        self.assertFalse(run.timed_out)
        self.assertLess(run.exit_code, 0)
        self.assertEqual(run.accounting(), (1, 1, True))
        self.assertIsNone(run.setup_s)

    def test_crash_after_its_result_still_fails(self):
        run = runner.run_child(child(
            "say('progress 5 4')\n"
            "say('result', json.dumps({'attempted': 5, 'completed': 5,"
            " 'check_failures': 0}))\n"
            "os.abort()\n"), 10.0, self.err)
        self.assertFalse(run.ok)
        self.assertEqual(run.accounting(), (5, 1, True))

    def test_check_failures_fail_operations_and_correctness(self):
        run = runner.run_child(child(
            "say('first_op', time.monotonic_ns())\n"
            "say('result', json.dumps({'attempted': 100, 'completed': 99,"
            " 'check_failures': 2}))\n"), 10.0, self.err)
        self.assertTrue(run.ok)
        self.assertEqual(run.accounting(), (100, 3, False))
        self.assertGreater(run.maxrss_kb, 0)


if __name__ == "__main__":
    unittest.main()
