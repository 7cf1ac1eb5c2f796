"""One measurement process: start it, hold it to a deadline, read its line
protocol (see src/bench.hpp) and account for what it attempted and failed.

Every process runs once. A crash, a missed deadline or a failed check is
counted as failed operations and its stderr is kept beside the results;
nothing is retried.
"""

import json
import os
import signal
import subprocess
import threading
import time


class ChildRun:
    """What one measurement process did."""

    def __init__(self, argv):
        self.argv = list(argv)
        self.exit_code = None     # exit status, or -signal number
        self.timed_out = False
        self.spawn_ns = 0         # CLOCK_MONOTONIC just before the fork
        self.first_op_ns = None   # from the `first_op` line
        self.progress = None      # last (attempted, completed)
        self.watchdog = {}        # flag kind -> episodes, from `watchdog`
        self.result = None        # the `result` object
        self.maxrss_kb = 0
        self.wall_s = 0.0
        self.stderr_path = None

    @property
    def ok(self):
        return self.exit_code == 0 and not self.timed_out and self.result is not None

    @property
    def setup_s(self):
        if self.first_op_ns is None:
            return None
        return (self.first_op_ns - self.spawn_ns) / 1e9

    def accounting(self):
        """(attempted, failed, checks_ok). A check failure fails its
        operation; a crashed or killed process fails every operation it had
        not completed, as its last progress line shows (at least one)."""
        if self.ok:
            r = self.result
            attempted = int(r["attempted"])
            checks = int(r["check_failures"])
            failed = attempted - int(r["completed"]) + checks
            return attempted, failed, checks == 0
        attempted, completed = self.progress or (1, 0)
        attempted = max(attempted, completed + 1)
        return attempted, attempted - completed, True

    def describe(self):
        if self.timed_out:
            return "killed at its deadline"
        if self.exit_code is not None and self.exit_code < 0:
            return "died of signal %d" % -self.exit_code
        if self.exit_code != 0:
            return "exited with code %s" % self.exit_code
        if self.result is None:
            return "printed no result"
        return "ok"

    def stderr_tail(self, lines=20):
        if not self.stderr_path or not os.path.exists(self.stderr_path):
            return []
        with open(self.stderr_path, "rb") as f:
            text = f.read().decode(errors="replace")
        return text.splitlines()[-lines:]


def run_child(argv, deadline_s, stderr_path, env=None):
    """Run argv to completion or until deadline_s seconds pass, then kill
    its whole process group and wait for it."""
    run = ChildRun(argv)
    run.stderr_path = stderr_path
    with open(stderr_path, "wb") as err:
        run.spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, start_new_session=True)

    def read_lines():
        for raw in proc.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            kind, _, rest = line.partition(" ")
            try:
                if kind == "first_op":
                    run.first_op_ns = int(rest)
                elif kind == "progress":
                    a, c = rest.split()
                    run.progress = (int(a), int(c))
                elif kind == "watchdog":
                    run.watchdog[rest] = run.watchdog.get(rest, 0) + 1
                elif kind == "result":
                    run.result = json.loads(rest)
            except ValueError:
                pass  # a torn line from a dying process

    reader = threading.Thread(target=read_lines, daemon=True)
    reader.start()
    deadline = time.monotonic() + deadline_s
    status = rusage = None
    while True:
        pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            status, rusage = st, ru
            break
        if time.monotonic() >= deadline:
            run.timed_out = True
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the child left behind
    except ProcessLookupError:
        pass
    reader.join()
    proc.stdout.close()
    run.exit_code = proc.returncode
    run.maxrss_kb = rusage.ru_maxrss
    run.wall_s = (time.monotonic_ns() - run.spawn_ns) / 1e9
    return run
