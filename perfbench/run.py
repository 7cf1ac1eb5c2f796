#!/usr/bin/env python3
"""The repository benchmark: real-runtime workloads of the lpt library.

    python3 perfbench/run.py --workload fork_join --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the lpt sources plus the lptbench program, Release) into
.bench_build/, runs the workload as separate measurement processes, checks
every output, prints a report and, as the last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics of the workload; --trace 1 gives the per-layer metrics
of fork_join, lock_queue and preempt_mix from a traced run (see NOTES.md).
"""

import argparse
import array
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # no __pycache__ inside perfbench/

import runner  # noqa: E402
import spans as spanlib  # noqa: E402
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"

# Workloads named in BENCHMARK.json. fork_join (unsteady) and cholesky
# (hangs) also run, but are kept out of the list; see NOTES.md. Every
# traced run covers TRACED, so fork_join's layers stay measured.
LISTED = ("lock_queue", "preempt_mix")
TRACED = ("fork_join",) + LISTED
WORKLOADS = TRACED + ("cholesky",)

REPEATS = 40            # measurement processes per untraced run
TRACE_WINDOW_SHARE = 8  # traced run: each pass measures seconds / this
# A process may take DEADLINE_FACTOR x its window plus DEADLINE_SLACK_S.
DEADLINE_FACTOR = 3
DEADLINE_SLACK_S = 2

E2E = (
    ("work_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Workload-specific names of work_per_s / latency_p50_us, printed beside
# them and kept in result.json: (alias, e2e metric, scale, unit).
ALIASES = {
    "fork_join": [("ults_per_s", "work_per_s", 1.0, "1/s"),
                  ("tree_p50_us", "latency_p50_us", 1.0, "us")],
    "lock_queue": [("msgs_per_s", "work_per_s", 1.0, "1/s"),
                   ("send_p50_us", "latency_p50_us", 1.0, "us")],
    "preempt_mix": [("hog_work_per_s", "work_per_s", 1.0, "1/s"),
                    ("request_p50_us", "latency_p50_us", 1.0, "us")],
    "cholesky": [("gflops", "work_per_s", 1e-9, "GFLOP/s"),
                 ("factorization_p50_us", "latency_p50_us", 1.0, "us")],
}

WATCHDOG_KINDS = ("runnable_starvation", "worker_stall", "quantum_overrun",
                  "fault_storm", "syscall_blocked", "deadlock",
                  "abandoned_lock")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----- build ----------------------------------------------------------------

def build():
    """Configure once and build lptbench; exits 1 (printing no result) when
    the sources are missing or do not compile."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as f:
                home = [l.split("=", 1)[1].strip() for l in f
                        if l.startswith("CMAKE_HOME_DIRECTORY:")]
            if home != [HERE]:  # the checkout moved: configure afresh
                os.remove(cache)
                shutil.rmtree(os.path.join(BUILD_DIR, "CMakeFiles"),
                              ignore_errors=True)
        if not os.path.exists(cache):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            _check(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        _check(["cmake", "--build", BUILD_DIR, "--target", "lptbench",
                "-j", jobs])
    return os.path.join(BUILD_DIR, "lptbench")


def _check(argv):
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        log(p.stdout.decode(errors="replace")[-4000:])
        log("build step failed: %s" % " ".join(argv))
        sys.exit(1)


def source_digest():
    """sha256 over ../src and perfbench/ sources: the code measured."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(x for x in dirs if x not in ("__pycache__",))
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_rev():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return p.stdout.decode().strip() if p.returncode == 0 else None


# ----- measurement processes --------------------------------------------------

def child_env():
    # The runtime reads LPT_* knobs at construction; measure its defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("LPT_")}


def run_process(binary, outdir, tag, mode, seed, window, trace=False):
    prefix = os.path.join(outdir, tag)
    argv = [binary, mode, "--seed", str(seed), "--window", repr(window),
            "--out", prefix]
    if trace:
        argv.append("--trace")
    run = runner.run_child(argv, DEADLINE_FACTOR * window + DEADLINE_SLACK_S,
                           prefix + ".stderr", child_env())
    run.prefix = prefix
    if not run.ok:
        log("%s: %s %s" % (tag, mode, run.describe()))
        for line in run.stderr_tail(5):
            log("  | " + line)
    return run


def samples(run, name):
    path = "%s.%s.f32" % (run.prefix, name)
    a = array.array("f")
    if run.ok and os.path.exists(path):
        with open(path, "rb") as f:
            a.frombytes(f.read())
    return list(a)


def rate(run):
    return run.result["work"] / run.result["elapsed_s"]


# ----- untraced run: end-to-end metrics ---------------------------------------

def end_to_end(binary, workload, seed, seconds, outdir):
    window = seconds / REPEATS
    runs = [run_process(binary, outdir, "r%d" % k, workload, seed * 1000 + k,
                        window) for k in range(REPEATS)]
    ok = [r for r in runs if r.ok]
    per_repeat = {
        "work_per_s": [rate(r) for r in ok],
        "peak_rss_mb": [r.maxrss_kb / 1024.0 for r in ok],
        "setup_s": [r.setup_s for r in runs if r.setup_s is not None],
    }
    latency = [x for r in ok for x in samples(r, "latency_us")]
    detail = {}
    values = {}
    for name, vals in per_repeat.items():
        if vals:
            detail[name] = dict(stats.summarize(vals), basis="repeats")
            values[name] = detail[name]["median"]
    if latency:
        detail["latency_p50_us"] = dict(stats.summarize(latency),
                                        basis="operations")
        values["latency_p50_us"] = detail["latency_p50_us"]["median"]
    return runs, values, detail


# ----- traced run: per-layer metrics ------------------------------------------

# Per-layer metrics of the calibration process (workload-independent floors
# and the apps/cholesky layer probe).
CALIB_LAYERS = (
    ("context.switch_ns", "ns"),
    ("yield.call_ns", "ns"),
    ("yield.pingpong_call_ns", "ns"),
    ("linalg.dgemm_gflops", "GFLOP/s"),
    ("span.floor_ns", "ns"),
    ("cholesky_probe.gflops", "GFLOP/s"),
    ("cholesky_probe.efficiency", "ratio"),
    ("cholesky_probe.residual", "ratio"),
)
_SCHED = (
    ("worker.run_frac", "ratio"),
    ("worker.sched_frac", "ratio"),
    ("worker.idle_frac", "ratio"),
    ("sched.dispatches_per_op", "ratio"),
    ("sched.steals_per_op", "ratio"),
    ("sched.delay_p50_ns", "ns"),
    ("sched.delay_p99_ns", "ns"),
)
_TRACE = (("trace.overhead_pct", "%"), ("trace.dropped", "count"))
_WATCHDOG = tuple(("watchdog.flags." + k, "count") for k in WATCHDOG_KINDS)
_KLT = (
    ("preempt.klt_switch_per_s", "1/s"),
    ("klt.switch_trip_p50_ns", "ns"),
    ("klt.on_demand", "count"),
    ("klt.degraded_ticks", "count"),
)
# Per-layer metrics of each workload's passes, printed as <workload>.<name>.
WORKLOAD_LAYERS = {
    "fork_join": _SCHED + (
        ("stack.shed_per_spawn", "ratio"),
        ("spawn.call_ns", "ns"),
        ("join.wait_ns", "ns"),
        ("spawn.first_dispatch_p50_ns", "ns"),
    ) + _WATCHDOG + _TRACE,
    "lock_queue": _SCHED + (
        ("mutex.lock_ns", "ns"),
        ("mutex.private_lock_ns", "ns"),
        ("condvar.wait_ns", "ns"),
        ("rwlock.shared_ns", "ns"),
        ("sync.blocks_per_msg", "ratio"),
    ) + _WATCHDOG + _TRACE,
    "preempt_mix": (
        ("sched.delay_p50_ns", "ns"),
        ("sched.delay_p99_ns", "ns"),
        ("spawn.external_call_ns", "ns"),
        ("spawn.first_dispatch_p50_ns", "ns"),
        ("timer.ticks_per_s", "1/s"),
        ("signals.tick_effectiveness", "ratio"),
        ("signals.deferred_frac", "ratio"),
        ("preempt.signal_yield_per_s", "1/s"),
        ("preempt.overhead_pct", "%"),
    ) + _KLT + (
        ("gen.late_p99_us", "us"),
        ("request_p99_us", "us"),
    ) + _WATCHDOG + _TRACE,
    "cholesky": _KLT + (
        ("efficiency", "ratio"),
        ("residual", "ratio"),
    ) + _WATCHDOG + _TRACE,
}


def layer_spec(workload_set):
    """[(name, unit)] of the per-layer metrics a traced run over
    workload_set prints, in order; BENCHMARK.json lists layer_spec(TRACED)."""
    return list(CALIB_LAYERS) + [
        ("%s.%s" % (w, n), u) for w in workload_set for n, u in WORKLOAD_LAYERS[w]]


def span_table(by_name, dropped):
    """Per span name: count, median duration, median self time and the
    share of all its time that is self time."""
    table = {"dropped": dropped}
    for name, g in sorted(by_name.items()):
        table[name] = {
            "count": g["count"],
            "duration_p50_ns": stats.percentile(g["durations"], 50.0),
            "self_p50_ns": stats.percentile(g["self"], 50.0),
            "self_share": sum(g["self"]) / max(1, sum(g["durations"])),
        }
    return table


def layer_metrics(workload_set, calib, passes):
    """(metrics, detail) from the calibration process and each workload's
    untraced (u) and traced (t) pass. A metric whose process failed reads
    None. detail holds each span-timed metric's distribution and each
    traced process's span table."""
    out, detail = {}, {"spans": {}}

    def ratio(name, num, den, num_name, den_name):
        out[name] = (num / den if den else 0.0, {num_name: num, den_name: den})

    def from_spans(name, by, span, per_call=1.0):
        g = by.get(span)
        if g:
            d = stats.summarize([x / per_call for x in g["durations"]])
            d["basis"] = "spans" if per_call == 1.0 else (
                "spans of %d calls each" % per_call)
            detail[name] = d
            out[name] = d["median"]

    def read_spans(run, key):
        sp, dropped = spanlib.read(run.prefix + ".spans")
        by = spanlib.by_name(sp)
        detail["spans"][key] = span_table(by, dropped)
        return by

    c = calib.result if calib.ok else None
    dgemm = None  # GFLOP/s = flop per ns
    if c:
        by = read_spans(calib, "calibrate")
        from_spans("context.switch_ns", by, "context_switch",
                   c["calls.context_switch"])
        from_spans("yield.call_ns", by, "yield.empty", c["calls.yield.empty"])
        from_spans("yield.pingpong_call_ns", by, "yield.pingpong",
                   c["calls.yield.pingpong"])
        from_spans("span.floor_ns", by, "empty")
        dgemm = c["flops.dgemm"] / stats.percentile(by["dgemm"]["durations"], 50)
        out["linalg.dgemm_gflops"] = dgemm
        probe = c["cholesky_probe.flops_per_s"] / 1e9
        out["cholesky_probe.gflops"] = probe
        ratio("cholesky_probe.efficiency", probe,
              c["cholesky_probe.workers"] * dgemm, "gflops",
              "workers_x_dgemm_gflops")
        out["cholesky_probe.residual"] = c["cholesky_probe.residual"]

    for w in workload_set:
        u, t = passes[w]
        p = w + "."
        for k in WATCHDOG_KINDS:  # counted even when a pass was killed
            out[p + "watchdog.flags." + k] = (u.watchdog.get(k, 0) +
                                              t.watchdog.get(k, 0))
        if not (u.ok and t.ok):
            continue
        tr = t.result
        secs = tr["elapsed_s"]
        by = read_spans(t, w)
        u_rate, t_rate = rate(u), rate(t)
        out[p + "trace.overhead_pct"] = (
            100.0 * (u_rate - t_rate) / u_rate,
            {"untraced_work_per_s": u_rate, "traced_work_per_s": t_rate})
        out[p + "trace.dropped"] = tr["rt.trace_dropped"]
        out[p + "sched.delay_p50_ns"] = tr["rt.sched_delay_ns.p50"]
        out[p + "sched.delay_p99_ns"] = tr["rt.sched_delay_ns.p99"]
        out[p + "spawn.first_dispatch_p50_ns"] = tr["rt.spawn_latency_ns.p50"]
        states = {s: tr["rt.time_ns." + s]
                  for s in ("running", "scheduling", "idle", "parked")}
        for frac, state in (("run", "running"), ("sched", "scheduling"),
                            ("idle", "idle")):
            ratio(p + "worker.%s_frac" % frac, states[state],
                  sum(states.values()), "time_ns." + state, "time_ns.all")
        op = {"fork_join": "ults", "lock_queue": "msgs"}.get(w, "work")
        ratio(p + "sched.dispatches_per_op", tr["rt.dispatches"], tr["work"],
              "dispatches", op)
        ratio(p + "sched.steals_per_op", tr["rt.steals"], tr["work"], "steals",
              op)
        out[p + "timer.ticks_per_s"] = tr["rt.ticks_sent"] / secs
        ratio(p + "signals.tick_effectiveness", tr["rt.handler_entries"],
              tr["rt.ticks_sent"], "handler_entries", "ticks_sent")
        ratio(p + "signals.deferred_frac", tr["rt.handler_deferred"],
              tr["rt.handler_entries"], "handler_deferred", "handler_entries")
        out[p + "preempt.signal_yield_per_s"] = tr["rt.preempt_signal_yield"] / secs
        out[p + "preempt.klt_switch_per_s"] = tr["rt.preempt_klt_switch"] / secs
        out[p + "klt.switch_trip_p50_ns"] = tr["rt.klt_switch_trip_ns.p50"]
        out[p + "klt.on_demand"] = tr["rt.klts_on_demand"]
        out[p + "klt.degraded_ticks"] = tr["rt.klt_degraded_ticks"]
        ratio(p + "stack.shed_per_spawn", tr["rt.stacks_shed"],
              tr["rt.ults_spawned"], "stacks_shed", "ults_spawned")
        ratio(p + "sync.blocks_per_msg", tr["rt.blocks"], tr["work"], "blocks",
              "msgs")
        from_spans(p + "spawn.call_ns", by, "spawn")
        from_spans(p + "join.wait_ns", by, "join")
        from_spans(p + "spawn.external_call_ns", by, "spawn.external")
        from_spans(p + "mutex.lock_ns", by, "mutex.lock")
        from_spans(p + "mutex.private_lock_ns", by, "mutex.private_lock")
        from_spans(p + "condvar.wait_ns", by, "condvar.wait")
        from_spans(p + "rwlock.shared_ns", by, "rwlock.lock_shared")
        if w == "preempt_mix":
            base = c["hog_units_per_s_no_timer"] if c else None
            if base:
                out[p + "preempt.overhead_pct"] = (
                    100.0 * (base - u_rate) / base,
                    {"hog_work_per_s_no_timer": base, "hog_work_per_s": u_rate})
            for name, key in (("gen.late_p99_us", "late_us"),
                              ("request_p99_us", "latency_us")):
                vals = sorted(samples(u, key))
                d = stats.summarize(vals)
                d["basis"] = "operations of the untraced pass"
                detail[p + name] = d
                out[p + name] = stats.percentile(vals, 99.0)
        if w == "cholesky":
            if dgemm:
                ratio(p + "efficiency", rate(u) / 1e9,
                      u.result["workers"] * dgemm, "gflops",
                      "workers_x_dgemm_gflops")
            out[p + "residual"] = max(samples(u, "residual") +
                                      samples(t, "residual"))

    metrics = {}
    for name, unit in layer_spec(workload_set):
        v = out.get(name)
        entry = {"value": v[0] if isinstance(v, tuple) else v, "unit": unit}
        if isinstance(v, tuple):
            entry["base"] = v[1]
        metrics[name] = entry
    return metrics, detail


def traced(binary, workload, seed, seconds, outdir):
    workload_set = list(TRACED) + ([workload] if workload not in TRACED else [])
    window = seconds / TRACE_WINDOW_SHARE
    calib = run_process(binary, outdir, "calibrate", "calibrate", seed * 1000,
                        window)
    passes = {}
    for i, w in enumerate(workload_set):
        s = seed * 1000 + 100 + i
        passes[w] = (run_process(binary, outdir, w + ".untraced", w, s, window),
                     run_process(binary, outdir, w + ".traced", w, s, window,
                                 trace=True))
    runs = [calib] + [r for pair in passes.values() for r in pair]
    return (runs,) + layer_metrics(workload_set, calib, passes)


# ----- report -----------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        ap.error("--seconds must be > 0 and --seed >= 0")

    binary = build()
    outdir = os.path.join(BUILD_DIR, "results", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    jiffies0 = cpu_jiffies()

    if args.trace:
        runs, metrics, detail = traced(binary, args.workload, args.seed,
                                       args.seconds, outdir)
    else:
        runs, values, detail = end_to_end(binary, args.workload, args.seed,
                                          args.seconds, outdir)
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in E2E}

    jiffies1 = cpu_jiffies()
    steal = None  # CPU time the host gave to other tenants while measuring
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        steal = (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1])

    attempted = failed = 0
    correct = True
    processes = []
    for r in runs:
        a, f, checks_ok = r.accounting()
        attempted += a
        failed += f
        correct = correct and checks_ok
        processes.append({
            "argv": r.argv[1:], "outcome": r.describe(), "attempted": a,
            "failed": f, "setup_s": r.setup_s, "wall_s": r.wall_s,
            "peak_rss_mb": r.maxrss_kb / 1024.0,
            "watchdog": r.watchdog, "stderr": r.stderr_tail(),
            "result": r.result,
        })
    record = {
        "meta": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "processes": len(runs),
            "repeats": 1 if args.trace else REPEATS,
            "window_s": args.seconds / (TRACE_WINDOW_SHARE if args.trace
                                        else REPEATS),
            "build_type": BUILD_TYPE,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "host_steal_frac": steal,
            "git_rev": git_rev(), "source_digest": source_digest(),
            "machine": platform.machine(), "python": platform.python_version(),
        },
        "failed_frac": failed / attempted if attempted else None,
        "metrics": metrics,
        "detail": detail,
        "aliases": {},
        "processes": processes,
    }
    if not args.trace:
        for alias, name, scale, unit in ALIASES[args.workload]:
            v = metrics[name]["value"]
            record["aliases"][alias] = {
                "value": v * scale if v is not None else None, "unit": unit}
    with open(os.path.join(outdir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)

    print("lpt benchmark: workload=%s seed=%d seconds=%g trace=%d build=%s "
          "nproc=%s rev=%s src=%s host_steal=%s" % (
              args.workload, args.seed, args.seconds, args.trace, BUILD_TYPE,
              record["meta"]["nproc"], record["meta"]["git_rev"],
              record["meta"]["source_digest"],
              "n/a" if steal is None else "%.4f" % steal))
    for p in processes:
        print("  process %-44s %-22s attempted=%d failed=%d" % (
            " ".join(p["argv"][:3]), p["outcome"], p["attempted"], p["failed"]))
    print("  failed_frac = %.6g (%d of %d operations)" % (
        record["failed_frac"] or 0.0, failed, attempted))
    for name, m in metrics.items():
        d = detail.get(name)
        extra = ""
        if d:
            extra = "  [%d %s: median %.6g, q1 %.6g, q3 %.6g" % (
                d["n"], d["basis"], d["median"], d["q1"], d["q3"])
            if d["tail_p"] is not None:
                extra += ", p%g %.6g" % (d["tail_p"], d["tail"])
            extra += "]"
        print("  %-44s %14s %-8s%s" % (
            name, "n/a" if m["value"] is None else "%.6g" % m["value"],
            m["unit"], extra))
    for alias, m in record["aliases"].items():
        print("  %-44s %14s %-8s(alias)" % (
            args.workload + "." + alias,
            "n/a" if m["value"] is None else "%.6g" % m["value"], m["unit"]))
    print("  full record: %s" % os.path.relpath(
        os.path.join(outdir, "result.json"), ROOT))

    if all(m["value"] is None for m in metrics.values()):
        log("no metric could be measured")
        return 1
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
