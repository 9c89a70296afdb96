"""The benchmark's measurement loops: set-up, untraced and traced passes,
metrics. perfbench/run.py is the entry point."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from gwpva.formats import parse_prior_config
from spans import NullTracer, Tracer
from workloads import (COUNTS, WORKLOADS, Coverage, Report, coverage_problems,
                       fit_layer, run_cli)

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUPS = 3                 # fresh-interpreter set-ups per run; setup_s is their median
COVERAGE_PASS = 20         # replicates in one coverage-study pass
LAYERS = ("fit", "sampling", "eigen", "fixed_point", "time_bounds", "reduce",
          "simulate", "baseline", "cli")
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import gwpva.cli; "
              "sys.exit(gwpva.cli.main(sys.argv[1:]))")


class Ledger:
    """Operations attempted, and those whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAIL {what}: {p}")


def checked(ledger: Ledger, what: str, fn):
    """Run fn() -> (value, problems); an exception is a failed operation."""
    try:
        value, problems = fn()
    except Exception as e:  # a failing operation must not stop the run
        value, problems = None, [f"{type(e).__name__}: {e}"]
    ledger.record(what, problems)
    return value


def measure_setup(w, ledger: Ledger) -> float:
    """Median wall time of: fresh interpreter, import gwpva.cli, fit to JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *w.fit_argv()],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)

        def check():
            if proc.returncode:
                return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            return None, w.check_fit(json.loads(w.post_path.read_text()))
        checked(ledger, "setup fit", check)
    return statistics.median(times)


# ---- passes -----------------------------------------------------------------


def report_pass(w, ledger: Ledger):
    """One untraced pass through the CLI: (op times, outputs, work counts)."""
    times, results, counts = {}, {}, Counter()
    for op in w.ops:
        def check():
            t0 = time.perf_counter()
            rc, out = run_cli(w.argv(op))
            times[op.cmd] = time.perf_counter() - t0
            if rc != 0:
                return None, [f"exit {rc}: {out.strip()[-300:]}"]
            res = w.read(op)
            problems = w.check(op, res, results)
            results[op.cmd] = res
            counts.update(w.counts(op, res))
            return None, problems
        checked(ledger, op.cmd, check)
        if op.curves:
            checked(ledger, f"{op.cmd} curves", lambda: (None, w.check_curves(results[op.cmd])))
    return times, results, counts


def traced_report_pass(w, tr, ledger: Ledger):
    """The same pass replayed as library calls inside spans."""
    results, counts = {}, Counter()
    for op in w.ops:
        def run():
            with tr.op(op.cmd):
                c = w.replay(op, tr)
            counts.update(c)
            res = w.read(op)
            problems = w.check(op, res, results)
            results[op.cmd] = res
            return None, problems
        checked(ledger, f"traced {op.cmd}", run)
        if op.curves:
            checked(ledger, f"traced {op.cmd} curves",
                    lambda: (None, w.check_curves(results[op.cmd])))
    return results, counts


def coverage_pass(cov, p: int, tr, ledger: Ledger):
    """Replicates p*COVERAGE_PASS ... ; (replicate times, outcomes, work counts)."""
    times, outcomes, counts = [], [], Counter()
    for r in range(p * COVERAGE_PASS, (p + 1) * COVERAGE_PASS):
        def run():
            t0 = time.perf_counter()
            out, c, problems = cov.replicate(r, tr)
            times.append(time.perf_counter() - t0)
            counts.update(c)
            return out, problems
        outcomes.append(checked(ledger, f"replicate {r}", run))
    return times, outcomes, counts


# ---- the two kinds of run ---------------------------------------------------


def another_pass(start: float, seconds: float, laps: list[float], least: int) -> bool:
    """Closed-loop stop rule: run at least ``least`` passes, then start another
    only if one more pass of the mean length so far still ends within the
    run's time. A bear-report pass takes 20-30 s, so a plain deadline would
    make its run length, and the time budget, jump by a whole pass."""
    return (len(laps) < least
            or time.perf_counter() - start + statistics.mean(laps) <= seconds)


def run_untraced(name, w, cov, seconds, ledger: Ledger) -> dict:
    pass_times, op_times, counts_seen = [], {}, []
    outcomes, replicate_times = [], []
    start, laps = time.perf_counter(), []
    p = 0
    while True:
        lap0 = time.perf_counter()
        if cov is None:
            times, results, counts = report_pass(w, ledger)
            if p == 0:
                first = (results, counts)
            else:  # the same seed must give the same outputs and work, bit for bit
                ledger.record("pass repeats pass 0", [] if (results, counts) == first
                              else ["outputs or work counts differ from pass 0"])
            for k, v in times.items():
                op_times.setdefault(k, []).append(v)
            pass_times.append(sum(times.values()))
        else:
            times, outs, counts = coverage_pass(cov, p, NullTracer(), ledger)
            outcomes += outs
            replicate_times += times
            pass_times.append(sum(times))
        counts_seen.append(counts)
        p += 1
        laps.append(time.perf_counter() - lap0)
        if not another_pass(start, seconds, laps, least=2):
            break
    if cov is not None:
        ledger.record("coverage band", coverage_problems(outcomes))
    draws = sum(c["sampling.draws"] for c in counts_seen)
    metrics = {
        "pass_s": (statistics.median(pass_times), "s"),
        "draws_per_s": (draws / sum(pass_times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{name}: {len(pass_times)} pass(es) in {sum(pass_times):.3f} s")
    print("  pass times: " + " ".join(f"{t:.4f}" for t in pass_times))
    for cmd, ts in op_times.items():
        print(f"  {cmd.replace('-', '_')}_s = {statistics.median(ts):.4f} s "
              f"(median of {len(ts)})")
    if cov is not None:
        n = len(replicate_times)
        deciles = statistics.quantiles(replicate_times, n=10)
        print(f"  replications_per_s = {n / sum(pass_times):.4f} 1/s ({n} replications); "
              f"replicate p50 {1e3 * deciles[4]:.2f} ms, p90 {1e3 * deciles[8]:.2f} ms")
    return metrics


def run_traced(name, w, cov, seconds, ledger: Ledger) -> dict:
    tr = Tracer()
    fit_self = []
    for _ in range(5):  # the set-up fit's library calls, in-process
        first = len(tr.spans)
        with tr.op("fit"):
            fit_layer(w.table_path, w.prior_path, tr)
        fit_self.append(tr.self_times(first)["fit"])
    selfs, traced_s, untraced_s, pass_counts = [], [], [], []
    start, laps = time.perf_counter(), []
    p = 0
    while True:
        lap0 = time.perf_counter()
        first = len(tr.spans)
        if cov is None:
            times, results_u, counts_u = report_pass(w, ledger)
            untraced_s.append(sum(times.values()))
            results_t, counts_t = traced_report_pass(w, tr, ledger)
        else:
            times, results_u, counts_u = coverage_pass(cov, p, NullTracer(), ledger)
            untraced_s.append(sum(times))
            _, results_t, counts_t = coverage_pass(cov, p, tr, ledger)
        ledger.record("traced replay matches untraced outputs",
                      [] if results_t == results_u else ["outputs differ"])
        ledger.record("work counts repeat",
                      [] if counts_t == counts_u else [f"{counts_t} != {counts_u}"])
        selfs.append(tr.self_times(first))
        traced_s.append(tr.op_total(first))
        pass_counts.append(counts_t)
        p += 1
        laps.append(time.perf_counter() - lap0)
        if not another_pass(start, seconds, laps, least=1):
            break
    tr.dump(WORK / f"spans-{name}-{w.seed}.json")

    def layer(k):
        return statistics.median(s.get(k, 0.0) for s in selfs)
    metrics = {"fit.busy_s": (statistics.median(fit_self) + layer("fit"), "s")}
    for k in LAYERS[1:-1]:
        metrics[f"{k}.busy_s"] = (layer(k), "s")
    metrics["cli.self_s"] = (layer("cli"), "s")
    for k in COUNTS:
        unit = "bytes" if k.endswith("bytes_computed") else "count"
        metrics[k] = (pass_counts[0][k], unit)
    t_pass, u_pass = statistics.median(traced_s), statistics.median(untraced_s)
    metrics["trace.pass_s"] = (t_pass, "s")
    metrics["trace.overhead_s"] = (t_pass - u_pass, "s")
    accounted = sum(sum(s.values()) for s in selfs) / sum(traced_s)
    print(f"{name}: {len(traced_s)} traced pass(es); untraced pass_s {u_pass:.4f} s, "
          f"traced pass_s {t_pass:.4f} s; layer self times account for "
          f"{100 * accounted:.2f}% of traced pass time")
    for k in LAYERS[1:]:
        share = sum(s.get(k, 0.0) for s in selfs) / sum(traced_s)
        print(f"  {k:12s} self share {100 * share:6.2f}%")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; prints the human-readable report and returns the
    final JSON record."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    ledger = Ledger()
    try:
        w = Report(workdir=workdir, seed=seed, **WORKLOADS[workload])
        cov = None
        if workload == "coverage-study":
            cov = Coverage(parse_prior_config(w.prior_path.read_text()).hyper, seed)
        if trace:
            checked(ledger, "fit", lambda: (None, fit_problems(w)))
            metrics = run_traced(workload, w, cov, seconds, ledger)
        else:
            metrics = {"setup_s": (measure_setup(w, ledger), "s"),
                       **run_untraced(workload, w, cov, seconds, ledger)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v} {unit}")
    print(f"failed_frac = {ledger.failed / ledger.attempted} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def fit_problems(w) -> list[str]:
    """Fit in-process through the CLI (untimed) and check the posterior."""
    rc, out = run_cli(w.fit_argv())
    if rc:
        return [f"exit {rc}: {out.strip()[-300:]}"]
    return w.check_fit(json.loads(w.post_path.read_text()))
