"""Orchestration of one benchmark run; entered through ``run.py``.

An untraced run (``--trace 0``) builds the workload, warms up, then
interleaves timed builds and target solves with rounds of fixed-budget
solves until ``--seconds`` have passed, and reports the end-to-end
metrics.  A traced run (``--trace 1``) runs pairs of untraced and traced
passes over the same solves, checks that every solve ends bitwise equal in
both, and reports the per-layer metrics and the tracing overhead.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 15      # timed builds of the workload per untraced run
MIN_ROUNDS = 3          # fixed-budget rounds per untraced run, at least
SPAN_CAP = 1_000_000    # no further traced pass once this many spans are held
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile


def git_commit():
    """HEAD of a plain git checkout at ROOT (detached or on a loose ref), else 'unknown'."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(seed, import_s, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown"),
                 "threads": blas_threads,
                 "threads_set_by": "OPENBLAS/OMP/MKL_NUM_THREADS before numpy import"},
        "git_commit": git_commit(),
        "seed": seed,
        "import_s": import_s,
    }


def tail(samples):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(xs))      # nearest rank, 1-based
        if len(xs) - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100, xs[-1]


class Tally:
    """Attempted and failed solves, with the first few failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []

    def add(self, outcome):
        self.attempted += 1
        if outcome.reason is not None:
            self.fail(f"{outcome.ident}: {outcome.reason}")
        return outcome

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


class Spans:
    """What a traced pass learns about its solves, beside the tracer's spans."""

    def __init__(self):
        self.tracer = tracing.Tracer()
        self.solves = []
        self.cli_mains = []      # (root span index, rows per parsed file)
        self.trace_bytes = 0


def time_build(build, seed, workdir):
    """Seconds to build the workload once; the plan is dropped."""
    t0 = perf_counter()
    build(seed, str(workdir))
    return perf_counter() - t0


def solve(s, spans=None):
    """Run one library solve, under a root span when `spans` is given."""
    if spans is None:
        return wl.run_solve(s, perf_counter)
    clock = tracing.IterClock()
    roots = []

    @contextmanager
    def around():
        with spans.tracer.span("solve") as root:
            roots.append(root)
            yield

    o = wl.run_solve(s, perf_counter, callbacks=(clock,), around=around)
    # the window between the ends of the first and last iterations
    window = (clock.n - 1, clock.first, clock.last) if clock.n >= 2 else (clock.n, None, None)
    ora = s.oracle
    spans.solves.append(tracing.SolveSpan(
        s.key, s.solver, roots[0], *window, o.records, o.iters, o.reported_calls,
        s.inst.m, s.inst.n, ora.batch_size if ora.kind == "minibatch" else 0))
    return o


def cli_invocation(run, plan, tally, spans=None):
    """One `ugbench run`; returns (iterations, seconds, per-seed outcomes)."""
    if spans is None:
        rc, dt = wl.run_cli(run, plan.data_path, perf_counter)
    else:
        with spans.tracer.span("cli.main") as root:
            rc, dt = wl.run_cli(run, plan.data_path, perf_counter)
    outs = [tally.add(o) for o in wl.check_cli(run, rc)]
    if spans is not None:
        tr = spans.tracer
        entries = {tr.id("solvers." + e) for e in tracing.SOLVER_ENTRIES}
        roots = [i for i in range(root + 1, len(tr.name)) if tr.name[i] in entries]
        kind, _, arg = run.oracle.partition(":")
        inst = plan.instances[0]
        for i, o in zip(roots, outs):
            spans.solves.append(tracing.SolveSpan(
                run.key, run.solver.replace(":", "-"), i, o.iters, None, None,
                o.records, o.iters, o.reported_calls, inst.m, inst.n,
                int(arg) if kind == "minibatch" else 0))
        spans.cli_mains.append((root, inst.m))
        spans.trace_bytes += sum(os.path.getsize(run.trace_path(s)) for s in run.seeds)
    return sum(o.iters for o in outs), dt, outs


def throughput_round(plan, tally, spans=None):
    """Every fixed-budget solve or CLI invocation once; (iterations, seconds, outcomes)."""
    iters, secs, outs = 0, 0.0, []
    for s in plan.fixed:
        o = tally.add(solve(s, spans))
        outs.append(o)
        iters += o.iters
        secs += o.seconds
    for run in plan.cli_runs:
        n, dt, seed_outs = cli_invocation(run, plan, tally, spans)
        outs += seed_outs
        iters += n
        secs += dt
    return iters, secs, outs


def warm_up(plan):
    throughput_round(plan, Tally())
    seen = set()
    for s in plan.targets:
        if s.key not in seen:
            seen.add(s.key)
            solve(s)


def end_to_end(plan, rebuild, seconds, tally):
    """Untraced run: target solves and builds interleaved with fixed-budget rounds.

    The target solves and the SETUP_REPEATS timed builds (`rebuild()`
    returns the seconds of one) are spread over the `seconds` window, so
    that every metric sees the same stretches of machine load.
    """
    warm_up(plan)
    gc.collect()
    queue = [(i, s) for _ in range(plan.target_passes) for i, s in enumerate(plan.targets)]
    # a build after every len(queue) / SETUP_REPEATS target solves
    n_solves = len(queue)
    for j in reversed(range(SETUP_REPEATS)):
        queue.insert(j * n_solves // SETUP_REPEATS, (None, None))
    total = len(queue)
    runs, iters, rates = [[] for _ in plan.targets], [0] * len(plan.targets), []
    builds = []
    t_start = perf_counter()
    while True:
        elapsed = (perf_counter() - t_start) / seconds
        if queue and 1 - len(queue) / total <= elapsed:
            i, s = queue.pop(0)
            if s is None:
                builds.append(rebuild())
                continue
            o = tally.add(solve(s))
            runs[i].append(o.seconds)
            iters[i] = o.iters
        elif queue or len(rates) < MIN_ROUNDS or elapsed < 1:
            n, secs, _ = throughput_round(plan, tally)
            rates.append(n / secs)
        else:
            break
    # a target solve's time is the median of its runs, so that a run caught
    # by a burst of other load does not reach the tail
    samples = [statistics.median(r) for r in runs]
    pct, tail_s = tail(samples)
    metrics = {
        "setup_s": (statistics.median(builds), "s"),
        "iters_per_s": (statistics.median(rates), "1/s"),
        "time_to_target_s": (statistics.median(samples), "s"),
        "time_to_target_tail_s": (tail_s, "s"),
        "iters_to_target": (statistics.median(iters), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"setup_s is the median of {len(builds)} builds spread over the run",
             f"time_to_target_s and time_to_target_tail_s (p{pct}) are over "
             f"{len(samples)} target solves, each timed as the median of "
             f"{plan.target_passes} runs",
             f"iters_per_s is the median of {len(rates)} fixed-budget rounds"]
    return metrics, notes


def traced(plan, seconds, tally, spans_path):
    """Pairs of untraced and traced passes over the same solves."""
    spans = Spans()
    objects = [inst.obj for inst in plan.instances]
    warm_up(plan)
    t_start = perf_counter()
    wall = {"untraced": 0.0, "traced": 0.0}
    pairs = 0
    while pairs == 0 or (perf_counter() - t_start < seconds
                         and len(spans.tracer.start) < SPAN_CAP):
        finals = {}
        for mode, sp in (("untraced", None), ("traced", spans)):
            gc.collect()
            t0 = perf_counter()
            if sp is not None:
                sp.tracer.install(objects)
            try:
                outs = [tally.add(solve(s, sp)) for s in plan.targets]
                outs += throughput_round(plan, tally, sp)[2]
            finally:
                spans.tracer.uninstall()     # a no-op after the untraced pass
            wall[mode] += perf_counter() - t0
            finals[mode] = [(o.ident, o.final) for o in outs]
        for u, t in zip(finals["untraced"], finals["traced"]):
            if u != t:
                tally.fail(f"{u[0]}: traced final (F, H) {t[1]} != untraced {u[1]}")
        pairs += 1
    spans.tracer.save(spans_path)
    metrics = tracing.layer_metrics(spans.tracer, spans.solves, spans.cli_mains,
                                    spans.trace_bytes, wl.SOLVER_KEYS)
    metrics["trace.overhead_s"] = (wall["traced"] - wall["untraced"], "s")
    metrics["trace.overhead_ratio"] = (wall["traced"] / wall["untraced"], "ratio")
    notes = [f"{pairs} untraced/traced pass pairs; {len(spans.tracer.start)} spans "
             f"written to {spans_path.relative_to(ROOT)}",
             "per-layer times come from the traced passes; where the work per call "
             "is small (small-overhead) tracing inflates them",
             "a per-layer metric of a layer or solver the workload does not run reads 0"]
    return metrics, notes


def main(argv, import_s, blas_threads):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    env = environment(args.seed, import_s, blas_threads)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        build = wl.WORKLOADS[args.workload]
        plan = build(args.seed, str(workdir))
        if args.trace:
            spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz"
            metrics, notes = traced(plan, args.seconds, tally, spans_path)
        else:
            rebuild_dir = workdir / "rebuild"
            rebuild_dir.mkdir()
            metrics, notes = end_to_end(
                plan, partial(time_build, build, args.seed, rebuild_dir),
                args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_frac: {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted solves)")
    for note in notes:
        print(f"note: {note}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
