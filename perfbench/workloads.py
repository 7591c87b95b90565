"""The benchmark's workloads: which instances, which solves, which targets.

Every input is generated from the workload seed.  The library is reached
only through its public functions; the CLI only through ``cli.main``.

Each workload yields a ``Plan`` with three kinds of work:

* fixed-budget solves whose iterations per second give ``iters_per_s``;
  they evaluate F (and UGM's certificate) only at the last iteration
  (``trace_every = max_iters``), though a record is still emitted every
  iteration;
* target solves (``trace_every=1``) that stop through the public
  ``callbacks=`` hook once the accuracy target is met;
* CLI invocations (``stochastic-cli`` only), whose wall time replaces the
  fixed-budget solves in ``iters_per_s``.
"""

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ugbench import cli, dataio
from ugbench.oracles import OracleConfig
from ugbench.problems import ANCHOR_FEAS_TOL, least_squares_f, logistic_f, p_power_f
from ugbench.solvers import (
    run_adagrad_norm,
    run_projected_subgrad,
    run_ugm,
    run_usfgm,
    run_usgm,
)

# Bound here, at import, so that patching ``ugbench.solvers`` attributes in
# the traced run never wraps the benchmark's own solver calls.
SOLVERS = {
    "ugm": run_ugm,
    "usgm": run_usgm,
    "usfgm": partial(run_usfgm, surrogate_mode="stochastic_symmetrized"),
    "usfgm-deterministic": partial(run_usfgm, surrogate_mode="deterministic_bregman"),
    "sgd": run_projected_subgrad,
    "adagrad-grad_diff": partial(run_adagrad_norm, gamma_variant="grad_diff"),
}
# methods whose H must never decrease (the balance equation's monotonicity)
UNIVERSAL = {"ugm", "usgm", "usfgm", "usfgm-deterministic"}
# usfgm:deterministic evaluates F(y) and F(x_next) for its step rule; every
# other value-only evaluation is monitoring that the algorithm never uses
ALGORITHMIC_VALUE = {"usfgm-deterministic"}
# suffixes of the per-solver metrics, over all workloads
SOLVER_KEYS = ("ugm", "usfgm-deterministic", "usfgm", "sgd", "adagrad-grad_diff",
               "usgm-gaussian", "usgm-minibatch", "adagrad-grad_diff-gaussian")
# slack on the certificate soundness check phi* <= F*
CERT_TOL = 1e-12


@dataclass
class Instance:
    name: str
    obj: object
    m: int
    n: int
    fstar: float  # 0.0 where known by construction, else None


@dataclass
class LibSolve:
    key: str                  # per-solver metric name suffix
    solver: str               # key into SOLVERS
    inst: Instance
    oracle: OracleConfig
    max_iters: int
    trace_every: int
    target: tuple = None      # ("gap" | "F", eps) for target solves
    x0: np.ndarray = None     # start point; None = the ball's centre
    tag: str = ""             # tells apart solves that differ only in x0

    @property
    def ident(self):
        t = "" if self.target is None else f":target{self.target[1]:g}"
        return f"{self.key}@{self.inst.name}:seed{self.oracle.seed}{self.tag}{t}"

    def run(self, callbacks=()):
        return SOLVERS[self.solver](
            self.inst.obj, oracle=self.oracle, max_iters=self.max_iters,
            trace_every=self.trace_every, callbacks=callbacks, x0=self.x0)


@dataclass
class CliRun:
    key: str
    solver: str
    oracle: str
    seeds: tuple
    iters: int
    out: str

    @property
    def universal(self):
        return self.solver in UNIVERSAL

    def argv(self, data_path):
        return ["run", "--problem", "ls", "--data", data_path,
                "--solver", self.solver, "--oracle", self.oracle,
                "--seeds", ",".join(str(s) for s in self.seeds),
                "--iters", str(self.iters), "--jobs", "1", "--out", self.out]

    def trace_path(self, seed):
        tag = self.solver.replace(":", "-").replace(".", "p")
        return os.path.join(self.out, f"trace_{tag}_{seed}.csv")


@dataclass
class Plan:
    instances: list
    fixed: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    cli_runs: list = field(default_factory=list)
    data_path: str = None
    target_passes: int = 3    # runs of each target solve


def _ls(ds, name):
    return Instance(name, least_squares_f(ds.features, ds.labels), ds.m, ds.n, 0.0)


def fixed_spectrum(m, n, seed, s_max, s_min):
    """A = U diag(s) V^T with s geometric from s_max to s_min; b = A x*.

    U and V are random orthonormal, x* a random unit vector, so F* = 0 on
    the unit ball.  The seed changes the instance but not its conditioning,
    which keeps iterations to target comparable from seed to seed.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (U * np.geomspace(s_max, s_min, n)) @ V.T
    x_star = rng.standard_normal(n)
    x_star /= np.linalg.norm(x_star)
    return dataio.Dataset(features=A, labels=A @ x_star, source=f"spectrum:{m}x{n}:{seed}")


def build_small_overhead(seed, workdir):
    """6x3 least squares and 12x4 p-power (p = 1.5), 96 instances each."""
    instances = []
    for i in range(96):
        instances.append(_ls(fixed_spectrum(6, 3, seed * 1000 + i, 2.0, 0.5), f"ls6x3#{i}"))
        ds = fixed_spectrum(12, 4, seed * 1000 + 500 + i, 2.0, 0.5)
        instances.append(Instance(f"pp1.5-12x4#{i}",
                                  p_power_f(ds.features, ds.labels, 1.5), 12, 4, 0.0))
    exact = OracleConfig(kind="exact")
    solvers = ("ugm", "usfgm-deterministic", "usfgm", "sgd", "adagrad-grad_diff")
    # The certificate bounds F(best) - F* from above, so it gets a looser
    # eps.  Each target is met in ~10-600 iterations; the many instances
    # make the median and tail over them repeat from seed to seed.
    targets = [LibSolve(s, s, inst, exact, 20_000, 1,
                        ("gap", 3e-2) if s == "ugm" else ("F", 1e-3))
               for inst in instances for s in solvers]
    # per-iteration cost differs a little between instances, so the
    # fixed-budget solves are spread over twenty of them
    fixed = [LibSolve(s, s, inst, exact, 200, 200)
             for inst in instances[:20] for s in solvers]
    return Plan(instances, fixed, targets)


def build_large_matvec(seed, workdir):
    """2000x500 least squares and logistic on the same 8 MB matrix A."""
    ds, x_star = dataio.synth_least_squares(2000, 500, seed)
    # Centre and scale the Uniform[0, 1] entries to mean 0, variance 1/m.
    # Uncentred, the all-ones direction makes L ~ 2.5e5, and the certificate
    # after the first step is then on some seeds smaller than for hundreds
    # of steps after, so UGM's time to target would be set by the seed.
    A = (ds.features - 0.5) * np.sqrt(12.0 / ds.m)
    b = A @ x_star          # ||x_star|| = 1, so F* = 0 on the unit ball
    ls = Instance("ls2000x500", least_squares_f(A, b), ds.m, ds.n, 0.0)
    labels = np.where(b >= np.median(b), 1.0, -1.0)
    logit = Instance("logistic2000x500", logistic_f(A, labels), ds.m, ds.n, None)
    exact = OracleConfig(kind="exact")
    solvers = ("ugm", "usfgm-deterministic", "usfgm")
    fixed = [LibSolve(s, s, inst, exact, 30, 30)
             for inst in (ls, logit) for s in solvers]
    # F* of the logistic instance is unknown, so only least squares has
    # targets; each is met in ~85-130 iterations.  Fourteen start points
    # (radius 0.5, random directions) give distinct target solves.
    eps = {"ugm": ("gap", 0.03), "usfgm-deterministic": ("F", 1e-5),
           "usfgm": ("F", 1e-6)}
    rng = np.random.Generator(np.random.Philox(seed))
    starts = rng.standard_normal((14, ds.n))
    starts *= 0.5 / np.linalg.norm(starts, axis=1, keepdims=True)
    targets = [LibSolve(s, s, ls, exact, 5000, 1, eps[s], x0, f":x0#{i}")
               for i, x0 in enumerate(starts) for s in solvers]
    return Plan([ls, logit], fixed, targets, target_passes=1)


CLI_CONFIGS = (
    ("usgm-gaussian", "usgm", "gaussian:1.0"),
    ("usgm-minibatch", "usgm", "minibatch:8"),
    ("adagrad-grad_diff-gaussian", "adagrad:grad_diff", "gaussian:1.0"),
)


def _oracle_config(spec, seed):
    kind, _, arg = spec.partition(":")
    if kind == "gaussian":
        return OracleConfig(kind=kind, sigma=float(arg), seed=seed)
    return OracleConfig(kind=kind, batch_size=int(arg), seed=seed)


def build_stochastic_cli(seed, workdir):
    """100x50 least squares written as LIBSVM, solved by the CLI and the library."""
    path = os.path.join(workdir, "ls100x50.libsvm")
    with open(path, "w") as fh:
        fh.write(dataio.serialize_libsvm(fixed_spectrum(100, 50, seed, 2.0, 2.0)))
    with open(path) as fh:
        inst = _ls(dataio.parse_libsvm(fh, source=path), "ls100x50")
    cli_runs, targets = [], []
    for key, solver, oracle in CLI_CONFIGS:
        cli_runs.append(CliRun(key, solver, oracle,
                               tuple(seed * 100 + j for j in range(8)), 250,
                               os.path.join(workdir, key)))
        # ~100-450 iterations each
        targets += [LibSolve(key, solver.replace(":", "-"), inst,
                             _oracle_config(oracle, seed * 100 + 50 + j),
                             20_000, 1, ("F", 2e-3))
                    for j in range(40)]
    return Plan([inst], [], targets, cli_runs, path)


WORKLOADS = {
    "small-overhead": build_small_overhead,
    "large-matvec": build_large_matvec,
    "stochastic-cli": build_stochastic_cli,
}


# ---------------------------------------------------------------------------
# running one solve and checking it

class TargetMet(Exception):
    """Raised from a callback to stop a target solve; private to the benchmark."""


class TargetCallback:
    """Keeps every record and stops the solve once the target is met."""

    def __init__(self, kind, eps):
        self.field = "certificate_gap" if kind == "gap" else "F_value"
        self.eps = eps
        self.records = []

    def __call__(self, rec):
        self.records.append(rec)
        if getattr(rec, self.field) <= self.eps:
            raise TargetMet


@dataclass
class Outcome:
    ident: str
    key: str
    iters: int                 # iterations made, as the last trace record numbers them
    records: int               # trace records emitted
    seconds: float
    final: tuple               # (F, H) as float.hex strings, for bitwise compares
    reason: str = None         # why the solve failed, None if it passed
    reported_calls: int = 0


def _outcome(solve, records, seconds):
    last = records[-1] if records else None
    return Outcome(solve.ident, solve.key, last.k if last else 0, len(records), seconds,
                   _final(last) if last else None,
                   reported_calls=last.cum_oracle_calls if last else 0)


def _final(rec):
    return (float(rec.F_value).hex(), float(rec.H).hex())


def check_records(solve, records):
    """Failure reason for a solve's trace records, or None."""
    if not records:
        return "no trace records"
    H = np.array([r.H for r in records])
    if not np.all(np.isfinite(H)):
        return "non-finite H"
    if not math.isfinite(records[-1].F_value):
        return "non-finite final F"
    if solve.solver in UNIVERSAL and np.any(np.diff(H) < 0):
        return "H decreased"
    if solve.solver == "ugm":
        inst = solve.inst
        x0 = inst.obj.domain.center if solve.x0 is None else solve.x0
        best = np.minimum.accumulate(
            np.concatenate(([inst.obj.value(x0)], [r.F_value for r in records])))[1:]
        gaps = np.array([r.certificate_gap for r in records])
        has_gap = ~np.isnan(gaps)
        # phi* = best_F - gap must not exceed F*; where F* is unknown only
        # phi* <= F* <= best_F can be checked
        fstar = inst.fstar if inst.fstar is not None else best[has_gap]
        if np.any(best[has_gap] - gaps[has_gap] > fstar + CERT_TOL):
            return "certificate unsound"
    return None


def check_point(solve, x):
    obj = solve.inst.obj
    if not np.all(np.isfinite(x)):
        return "non-finite point"
    if not obj.domain.contains(x, obj.metric, rtol=ANCHOR_FEAS_TOL):
        return "point outside the ball"
    return None


def run_solve(solve, perf_counter, callbacks=(), around=nullcontext):
    """Run one solve, until its target is met if it has one.

    ``around()`` encloses only the solver call.
    """
    cb = None if solve.target is None else TargetCallback(*solve.target)
    callbacks = callbacks if cb is None else (*callbacks, cb)
    x, met = None, False
    t0 = perf_counter()
    try:
        with around():
            x, records = solve.run(callbacks)
    except TargetMet:
        met, records = True, cb.records
    except Exception as exc:  # a failed solve is counted, not fatal
        return Outcome(solve.ident, solve.key, 0, len(cb.records) if cb else 0,
                       perf_counter() - t0, None, f"raised {exc!r}")
    out = _outcome(solve, records, perf_counter() - t0)
    out.reason = ((x is not None and check_point(solve, x))
                  or check_records(solve, records)
                  or (None if cb is None or met
                      else f"target not met in {solve.max_iters} iterations"))
    return out


def run_cli(run, data_path, perf_counter):
    """One ``ugbench run`` invocation; returns (return code, wall seconds)."""
    t0 = perf_counter()
    rc = cli.main(run.argv(data_path))
    return rc, perf_counter() - t0


def check_cli(run, rc):
    """One Outcome per seed, read back from the trace CSVs the CLI wrote."""
    outs = []
    for seed in run.seeds:
        ident = f"cli:{run.key}:seed{seed}"
        if rc != 0:
            outs.append(Outcome(ident, run.key, 0, 0, 0.0, None, f"exit code {rc}"))
            continue
        with open(run.trace_path(seed)) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        F = np.array([float(r[1]) for r in rows])
        H = np.array([float(r[2]) for r in rows])
        reason = None
        if len(rows) != run.iters:
            reason = f"{len(rows)} trace rows for {run.iters} iterations"
        elif not (np.all(np.isfinite(F)) and np.all(np.isfinite(H))):
            reason = "non-finite F or H"
        elif run.universal and np.any(np.diff(H) < 0):
            reason = "H decreased"
        last = rows[-1] if rows else None
        outs.append(Outcome(
            ident, run.key, int(last[0]) if last else 0, len(rows), 0.0,
            (float(last[1]).hex(), float(last[2]).hex()) if last else None,
            reason, reported_calls=int(last[6]) if last else 0))
    return outs
