"""`ugbench` command-line benchmark harness.

Subcommands: run (single solve per seed, CSV traces + summary), sweep
(grid of sgd step sizes or of diameters, best grid point marked), compare
(several solvers on a shared problem, wide CSV of objective values).

All outputs are pure functions of (config, seeds); wall-time columns are
informational only.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dataio, solvers
from .metric import MetricSpace
from .oracles import Oracle, OracleConfig
from .problems import BallDomain, least_squares_f, logistic_f, p_power_f

EXIT_BAD_CONFIG = 2
EXIT_DATA_ERROR = 3

TRACE_HEADER = "k,F,H,r,beta,cert_gap,oracle_calls,wall_time_s"

DEFAULT_STEP_GRID = (10.0, 1.0, 0.1, 0.01, 0.001, 0.0001)
DEFAULT_DIAMETER_GRID = (50.0, 35.0, 20.0, 10.0, 5.0)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: str = "ls"              # ls | logistic | ppower:P
    data: str = "synthetic:100:50:0" # synthetic:M:N[:SEED] | libsvm path
    radius: float = 1.0
    solver: str = "ugm"              # see parse_solver
    oracle: str = "exact"            # exact | gaussian:SIGMA | minibatch:B
    D: float = None                  # default 2 * radius
    max_iters: int = 1000
    trace_every: int = 1
    out: str = "."
    seeds: tuple = (0,)
    jobs: int = 1                    # accepted; every solve runs in one thread
    b_diag: tuple = None             # default identity metric

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ConfigError(
                f"radius must be positive and finite, got {self.radius}")
        self.D = _check_diameter(2.0 * self.radius if self.D is None else self.D)
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        # two equal seeds would give two identical solves one trace file
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        if self.max_iters < 0 or self.trace_every < 1:
            raise ConfigError("bad iteration counts")


def _check_diameter(D):
    # D*D is the balance equation's Omega: it must neither underflow to
    # 0 nor be infinite, which would keep H at 0 (a Frank-Wolfe method)
    if not (D > 0 and 0.0 < D * D < math.inf):
        raise ConfigError(f"D must be positive with 0 < D*D < inf, got {D}")
    return D


def _fmt(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.17g}"


def parse_config_file(path):
    """Flat `key = value` config file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            values[key.strip()] = value.strip()
    return values


def load_dataset(cfg):
    spec = cfg.data
    if spec.startswith("synthetic:"):
        parts = spec.split(":")[1:]
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad synthetic data spec {spec!r}")
        m, n = int(parts[0]), int(parts[1])
        data_seed = int(parts[2]) if len(parts) == 3 else 0
        if cfg.problem.startswith("ppower"):
            ds, _ = dataio.synth_p_power(m, n, _ppower_exponent(cfg), data_seed)
        else:
            ds, _ = dataio.synth_least_squares(m, n, data_seed)
        if cfg.problem == "logistic":
            ds = dataio.Dataset(
                features=ds.features,
                labels=np.where(ds.labels >= np.median(ds.labels), 1.0, -1.0),
                source=ds.source,
            )
        return ds
    with open(spec) as fh:
        return dataio.parse_libsvm(
            fh, classification=(cfg.problem == "logistic"), source=spec
        )


def _ppower_exponent(cfg):
    _, sep, p = cfg.problem.partition(":")
    if not sep:
        raise ConfigError("ppower problem needs an exponent, e.g. ppower:1.5")
    return float(p)


def make_problem(cfg, dataset):
    n = dataset.n
    metric = (MetricSpace(n, np.asarray(cfg.b_diag)) if cfg.b_diag
              else MetricSpace.euclidean(n))
    domain = BallDomain(np.zeros(n), cfg.radius)
    if cfg.problem == "ls":
        return least_squares_f(dataset.features, dataset.labels, domain, metric)
    if cfg.problem == "logistic":
        return logistic_f(dataset.features, dataset.labels, domain, metric)
    if cfg.problem.startswith("ppower"):
        return p_power_f(dataset.features, dataset.labels,
                         _ppower_exponent(cfg), domain, metric)
    raise ConfigError(f"unknown problem {cfg.problem!r}")


ORACLE_GRAMMAR = ("exact, gaussian:SIGMA with finite SIGMA >= 0 or "
                  "minibatch:B with integer B >= 1")


def make_oracle_config(spec, seed):
    """The one reader of oracle specs; anything outside ORACLE_GRAMMAR
    raises ConfigError."""
    name, *args = spec.split(":")
    if name == "exact" and not args:
        return OracleConfig(kind="exact", seed=seed)
    if len(args) == 1:
        try:
            if name == "gaussian" and 0.0 <= float(args[0]) < math.inf:
                return OracleConfig(kind="gaussian", sigma=float(args[0]),
                                    seed=seed)
            if name == "minibatch" and int(args[0]) >= 1:
                return OracleConfig(kind="minibatch", batch_size=int(args[0]),
                                    seed=seed)
        except ValueError:
            pass
    raise ConfigError(f"bad oracle {spec!r}; expected {ORACLE_GRAMMAR}")


class Solve(NamedTuple):
    """A parsed solver spec: calls solvers.<entry>(obj, **kwargs, ...)."""
    entry: str
    kwargs: dict

    @property
    def needs_exact_oracle(self):
        return (self.entry == "run_ugm"
                or self.kwargs.get("surrogate_mode") == "deterministic_bregman")

    def __call__(self, obj, oracle, max_iters, trace_every):
        # looked up per call, so that a wrapper patched onto solvers is used
        return getattr(solvers, self.entry)(
            obj, oracle=oracle, max_iters=max_iters, trace_every=trace_every,
            **self.kwargs)


SOLVER_GRAMMAR = ("ugm, usgm, usfgm[:deterministic], adagrad[:grad_diff|grad_norm]"
                  " or sgd[:STEP[:constant|decaying]] with finite STEP >= 0")


def _sgd_step(value):
    try:
        step = float(value)
    except ValueError:
        step = math.nan
    if not 0.0 <= step < math.inf:
        raise ConfigError(f"sgd step must be a finite number >= 0, got {value!r}")
    return step


def parse_solver(spec, D):
    """The one reader of solver specs: spec -> solve(obj, oracle, max_iters,
    trace_every) with diameter D.  Anything outside SOLVER_GRAMMAR raises
    ConfigError."""
    D = _check_diameter(D)
    name, *args = spec.split(":")
    if name in ("ugm", "usgm") and not args:
        return Solve("run_" + name, {"D": D})
    if name == "usfgm" and args in ([], ["deterministic"]):
        mode = "deterministic_bregman" if args else "stochastic_symmetrized"
        return Solve("run_usfgm", {"D": D, "surrogate_mode": mode})
    if name == "adagrad" and args in ([], ["grad_diff"], ["grad_norm"]):
        return Solve("run_adagrad_norm",
                     {"D": D, "gamma_variant": (args or ["grad_diff"])[0]})
    if name == "sgd" and len(args) <= 2:
        step = _sgd_step(args[0]) if args else 1.0
        rule = args[1] if len(args) == 2 else "decaying"
        if rule in ("constant", "decaying"):
            return Solve("run_projected_subgrad", {"step_rule": (rule, step)})
    raise ConfigError(f"bad solver {spec!r}; expected {SOLVER_GRAMMAR}")


def run_solver(cfg, obj, seed, solver=None):
    """Execute one solver run; returns (result_x, trace)."""
    solve = parse_solver(solver if solver is not None else cfg.solver, cfg.D)
    return solve(obj, Oracle(obj, make_oracle_config(cfg.oracle, seed)),
                 cfg.max_iters, cfg.trace_every)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


# one trace record; a nan prints as "nan", which _fmt writes as ""
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n"


def write_trace(path, trace):
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.write("".join([_TRACE_ROW % rec for rec in trace]).replace("nan", ""))


def _solver_tag(spec):
    return spec.replace(":", "-").replace(".", "p")


def _prepare(cfg, parse):
    """The front of every command, in this order: build the problem, parse
    every solve (parse() lists (label, solve) pairs), build one oracle per
    solve and seed, and only then create cfg.out, so that a bad spec leaves
    no output.  Returns obj and one (label, solve, oracles) per solve."""
    obj = make_problem(cfg, load_dataset(cfg))
    jobs = [(label, solve, [Oracle(obj, make_oracle_config(cfg.oracle, seed))
                            for seed in cfg.seeds])
            for label, solve in parse()]
    for label, solve, oracles in jobs:
        if solve.needs_exact_oracle and not oracles[0].is_exact:
            spec = label if isinstance(label, str) else cfg.solver
            raise ConfigError(
                f"solver {spec!r} needs an exact oracle, got {cfg.oracle!r}")
    os.makedirs(cfg.out, exist_ok=True)
    return obj, jobs


_LANE_ENTRIES = ("run_usgm", "run_adagrad_norm")


def _map_jobs(cfg, obj, solve, oracles, reduce=lambda trace: trace,
              grads=None):
    """reduce(trace) of solve on each seed's oracle; grads, if a list,
    receives the gradients the first seed's oracle draws.

    Several seeds of usgm and adagrad run as the lanes of one pass
    (solvers._run_lanes), which needs what _prepare builds: oracles of one
    spec on a built-in objective.  Other solves run seed by seed, all in
    the calling thread: threads hold the interpreter lock between numpy
    calls and, at large n, compete for BLAS.
    """
    if solve.entry in _LANE_ENTRIES and len(oracles) > 1:
        return [reduce(trace) for _, trace in solvers._run_lanes(
            obj, oracles, cfg.max_iters, cfg.trace_every, grads=grads,
            **solve.kwargs)]
    if grads is not None:
        _record(oracles[0], grads)
    return [reduce(solve(obj, oracle, cfg.max_iters, cfg.trace_every)[1])
            for oracle in oracles]


def cmd_run(cfg):
    obj, [(_, solve, oracles)] = _prepare(
        cfg, lambda: [(None, parse_solver(cfg.solver, cfg.D))])
    summary = []
    for seed, trace in zip(cfg.seeds, _map_jobs(cfg, obj, solve, oracles)):
        write_trace(os.path.join(
            cfg.out, f"trace_{_solver_tag(cfg.solver)}_{seed}.csv"), trace)
        last = trace[-1] if trace else None
        summary.append([cfg.solver, str(seed)] + ([
            _fmt(last.F_value), _fmt(last.certificate_gap), str(last.k),
            str(last.cum_oracle_calls), _fmt(last.wall_time_s),
        ] if last else ["", "", "0", "0", "0"]))
    _write_csv(os.path.join(cfg.out, "summary.csv"), "solver,seed,final_F,"
               "final_gap_or_cert,iters,oracle_calls,wall_time_s", summary)
    return 0


def cmd_sweep(cfg, steps=DEFAULT_STEP_GRID, diameters=DEFAULT_DIAMETER_GRID):
    if not steps or not diameters:
        raise ConfigError("sweep grid must be nonempty")

    def grid():
        # sgd sweeps its step size under its own rule; the others sweep D
        solve = parse_solver(cfg.solver, cfg.D)
        if "step_rule" not in solve.kwargs:
            return [(("D", d), parse_solver(cfg.solver, d)) for d in diameters]
        rule = solve.kwargs["step_rule"][0]
        return [(("step", s), solve._replace(
            kwargs={"step_rule": (rule, _sgd_step(s))})) for s in steps]

    obj, jobs = _prepare(cfg, grid)
    rows = [(param, value, float(np.mean(_map_jobs(
                cfg, obj, solve, oracles,
                lambda trace: trace[-1].F_value if trace else math.nan))))
            for (param, value), solve, oracles in jobs]
    # ties break toward the smaller parameter value, then the earlier row
    best = min(range(len(rows)), key=lambda i: (rows[i][2], rows[i][1]))
    _write_csv(os.path.join(cfg.out, "sweep.csv"),
               "solver,param,value,mean_final_F,best",
               ([cfg.solver, param, _fmt(value), _fmt(F), str(int(i == best))]
                for i, (param, value, F) in enumerate(rows)))
    return 0


def _record(oracle, grads):
    """Make oracle append every gradient it draws to grads."""
    draw = oracle.draw

    def recording_draw(x):
        sample = draw(x)
        grads.append(sample.g)
        return sample
    oracle.draw = recording_draw


def cmd_compare(cfg, solver_specs):
    if len(solver_specs) < 2:
        raise ConfigError("compare needs at least two solvers")
    obj, jobs = _prepare(cfg, lambda: [(spec, parse_solver(spec, cfg.D))
                                       for spec in solver_specs])
    solves = [solve for _, solve, _ in jobs]
    usgm, grads, recorded = parse_solver("usgm", cfg.D), None, None
    if usgm in solves and parse_solver("adagrad", cfg.D) in solves:
        grads, recorded = [], solves.index(usgm)
    traces = [_map_jobs(cfg, obj, solve, oracles, lambda trace: (
                  [rec.F_value for rec in trace], [rec.H for rec in trace]),
                  grads if i == recorded else None)
              for i, (_, solve, oracles) in enumerate(jobs)]
    columns = []
    for per_seed in traces:
        # the mean over seeds, taken where some seed has a value: nanmean
        # warns on a column of nan
        F = np.asarray([F for F, _ in per_seed])
        valued = ~np.isnan(F).all(axis=0)
        columns.append(np.full(F.shape[1], math.nan))
        columns[-1][valued] = np.nanmean(F[:, valued], axis=0)
    header = ["k"] + [f"F_{_solver_tag(spec)}" for spec, _, _ in jobs]
    if grads is not None:
        # AdaGrad's coefficient on the gradients USGM drew on the first seed
        coefficient = solvers._adagrad_coefficient(
            obj.metric.b_diag, cfg.D, "grad_diff")
        h_prime = [coefficient(g, g_next) for g, g_next in zip(grads, grads[1:])]
        H = traces[recorded][0][1]
        columns.append(np.asarray(h_prime) - np.asarray(H))
        header.append("adagrad_domination")
    _write_csv(os.path.join(cfg.out, "compare.csv"), ",".join(header),
               ([str(i + 1)] + [_fmt(c[i]) for c in columns]
                for i in range(min(len(c) for c in columns))))
    return 0


def _build_config(args):
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    # argparse has typed the numeric flags; config-file values are cast below
    for key in ("problem", "data", "solver", "oracle", "out", "radius", "D",
                "iters", "trace_every", "jobs", "seeds"):
        v = getattr(args, key, None)
        if v is not None:
            values["max_iters" if key == "iters" else key] = v
    if isinstance(values.get("seeds"), str):
        values["seeds"] = tuple(int(s) for s in values["seeds"].split(","))
    for key, cast in (("radius", float), ("D", float), ("max_iters", int),
                      ("trace_every", int), ("jobs", int)):
        if key in values and isinstance(values[key], str):
            values[key] = cast(values[key])
    if isinstance(values.get("b_diag"), str):
        # positivity and length are checked by MetricSpace in make_problem
        try:
            values["b_diag"] = tuple(float(s) for s in values["b_diag"].split(","))
        except ValueError:
            raise ConfigError(
                f"b_diag must be comma-separated numbers, got {values['b_diag']!r}"
            ) from None
    allowed = set(RunConfig.__dataclass_fields__)
    unknown = set(values) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**values)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ugbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--problem")
        p.add_argument("--data")
        p.add_argument("--solver")
        p.add_argument("--oracle")
        p.add_argument("--D", type=float, dest="D")
        p.add_argument("--radius", type=float)
        p.add_argument("--iters", type=int)
        p.add_argument("--trace-every", type=int, dest="trace_every")
        p.add_argument("--seeds")
        p.add_argument("--jobs", type=int)
        p.add_argument("--out")
        if name == "sweep":
            p.add_argument("--steps")
            p.add_argument("--diameters")
        if name == "compare":
            p.add_argument("--solvers")
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            steps = (tuple(float(s) for s in args.steps.split(","))
                     if args.steps else DEFAULT_STEP_GRID)
            diameters = (tuple(float(s) for s in args.diameters.split(","))
                         if args.diameters else DEFAULT_DIAMETER_GRID)
            return cmd_sweep(cfg, steps=steps, diameters=diameters)
        solver_specs = (args.solvers.split(",") if args.solvers
                        else ([cfg.solver] if cfg.solver else []))
        return cmd_compare(cfg, solver_specs)
    except dataio.LibsvmParseError as exc:
        print(f"ugbench: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (ConfigError, ValueError) as exc:
        print(f"ugbench: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"ugbench: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
