"""`ugbench` command-line benchmark harness.

Subcommands: run (single solve per seed, CSV traces + summary), sweep
(grid of sgd step sizes or of diameters, best grid point marked), compare
(several solvers on a shared problem, wide CSV of objective values).

Each command solves first and returns its outputs; main writes them
(_publish): on any failure, what the call created is removed and what it
overwrote has its old bytes back.  All outputs are pure functions of
(config, seeds); wall-time columns are informational only.
"""

import argparse
import errno
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

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


def _split(read):
    return lambda text: tuple(read(item.strip()) for item in text.split(","))


_floats = _split(float)


def _option(flag, default, read=str, commands=("run", "sweep", "compare")):
    """A RunConfig field; flag (None: file only) sets it on commands, via read."""
    return field(default=default, metadata={"option": (flag, commands, read)})


@dataclass
class RunConfig:
    """The whole invocation; each field is a config-file key (flags in order)."""
    problem: str = _option("--problem", "ls")       # ls | logistic | ppower:P
    data: str = _option("--data", "synthetic:100:50:0")  # or a LIBSVM path
    solver: str = _option("--solver", "ugm")         # see parse_solver
    oracle: str = _option("--oracle", "exact")  # exact | gaussian:SIGMA | minibatch:B
    D: float = _option("--D", None, float)           # default 2 * radius
    radius: float = _option("--radius", 1.0, float)
    max_iters: int = _option("--iters", 1000, int)
    trace_every: int = _option("--trace-every", 1, int)
    seeds: tuple = _option("--seeds", (0,), _split(int))
    jobs: int = _option("--jobs", 1, int)  # accepted; every solve runs in one thread
    out: str = _option("--out", ".")
    steps: tuple = _option("--steps", DEFAULT_STEP_GRID, _floats, ("sweep",))
    diameters: tuple = _option("--diameters", DEFAULT_DIAMETER_GRID, _floats,
                               ("sweep",))
    # compare's solver specs
    solvers: tuple = _option("--solvers", (), _split(str), ("compare",))
    # default identity metric; MetricSpace checks its values in make_problem
    b_diag: tuple = _option(None, None, _floats, ())

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ConfigError(
                f"radius must be positive and finite, got {self.radius}")
        try:
            self.D = solvers.check_diameter(
                2.0 * self.radius if self.D is None else self.D)
        except ValueError as exc:
            if self.D is not None:
                raise
            raise ConfigError(f"--radius {self.radius!r}: derived {exc}") from None
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonempty and >= 0, got {self.seeds}")
        # two equal seeds would give two identical solves one trace file
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        solvers.check_iterations(self.max_iters, self.trace_every)


OPTIONS = {f.name: f.metadata["option"] for f in fields(RunConfig)}


def parse_config_file(path):
    """Flat `key = value` UTF-8 config file; '#' starts a comment.

    A file that cannot be read, a line without '=' (such as one of bytes
    that are not UTF-8) and a key given twice are configuration errors."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"--config {path}: {exc.strerror or exc}") from None
    values, first_line = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice, "
                              f"first on line {first_line[key]}")
        values[key], first_line[key] = value.strip(), lineno
    return values


def load_dataset(cfg):
    spec = cfg.data
    if spec.startswith("synthetic:"):
        parts = spec.split(":")[1:]
        try:  # unpacking raises ValueError too, unless there are 2 or 3 parts
            m, n, data_seed = map(int, parts if len(parts) == 3 else parts + ["0"])
            if min(m, n) < 1 or data_seed < 0:
                raise ValueError
        except ValueError:
            raise ConfigError(f"bad synthetic data spec {spec!r}; expected "
                              "synthetic:M:N[:SEED]") from None
        try:  # numpy's "too big" is a ValueError
            ds, _ = dataio.synth_least_squares(m, n, data_seed)
        except (MemoryError, ValueError):
            raise ConfigError(f"cannot allocate the data of synthetic data "
                              f"spec {spec!r}") from None
        if cfg.problem == "logistic":
            ds = replace(ds, labels=np.where(
                ds.labels >= np.median(ds.labels), 1.0, -1.0))
        return ds
    # an undecodable byte reads as U+FFFD, a bad token at its line and column
    with open(spec, encoding="utf-8", errors="replace") as fh:
        return dataio.parse_libsvm(
            fh, classification=(cfg.problem == "logistic"), source=spec
        )


PROBLEM_GRAMMAR = "ls, logistic or ppower:P with 1 <= P <= 2"


def parse_problem(spec):
    """The one reader of problem specs: spec -> build(A, b, domain, metric).
    Anything outside PROBLEM_GRAMMAR raises ConfigError."""
    if spec in ("ls", "logistic"):
        return least_squares_f if spec == "ls" else logistic_f
    name, *args = spec.split(":")
    try:
        p = float(args[0]) if name == "ppower" and len(args) == 1 else math.nan
    except ValueError:
        p = math.nan
    if not 1.0 <= p <= 2.0:
        raise ConfigError(f"bad problem {spec!r}; expected {PROBLEM_GRAMMAR}")
    return lambda A, b, domain, metric: p_power_f(A, b, p, domain, metric)


def make_problem(cfg, dataset):
    build, n = parse_problem(cfg.problem), dataset.n
    metric = (MetricSpace(n, np.asarray(cfg.b_diag)) if cfg.b_diag
              else MetricSpace.euclidean(n))
    return build(dataset.features, dataset.labels,
                 BallDomain(np.zeros(n), cfg.radius), metric)


ORACLE_GRAMMAR = ("exact, gaussian:SIGMA with finite SIGMA >= 0 or "
                  "minibatch:B with integer B >= 1")


def make_oracle_config(spec, seed):
    """The one reader of oracle specs; anything outside ORACLE_GRAMMAR,
    such as a value OracleConfig rejects, raises ConfigError."""
    name, *args = spec.split(":")
    try:
        if name == "exact" and not args:
            return OracleConfig(kind="exact", seed=seed)
        if name == "gaussian" and len(args) == 1:
            return OracleConfig(kind="gaussian", sigma=float(args[0]), seed=seed)
        if name == "minibatch" and len(args) == 1:
            return OracleConfig(kind="minibatch", batch_size=int(args[0]),
                                seed=seed)
    except ValueError:
        pass
    raise ConfigError(f"bad oracle {spec!r}; expected {ORACLE_GRAMMAR}")


SOLVER_GRAMMAR = ("ugm, usgm, usfgm[:deterministic], adagrad[:grad_diff|grad_norm]"
                  " or sgd[:STEP[:constant|decaying]] with finite STEP >= 0")


def _sgd_step(value):
    try:
        return solvers.check_step(float(value))
    except ValueError:
        raise ConfigError(
            f"sgd step must be a finite number >= 0, got {value!r}") from None


def parse_solver(spec, D):
    """The one reader of solver specs: spec -> the solve, a solvers.run_*
    with the spec's arguments (diameter D among them) bound, which
    solvers._run_seeds calls per seed.  The run_* is read from solvers
    here, when the spec is parsed, so a wrapper patched onto it before
    main is the one that solves.  Anything outside SOLVER_GRAMMAR raises
    ConfigError."""
    D = solvers.check_diameter(D)
    name, *args = spec.split(":")
    if name in ("ugm", "usgm") and not args:
        return partial(solvers.run_ugm if name == "ugm" else solvers.run_usgm, D=D)
    if name == "usfgm" and args in ([], ["deterministic"]):
        mode = "deterministic_bregman" if args else "stochastic_symmetrized"
        return partial(solvers.run_usfgm, D=D, surrogate_mode=mode)
    if name == "adagrad" and args in ([], ["grad_diff"], ["grad_norm"]):
        return partial(solvers.run_adagrad_norm, D=D,
                       gamma_variant=(args or ["grad_diff"])[0])
    if name == "sgd" and len(args) <= 2:
        step = _sgd_step(args[0]) if args else 1.0
        rule = args[1] if len(args) == 2 else "decaying"
        if rule in ("constant", "decaying"):
            return partial(solvers.run_projected_subgrad, step_rule=(rule, step))
    raise ConfigError(f"bad solver {spec!r}; expected {SOLVER_GRAMMAR}")


def _write_csv(header, row, rows, path):
    """header, then row % r per tuple r; a nan prints as an empty field, as
    no row starts with one and no text field holds "," or starts "nan"."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join([row % r for r in rows]).replace(",nan", ","))


def write_trace(path, trace):
    _write_csv(TRACE_HEADER, "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n", trace, path)


def _missing(out):
    """The directories os.makedirs(out) would create, deepest first, or its
    error as a ConfigError if the nearest existing path is no directory."""
    missing, path = [], out.rstrip(os.sep) or out
    while path and not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    if not out or path and not os.path.isdir(path):
        code = (errno.EEXIST if out and not missing else
                errno.ENOTDIR if os.path.exists(path) else errno.ENOENT)
        raise ConfigError(f"--out {out}: {os.strerror(code)}")
    return missing


def _publish(out, outputs):
    """Create out, then write each (name, write) output by write(out/name).
    On any exception, remove the files and then the directories, deepest
    first, that this call created, and write the old bytes back to each file
    that it overwrote; an OSError is a ConfigError naming its path."""
    steps = [(out, partial(os.makedirs, exist_ok=True))] + [
        (os.path.join(out, name), write) for name, write in outputs]
    created = [p for p, _ in steps[1:] if not os.path.lexists(p)] + _missing(out)
    # the bytes of each regular file that an output overwrites
    old = {p: Path(p).read_bytes() for p, _ in steps[1:]
           if os.path.isfile(p) and os.access(p, os.R_OK)}
    try:
        for path, step in steps:
            step(path)
    except BaseException as exc:
        for made in filter(os.path.lexists, created):
            (os.rmdir if os.path.isdir(made) else os.remove)(made)
        for kept, data in old.items():
            if Path(kept).read_bytes() != data:  # equal if its write could not open it
                Path(kept).write_bytes(data)
        if isinstance(exc, OSError):
            raise ConfigError(f"--out {path}: {exc.strerror or exc}") from None
        raise


def _solver_tag(spec):
    return spec.replace(":", "-").replace(".", "p")


def _prepare(cfg, specs):
    """The front of every command, given one solver spec per solve (each
    parsed by parse_solver): check the problem spec, each seed's oracle
    spec, each solver's need of an exact oracle and --out before any data
    is read, then load the data; returns the problem and, per spec, one
    oracle per seed."""
    parse_problem(cfg.problem)
    configs = [make_oracle_config(cfg.oracle, seed) for seed in cfg.seeds]
    for spec in specs:
        if spec in ("ugm", "usfgm:deterministic") and not configs[0].is_exact:
            raise ConfigError(
                f"solver {spec!r} needs an exact oracle, got {cfg.oracle!r}")
    _missing(cfg.out)
    obj = make_problem(cfg, load_dataset(cfg))
    return obj, [[Oracle(obj, config) for config in configs] for _ in specs]


def cmd_run(cfg):
    solve = parse_solver(cfg.solver, cfg.D)
    obj, [oracles] = _prepare(cfg, [cfg.solver])
    outputs, summary, tag = [], [], _solver_tag(cfg.solver)
    traces = solvers._run_seeds(solve, obj, oracles, cfg.max_iters, cfg.trace_every)
    for seed, trace in zip(cfg.seeds, traces):
        outputs.append((f"trace_{tag}_{seed}.csv", partial(write_trace, trace=trace)))
        last = trace[-1] if trace else None
        summary.append((cfg.solver, seed) + ((
            last.F_value, last.certificate_gap, last.k, last.cum_oracle_calls,
            last.wall_time_s) if last else (math.nan, math.nan, 0, 0, 0.0)))
    header = "solver,seed,final_F,final_gap_or_cert,iters,oracle_calls,wall_time_s"
    return outputs + [("summary.csv", partial(
        _write_csv, header, "%s,%d,%.17g,%.17g,%d,%d,%.17g\n", summary))]


def cmd_sweep(cfg):
    if not cfg.steps or not cfg.diameters:
        raise ConfigError("sweep grid must be nonempty")
    # sgd sweeps its step size under its own rule; the others sweep D
    solve = parse_solver(cfg.solver, cfg.D)
    if "step_rule" in solve.keywords:
        rule = solve.keywords["step_rule"][0]
        grid = [("step", s, partial(solve, step_rule=(rule, _sgd_step(s))))
                for s in cfg.steps]
    else:
        grid = [("D", d, parse_solver(cfg.solver, d)) for d in cfg.diameters]
    values = tuple(value for _, value, _ in grid)
    if len(set(values)) < len(values):  # one point solved twice, in two rows
        raise ConfigError(f"sweep grid must be distinct, got {values}")
    obj, oracles = _prepare(cfg, [cfg.solver] * len(grid))
    rows = [(param, value, float(np.mean([
                trace[-1].F_value if trace else math.nan
                for trace in solvers._run_seeds(
                    solve, obj, seed_oracles, cfg.max_iters, cfg.trace_every)])))
            for (param, value, solve), seed_oracles in zip(grid, oracles)]
    # ties break toward the smaller parameter value, then the earlier row;
    # a nan mean (--iters 0) ranks after every number
    best = min(range(len(rows)), key=lambda i: (
        (1, 0.0) if math.isnan(rows[i][2]) else (0, rows[i][2]), rows[i][1]))
    return [("sweep.csv", partial(
        _write_csv, "solver,param,value,mean_final_F,best", "%s,%s,%.17g,%.17g,%d\n",
        [(cfg.solver, *row, i == best) for i, row in enumerate(rows)]))]


class _Domination:
    """Oracle.grads for compare: append(g) appends coefficient(previous g,
    g), AdaGrad's H', to h_prime and keeps g alone, not every draw."""

    def __init__(self, coefficient):
        self.coefficient, self.g, self.h_prime = coefficient, None, []

    def append(self, g):
        if self.g is not None:
            self.h_prime.append(self.coefficient(self.g, g))
        self.g = g


def cmd_compare(cfg):
    specs = cfg.solvers
    if len(specs) < 2:
        raise ConfigError("compare needs at least two solvers")
    solves = [parse_solver(spec, cfg.D) for spec in specs]
    # one spec twice would give two columns one header
    if len(set(specs)) < len(specs):
        raise ConfigError(
            f"compare needs distinct solvers, got {','.join(specs)}")
    obj, oracles = _prepare(cfg, specs)
    domination, recorded = None, None
    if "usgm" in specs and {"adagrad", "adagrad:grad_diff"} & set(specs):
        # AdaGrad's coefficient on the gradients USGM draws on the first seed
        recorded = specs.index("usgm")
        domination = oracles[recorded][0].grads = _Domination(
            solvers._adagrad_coefficient(obj.metric.b_diag, cfg.D, "grad_diff"))
    traces = [solvers._run_seeds(solve, obj, seed_oracles, cfg.max_iters,
                                 cfg.trace_every)
              for solve, seed_oracles in zip(solves, oracles)]
    columns = []
    for per_seed in traces:
        # the mean over seeds, taken where some seed has a value: nanmean
        # warns on a column of nan
        F = np.asarray([[rec.F_value for rec in trace] for trace in per_seed])
        valued = ~np.isnan(F).all(axis=0)
        columns.append(np.full(F.shape[1], math.nan))
        columns[-1][valued] = np.nanmean(F[:, valued], axis=0)
    header = ["k"] + [f"F_{_solver_tag(spec)}" for spec in specs]
    if domination is not None:
        H = [rec.H for rec in traces[recorded][0]]
        columns.append(np.asarray(domination.h_prime) - np.asarray(H))
        header.append("adagrad_domination")
    return [("compare.csv", partial(
        _write_csv, ",".join(header), "%d" + ",%.17g" * len(columns) + "\n",
        [(k, *F) for k, F in enumerate(zip(*columns), start=1)]))]


def _build_config(args):
    """RunConfig of the config file's texts and the flags overriding them."""
    texts = parse_config_file(args.config) if args.config else {}
    unknown = set(texts) - set(OPTIONS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = {key: getattr(args, key) for key in OPTIONS
             if getattr(args, key, None) is not None}
    texts.update(flags)
    values = {}
    for key, text in texts.items():
        flag, _, read = OPTIONS[key]
        try:
            values[key] = read(text)
        except ValueError as exc:
            raise ConfigError(f"{flag if key in flags else key}: {exc}") from None
    return RunConfig(**values)


COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "compare": cmd_compare}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ugbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config")
        for key, (flag, commands, _) in OPTIONS.items():
            if command in commands:
                # dest is the field; the metavar is argparse's for the flag
                p.add_argument(flag, dest=key,
                               metavar=flag[2:].replace("-", "_").upper())
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        _publish(cfg.out, COMMANDS[args.command](cfg))
    except (ValueError, OSError) as exc:
        print(f"ugbench: {exc}", file=sys.stderr)
        data_error = isinstance(exc, (dataio.LibsvmParseError, OSError))
        return EXIT_DATA_ERROR if data_error else EXIT_BAD_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
