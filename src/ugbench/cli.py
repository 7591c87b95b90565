"""`ugbench` command-line benchmark harness.

Subcommands: run (single solve per seed, CSV traces + summary), sweep
(grid of step sizes / diameters, best configuration per solver), compare
(several solvers on a shared problem, wide CSV of objective values).

All outputs are pure functions of (config, seeds); wall-time columns are
informational only.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import dataio, solvers
from .metric import MetricSpace, dual_norm
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
    solver: str = "ugm"              # ugm|usgm|usfgm[:deterministic]|sgd:C[:constant]|adagrad:VARIANT
    oracle: str = "exact"            # exact | gaussian:SIGMA | minibatch:B
    D: float = None                  # default 2 * radius
    max_iters: int = 1000
    trace_every: int = 1
    out: str = "."
    seeds: tuple = (0,)
    jobs: int = 1
    normalize: bool = False
    b_diag: tuple = None             # default identity metric

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ConfigError(
                f"radius must be positive and finite, got {self.radius}")
        if self.D is None:
            self.D = 2.0 * self.radius
        # D*D is the balance equation's Omega: it must neither underflow to
        # 0 nor be infinite, which would keep H at 0 (a Frank-Wolfe method)
        if not (self.D > 0 and 0.0 < self.D * self.D < math.inf):
            raise ConfigError(
                f"D must be positive with 0 < D*D < inf, got {self.D}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.max_iters < 0 or self.trace_every < 1:
            raise ConfigError("bad iteration counts")


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
    if cfg.normalize:
        dataset = dataio.normalize_columns(dataset)
    if cfg.problem == "ls":
        return least_squares_f(dataset.features, dataset.labels, domain, metric)
    if cfg.problem == "logistic":
        return logistic_f(dataset.features, dataset.labels, domain, metric)
    if cfg.problem.startswith("ppower"):
        return p_power_f(dataset.features, dataset.labels,
                         _ppower_exponent(cfg), domain, metric)
    raise ConfigError(f"unknown problem {cfg.problem!r}")


def make_oracle_config(spec, seed):
    name, _, arg = spec.partition(":")
    if name == "exact":
        return OracleConfig(kind="exact", seed=seed)
    if name == "gaussian":
        return OracleConfig(kind="gaussian", sigma=float(arg or 0.0), seed=seed)
    if name == "minibatch":
        return OracleConfig(kind="minibatch", batch_size=int(arg or 1), seed=seed)
    raise ConfigError(f"unknown oracle {spec!r}")


def run_solver(cfg, obj, seed, solver=None, oracle_hook=None):
    """Execute one solver run; returns (result_x, trace)."""
    spec = solver if solver is not None else cfg.solver
    name, _, arg = spec.partition(":")
    oracle = Oracle(obj, make_oracle_config(cfg.oracle, seed))
    if oracle_hook is not None:
        oracle = oracle_hook(oracle)
    common = dict(oracle=oracle, max_iters=cfg.max_iters,
                  trace_every=cfg.trace_every)
    if name == "ugm":
        return solvers.run_ugm(obj, D=cfg.D, **common)
    if name == "usgm":
        return solvers.run_usgm(obj, D=cfg.D, **common)
    if name == "usfgm":
        mode = ("deterministic_bregman" if arg == "deterministic"
                else "stochastic_symmetrized")
        return solvers.run_usfgm(obj, D=cfg.D, surrogate_mode=mode, **common)
    if name == "sgd":
        parts = arg.split(":") if arg else []
        step = float(parts[0]) if parts else 1.0
        rule = parts[1] if len(parts) > 1 else "decaying"
        return solvers.run_projected_subgrad(
            obj, step_rule=(rule, step), **common)
    if name == "adagrad":
        return solvers.run_adagrad_norm(
            obj, D=cfg.D, gamma_variant=arg or "grad_diff", **common)
    raise ConfigError(f"unknown solver {spec!r}")


def write_trace(path, trace):
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in trace:
            fh.write(",".join([
                str(rec.k), _fmt(rec.F_value), _fmt(rec.H), _fmt(rec.r),
                _fmt(rec.beta_surrogate), _fmt(rec.certificate_gap),
                str(rec.cum_oracle_calls), _fmt(rec.wall_time_s),
            ]) + "\n")


def _solver_tag(spec):
    return spec.replace(":", "-").replace(".", "p")


def cmd_run(cfg):
    obj = make_problem(cfg, load_dataset(cfg))
    os.makedirs(cfg.out, exist_ok=True)

    def one(seed):
        _, trace = run_solver(cfg, obj, seed)
        return seed, trace

    results = _map_jobs(one, cfg.seeds, cfg.jobs)
    summary_rows = []
    for seed, trace in results:
        path = os.path.join(cfg.out, f"trace_{_solver_tag(cfg.solver)}_{seed}.csv")
        write_trace(path, trace)
        last = trace[-1] if trace else None
        summary_rows.append({
            "solver": cfg.solver, "seed": seed,
            "final_F": last.F_value if last else math.nan,
            "final_gap_or_cert": last.certificate_gap if last else math.nan,
            "iters": last.k if last else 0,
            "oracle_calls": last.cum_oracle_calls if last else 0,
            "wall_time_s": last.wall_time_s if last else 0.0,
        })
    _write_summary(os.path.join(cfg.out, "summary.csv"), summary_rows)
    return 0


def _write_summary(path, rows):
    with open(path, "w") as fh:
        fh.write("solver,seed,final_F,final_gap_or_cert,iters,oracle_calls,wall_time_s\n")
        for r in rows:
            fh.write(",".join([
                r["solver"], str(r["seed"]), _fmt(r["final_F"]),
                _fmt(r["final_gap_or_cert"]), str(r["iters"]),
                str(r["oracle_calls"]), _fmt(r["wall_time_s"]),
            ]) + "\n")


def _map_jobs(fn, items, jobs):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _grid_for(solver, steps, diameters):
    """sgd sweeps step sizes; the universal/adagrad methods sweep diameters."""
    name = solver.partition(":")[0]
    if name == "sgd":
        return [("step", s) for s in steps]
    return [("D", d) for d in diameters]


def cmd_sweep(cfg, steps=DEFAULT_STEP_GRID, diameters=DEFAULT_DIAMETER_GRID,
              solvers_list=None):
    if not steps or not diameters:
        raise ConfigError("sweep grid must be nonempty")
    obj = make_problem(cfg, load_dataset(cfg))
    os.makedirs(cfg.out, exist_ok=True)
    solver_specs = solvers_list or [cfg.solver]
    rows = []
    for spec in solver_specs:
        for param_name, value in _grid_for(spec, steps, diameters):
            if param_name == "step":
                run_spec = f"sgd:{value}"
                run_cfg = cfg
            else:
                run_spec = spec
                run_cfg = replace(cfg, D=value)

            def one(seed, run_cfg=run_cfg, run_spec=run_spec):
                _, trace = run_solver(run_cfg, obj, seed, solver=run_spec)
                return trace[-1].F_value if trace else math.nan

            finals = _map_jobs(one, cfg.seeds, cfg.jobs)
            rows.append({
                "solver": spec, "param": param_name, "value": value,
                "mean_final_F": float(np.mean(finals)),
            })
    best = {}
    for r in rows:
        cur = best.get(r["solver"])
        # ties break toward the smaller parameter value
        if (cur is None or r["mean_final_F"] < cur["mean_final_F"]
                or (r["mean_final_F"] == cur["mean_final_F"]
                    and r["value"] < cur["value"])):
            best[r["solver"]] = r
    with open(os.path.join(cfg.out, "sweep.csv"), "w") as fh:
        fh.write("solver,param,value,mean_final_F,best\n")
        for r in rows:
            is_best = int(best[r["solver"]] is r)
            fh.write(f"{r['solver']},{r['param']},{_fmt(r['value'])},"
                     f"{_fmt(r['mean_final_F'])},{is_best}\n")
    return 0


class _RecordingOracle:
    """Wraps an oracle to accumulate the AdaGrad-style coefficient H'_k."""

    def __init__(self, inner, metric):
        self.inner = inner
        self.metric = metric
        self.prev_g = None
        self.gamma_sq_sum = 0.0
        self.h_prime = []

    @property
    def calls(self):
        return self.inner.calls

    @property
    def is_exact(self):
        return self.inner.is_exact

    def draw(self, x):
        sample = self.inner.draw(x)
        if self.prev_g is not None:
            gamma = dual_norm(self.metric, sample.g - self.prev_g)
            self.gamma_sq_sum += gamma * gamma
            self.h_prime.append(math.sqrt(self.gamma_sq_sum))
        self.prev_g = sample.g
        return sample


def cmd_compare(cfg, solver_specs):
    if len(solver_specs) < 2:
        raise ConfigError("compare needs at least two solvers")
    obj = make_problem(cfg, load_dataset(cfg))
    os.makedirs(cfg.out, exist_ok=True)
    columns = {}
    domination = None
    want_domination = ("usgm" in solver_specs
                       and any(s.startswith("adagrad") and
                               (s.endswith("grad_diff") or s == "adagrad")
                               for s in solver_specs))
    for spec in solver_specs:
        per_seed = []
        recorder = [None]

        def hook(oracle, recorder=recorder):
            rec = _RecordingOracle(oracle, obj.metric)
            recorder[0] = rec
            return rec

        for i, seed in enumerate(cfg.seeds):
            use_hook = hook if (spec == "usgm" and want_domination and i == 0) else None
            _, trace = run_solver(cfg, obj, seed, solver=spec, oracle_hook=use_hook)
            per_seed.append([rec.F_value for rec in trace])
            if use_hook is not None:
                h_prime = np.asarray(recorder[0].h_prime[:len(trace)]) / cfg.D
                h_k = np.asarray([rec.H for rec in trace])
                domination = h_prime - h_k
        columns[spec] = np.nanmean(np.asarray(per_seed), axis=0)
    n_rows = min(len(c) for c in columns.values())
    path = os.path.join(cfg.out, "compare.csv")
    with open(path, "w") as fh:
        header = ["k"] + [f"F_{_solver_tag(s)}" for s in solver_specs]
        if domination is not None:
            header.append("adagrad_domination")
        fh.write(",".join(header) + "\n")
        for i in range(n_rows):
            row = [str(i + 1)] + [_fmt(columns[s][i]) for s in solver_specs]
            if domination is not None:
                row.append(_fmt(domination[i]))
            fh.write(",".join(row) + "\n")
    return 0


def _build_config(args):
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in ("problem", "data", "solver", "oracle", "out"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    for key, cast in (("radius", float), ("D", float), ("iters", int),
                      ("trace_every", int), ("jobs", int)):
        v = getattr(args, key, None)
        if v is not None:
            values["max_iters" if key == "iters" else key] = cast(v)
    if args.seeds is not None:
        values["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    elif "seeds" in values and isinstance(values["seeds"], str):
        values["seeds"] = tuple(int(s) for s in values["seeds"].split(","))
    elif "seeds" not in values:
        master = os.environ.get("UGBENCH_SEED", "0")
        values["seeds"] = (int(master),)
    for key, cast in (("radius", float), ("D", float), ("max_iters", int),
                      ("trace_every", int), ("jobs", int)):
        if key in values and isinstance(values[key], str):
            values[key] = cast(values[key])
    if "normalize" in values and isinstance(values["normalize"], str):
        values["normalize"] = values["normalize"].lower() in ("1", "true", "yes")
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
