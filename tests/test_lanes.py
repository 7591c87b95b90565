"""Seeds as lanes: solvers._run_lanes against one-seed solves, bit for bit.

_run_lanes runs a method's own run_* entry for several oracles at once,
over an S x n state.  Each lane's trace (every column but wall time), its
point and its oracle's call count must equal the one-seed solve's, for
USGM, both AdaGrad variants, stochastic USFGM and three SGD step rules, on
the built-in objectives, noisy oracles and balls, and through the rare
branches: a lane still at H = 0, norms below the normal range, AdaGrad's
rescaled sum and a failed check.  Seeds that draw nothing are refused as
lanes and share one solve.  The CLI runs three or more noisy seeds of any
solver as lanes (solvers._run_seeds), and must write what one-seed solves
write; two seeds it runs one by one.
"""

import math
import os
from functools import partial

import numpy as np
import pytest

import ugbench.oracles
import ugbench.solvers
from helpers import RecordingOracle
from ugbench.cli import main
from ugbench.metric import MetricSpace
from ugbench.oracles import Oracle, OracleConfig
from ugbench.problems import BallDomain, least_squares_f, logistic_f, p_power_f
from ugbench.solvers import _run_lanes, _run_seeds

ORACLES = {
    "exact": dict(kind="exact"),
    "gaussian-0": dict(kind="gaussian", sigma=0.0),
    "gaussian-1": dict(kind="gaussian", sigma=1.0),
    "minibatch-1": dict(kind="minibatch", batch_size=1),
    "minibatch-8": dict(kind="minibatch", batch_size=8),
    # a batch as large as the dataset (make_objective's 24 rows), drawn
    # with replacement like any other
    "full-batch": dict(kind="minibatch", batch_size=24),
}
# each method's entry and keyword arguments
METHODS = {
    "usgm": ("run_usgm", {}),
    "adagrad-grad_diff": ("run_adagrad_norm", dict(gamma_variant="grad_diff")),
    "adagrad-grad_norm": ("run_adagrad_norm", dict(gamma_variant="grad_norm")),
    "usfgm": ("run_usfgm", {}),
    "sgd-decaying-1": ("run_projected_subgrad",
                       dict(step_rule=("decaying", 1.0))),
    "sgd-constant-0.1": ("run_projected_subgrad",
                         dict(step_rule=("constant", 0.1))),
    "sgd-constant-0": ("run_projected_subgrad",
                       dict(step_rule=("constant", 0.0))),
}
REFUSED = ("^lanes need built-in oracles of one noisy kind on a built-in "
           "objective$")


def make_objective(problem, ball, scale=1.0, radius=0.8):
    """A built-in objective on the default ball or on an off-centre ball
    under a non-Euclidean metric (b from 0.05 to 20)."""
    rng = np.random.Generator(np.random.Philox(5))
    m, n = 24, 6
    A = rng.standard_normal((m, n))
    b = A @ rng.standard_normal(n)
    domain = metric = None
    if ball == "off-centre":
        metric = MetricSpace(n, np.geomspace(0.05, 20.0, n))
        domain = BallDomain(rng.standard_normal(n), radius)
    if problem == "least-squares":
        return least_squares_f(scale * A, scale * b, domain, metric)
    if problem == "logistic":
        return logistic_f(A, np.where(b >= np.median(b), 1.0, -1.0), domain,
                          metric)
    return p_power_f(A, b, 1.5, domain, metric)


def columns(trace):
    return [tuple(float(v).hex() for v in rec[:7]) for rec in trace]


def solve_of(method):
    """method's run_* entry with its keyword arguments bound."""
    entry, kwargs = METHODS[method]
    return partial(getattr(ugbench.solvers, entry), **kwargs)


def solve_one(obj, cfg, method, **kwargs):
    """The one-seed solve of method on a new oracle of cfg, and the oracle."""
    one = Oracle(obj, cfg)
    return solve_of(method)(obj, one, **kwargs), one


def assert_lanes_match(obj, cfgs, method, max_iters, trace_every):
    """A lane pass of method on cfgs equals its one-seed solves; seeds that
    draw nothing are refused as lanes, and _run_seeds gives each the trace
    of their one shared solve."""
    solve = solve_of(method)
    oracles = [Oracle(obj, cfg) for cfg in cfgs]
    if cfgs[0].is_exact:
        with pytest.raises(ValueError, match=REFUSED):
            _run_lanes(solve, obj, oracles, max_iters, trace_every)
        traces = _run_seeds(solve, obj, oracles, max_iters, trace_every)
        (_, trace_one), _ = solve_one(obj, cfgs[-1], method,
                                      max_iters=max_iters,
                                      trace_every=trace_every)
        assert [columns(t) for t in traces] == [columns(trace_one)] * len(cfgs)
        return
    lanes = _run_lanes(solve, obj, oracles, max_iters, trace_every)
    assert len(lanes) == len(cfgs)
    for cfg, oracle, (x, trace) in zip(cfgs, oracles, lanes):
        (x_one, trace_one), one = solve_one(
            obj, cfg, method, max_iters=max_iters, trace_every=trace_every)
        assert x.tobytes() == x_one.tobytes()
        assert columns(trace) == columns(trace_one)
        assert oracle.calls == one.calls
    return lanes


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("ball", ["default", "off-centre"])
@pytest.mark.parametrize("problem", ["least-squares", "logistic", "p-power"])
def test_lanes_match_one_seed_solves(problem, ball, oracle, method):
    obj = make_objective(problem, ball)
    for n_seeds in (3, 8):
        cfgs = [OracleConfig(seed=seed, **ORACLES[oracle])
                for seed in range(10, 10 + n_seeds)]
        for max_iters in (0, 1, 40):
            for trace_every in (1, 7):
                assert_lanes_match(obj, cfgs, method, max_iters,
                                   trace_every)


def test_lanes_still_at_zero_H_take_the_vertex():
    # rows with a zero label have a zero gradient at the centre: a lane that
    # draws one first does not move at step 1 and keeps H = 0, while the
    # others move and get H > 0
    rng = np.random.Generator(np.random.Philox(3))
    A = rng.standard_normal((24, 6))
    b = np.where(np.arange(24) % 2 == 0, 0.0, A @ rng.standard_normal(6))
    obj = least_squares_f(A, b)
    cfgs = [OracleConfig(kind="minibatch", seed=seed) for seed in range(8)]
    lanes = assert_lanes_match(obj, cfgs, "usgm", 30, 1)
    first_H = [trace[0].H for _, trace in lanes]
    assert 0.0 in first_H and max(first_H) > 0.0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("oracle", ["exact", "gaussian-1", "minibatch-8"])
def test_lanes_below_the_normal_range(method, oracle):
    # gradients scaled by 1e-160 have sums of squares below the normal
    # range, the dual norm's rescale and AdaGrad's second sum; a radius of
    # 1e-155 does the same for the step's norm
    cfg = dict(ORACLES[oracle])
    if oracle == "gaussian-1":
        cfg["sigma"] = 1e-160
    cfgs = [OracleConfig(seed=seed, **cfg) for seed in range(3)]
    tiny_gradients = make_objective("least-squares", "off-centre", scale=1e-80)
    assert_lanes_match(tiny_gradients, cfgs, method, 40, 7)
    tiny_ball = make_objective("least-squares", "off-centre", radius=1e-155)
    assert_lanes_match(tiny_ball, cfgs, method, 40, 7)


def test_lanes_hand_lane_0_gradients():
    """A lane pass records lane 0's draws in oracles[0].grads, as the
    one-seed solve records its own."""
    obj = make_objective("least-squares", "off-centre")
    for oracle in ("gaussian-1", "minibatch-8"):
        cfgs = [OracleConfig(seed=s, **ORACLES[oracle]) for s in (4, 5)]
        for method in METHODS:
            oracles = [Oracle(obj, cfg) for cfg in cfgs]
            one = Oracle(obj, cfgs[0])
            oracles[0].grads, one.grads = [], []
            solve = solve_of(method)
            _run_lanes(solve, obj, oracles, 20, 1)
            solve(obj, one, max_iters=20)
            assert oracles[1].grads is None
            assert len(oracles[0].grads) == len(one.grads) >= 20
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(oracles[0].grads, one.grads))


@pytest.mark.parametrize("method", METHODS)
def test_lanes_share_the_pass_clock(method):
    obj = make_objective("least-squares", "default")
    oracles = [Oracle(obj, OracleConfig(kind="gaussian", sigma=1.0, seed=s))
               for s in range(3)]
    lanes = _run_lanes(solve_of(method), obj, oracles, 50, 7)
    times = [[rec.wall_time_s for rec in trace] for _, trace in lanes]
    assert len(times[0]) == 50
    assert times[0] == times[1] == times[2]
    assert times[0] == sorted(times[0])


def test_lanes_reject_mixed_oracles():
    obj = make_objective("least-squares", "default")
    other = make_objective("logistic", "default")
    cfgs = [OracleConfig(kind="gaussian", sigma=1.0, seed=s) for s in (1, 2)]
    gaussian = Oracle(obj, cfgs[0])
    for oracles in [
            [gaussian, Oracle(obj, OracleConfig(kind="gaussian", sigma=2.0))],
            [gaussian, Oracle(obj, OracleConfig(kind="minibatch", seed=2))],
            # oracles that draw nothing share one solve instead
            [Oracle(obj, OracleConfig(seed=s)) for s in (1, 2)],
            [Oracle(obj, OracleConfig(kind="gaussian", seed=s)) for s in (1, 2)],
            [Oracle(obj), Oracle(obj, OracleConfig(kind="gaussian"))],
            # one or every oracle built on another objective
            [gaussian, Oracle(other, cfgs[1])],
            [Oracle(other, cfg) for cfg in cfgs],
            # a user oracle, here one that wraps a matching built-in one
            [gaussian, RecordingOracle(Oracle(obj, cfgs[1]))],
            [RecordingOracle(Oracle(obj, cfgs[1])), gaussian]]:
        with pytest.raises(ValueError, match=REFUSED):
            _run_lanes(ugbench.solvers.run_usgm, obj, oracles, 5, 1)


class NanDraw:
    """A generator whose n-th standard_normal draw (row) has a bad (nan)
    entry, however many draws one call returns."""

    def __init__(self, rng, n, bad=math.nan):
        self.rng, self.n, self.bad = rng, n, bad
        self.integers = rng.integers

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        rows = z.reshape(-1, z.shape[-1])
        if 0 < self.n <= len(rows):
            rows[self.n - 1, 2] = self.bad
        self.n -= len(rows)
        return z


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solver", ["usgm", "adagrad", "usfgm", "sgd:0.1"])
def test_nan_gradient_in_one_lane_stops_as_one_seed_does(tmp_path, capsys,
                                                         monkeypatch, solver):
    make_rng = ugbench.oracles.make_rng
    monkeypatch.setattr(ugbench.oracles, "make_rng", lambda seed: (
        NanDraw(make_rng(seed), 6) if seed == 1 else make_rng(seed)))
    common = ["run", "--solver", solver, "--oracle", "gaussian:0.5",
              "--data", "synthetic:20:8:0", "--iters", "30"]
    assert main([*common, "--seeds", "1", "--out", str(tmp_path / "one")]) == 2
    one = capsys.readouterr().err
    assert main([*common, "--seeds", "0,1,2",
                 "--out", str(tmp_path / "lanes")]) == 2
    assert capsys.readouterr().err == one
    assert "nan" in one


@pytest.mark.parametrize("bad", [math.nan, math.inf])
# at step 0, SGD's 0 * inf is an invalid value, which the suite makes an error
@pytest.mark.parametrize("method", [m for m in METHODS if m != "sgd-constant-0"])
def test_non_finite_first_gradient_stops_lanes_as_one_seed(monkeypatch,
                                                           method, bad):
    # lane 1's first gradient is not finite; every lane is at H = 0, whose
    # prox step needs a finite direction, or SGD's projection a finite point
    make_rng = ugbench.oracles.make_rng
    monkeypatch.setattr(ugbench.oracles, "make_rng", lambda seed: (
        NanDraw(make_rng(seed), 1, bad) if seed == 1 else make_rng(seed)))
    obj = make_objective("least-squares", "default")
    cfgs = [OracleConfig(kind="gaussian", sigma=1.0, seed=s) for s in range(3)]
    expected = ("non-finite distance" if method.startswith("sgd")
                else "direction of finite dual norm")
    with pytest.raises(ValueError, match=expected) as one:
        solve_one(obj, cfgs[1], method, max_iters=10)
    with pytest.raises(ValueError) as lanes:
        _run_lanes(solve_of(method), obj, [Oracle(obj, cfg) for cfg in cfgs],
                   10, 1)
    assert str(lanes.value) == str(one.value)


@pytest.mark.parametrize("variant", ["grad_diff", "grad_norm"])
def test_infinite_draw_stops_adagrad_lanes_as_one_seed(monkeypatch, variant):
    # lane 1's third draw has an infinite entry, which makes its H infinite;
    # the next prox step, with every lane at H > 0, puts that lane's point
    # at a nan distance from the centre.  Its inf / inf warns of an invalid
    # value on both paths, so the warning is expected, not an error
    make_rng = ugbench.oracles.make_rng
    monkeypatch.setattr(ugbench.oracles, "make_rng", lambda seed: (
        NanDraw(make_rng(seed), 3, math.inf) if seed == 1 else make_rng(seed)))
    obj = make_objective("least-squares", "default")
    cfgs = [OracleConfig(kind="gaussian", sigma=1.0, seed=s) for s in range(3)]
    with (pytest.warns(RuntimeWarning, match="invalid value"),
          pytest.raises(ValueError, match="non-finite distance nan") as one):
        ugbench.solvers.run_adagrad_norm(obj, Oracle(obj, cfgs[1]),
                                         gamma_variant=variant, max_iters=10)
    with (pytest.warns(RuntimeWarning, match="invalid value"),
          pytest.raises(ValueError) as lanes):
        _run_lanes(partial(ugbench.solvers.run_adagrad_norm,
                           gamma_variant=variant),
                   obj, [Oracle(obj, cfg) for cfg in cfgs], 10, 1)
    assert str(lanes.value) == str(one.value)


def read_outputs(out):
    """Every file under out; trace and summary rows without wall time."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name)) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        if name.startswith("trace_") or name == "summary.csv":
            rows = [row[:-1] for row in rows]
        files[name] = rows
    return files


@pytest.mark.parametrize("args", [
    ["run", "--solver", "usgm", "--oracle", "gaussian:1.0"],
    ["run", "--solver", "adagrad:grad_norm", "--oracle", "minibatch:4"],
    ["run", "--solver", "usgm", "--oracle", "exact", "--jobs", "2"],
    ["sweep", "--solver", "adagrad", "--oracle", "gaussian:0.5",
     "--diameters", "4,2,1"],
    ["compare", "--solvers", "usgm,adagrad,sgd:0.1", "--oracle",
     "gaussian:0.5"],
    ["run", "--solver", "usfgm", "--oracle", "gaussian:1.0"],
    ["run", "--solver", "sgd:0.1", "--oracle", "minibatch:4"],
    ["sweep", "--solver", "sgd", "--oracle", "gaussian:0.5", "--steps",
     "1,0.1,0"],
])
def test_cli_lanes_write_what_the_per_seed_path_writes(tmp_path, monkeypatch,
                                                       args):
    common = [*args, "--data", "synthetic:20:8:0", "--iters", "60",
              "--trace-every", "3", "--seeds", "0,1,2"]
    assert main([*common, "--out", str(tmp_path / "lanes")]) == 0

    def per_seed(solve, obj, oracles, max_iters, trace_every):
        return [solve(obj, oracle, max_iters=max_iters, trace_every=trace_every)
                for oracle in oracles]
    monkeypatch.setattr(ugbench.solvers, "_run_lanes", per_seed)
    assert main([*common, "--out", str(tmp_path / "per-seed")]) == 0
    assert (read_outputs(tmp_path / "lanes")
            == read_outputs(tmp_path / "per-seed"))


@pytest.mark.parametrize("solver, oracle", [("usgm", "gaussian:1.0"),
                                            ("adagrad", "minibatch:4"),
                                            ("usfgm", "gaussian:1.0"),
                                            ("sgd:0.1", "minibatch:4")])
def test_two_seeds_run_one_by_one(tmp_path, monkeypatch, solver, oracle):
    # at two seeds a lane pass costs more than two solves
    def forbidden(*args, **kwargs):
        pytest.fail("two seeds must not run as lanes")
    monkeypatch.setattr(ugbench.solvers, "_run_lanes", forbidden)
    common = ["--oracle", oracle, "--data", "synthetic:20:8:0", "--iters",
              "60", "--trace-every", "3"]
    outputs = {}
    for seeds in ("0,1", "0", "1"):
        for command in (["run", "--solver", solver],
                        ["compare", "--solvers", "usgm,adagrad"]):
            out = tmp_path / command[0] / seeds
            assert main([*command, *common, "--seeds", seeds,
                         "--out", str(out)]) == 0
            outputs[command[0], seeds] = read_outputs(out)
    two = outputs["run", "0,1"]
    for seed in (0, 1):
        one = outputs["run", str(seed)]
        tag = solver.replace(":", "-").replace(".", "p")
        trace = f"trace_{tag}_{seed}.csv"
        assert two[trace] == one[trace]
        assert two["summary.csv"][1 + seed] == one["summary.csv"][1]
    # each F column is the mean of the one-seed columns; the domination
    # column is seed 0's
    rows, ones = (outputs["compare", s]["compare.csv"] for s in ("0,1", "0"))
    twos = outputs["compare", "1"]["compare.csv"]
    assert rows[0] == ones[0] == ["k", "F_usgm", "F_adagrad",
                                  "adagrad_domination"]
    for row, a, b in zip(rows[1:], ones[1:], twos[1:], strict=True):
        assert row[3] == a[3]
        assert row[1:3] == [
            "" if x == "" else f"{np.mean([float(x), float(y)]):.17g}"
            for x, y in zip(a[1:3], b[1:3])]


@pytest.mark.parametrize("solver, entry", [("usfgm", "run_usfgm"),
                                           ("sgd:0.1", "run_projected_subgrad")])
def test_three_noisy_seeds_make_one_entry_call(tmp_path, monkeypatch, solver,
                                               entry):
    # a lane pass is the entry's own solve on a lane view of the oracles
    views = []

    def counting(obj, oracle, *args, solve=getattr(ugbench.solvers, entry),
                 **kwargs):
        views.append(oracle)
        return solve(obj, oracle, *args, **kwargs)
    monkeypatch.setattr(ugbench.solvers, entry, counting)
    assert main(["run", "--solver", solver, "--oracle", "gaussian:1.0",
                 "--data", "synthetic:20:8:0", "--iters", "30",
                 "--seeds", "0,1,2", "--out", str(tmp_path)]) == 0
    assert [view.lanes for view in views] == [3]
