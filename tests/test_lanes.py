"""Seeds as lanes: solvers._run_lanes against one-seed solves, bit for bit.

_run_lanes runs run_usgm or run_adagrad_norm for several oracles at once,
over an S x n state.  Each lane's trace (every column but wall time), its
average and its oracle's call count must equal the one-seed solve's, on the
built-in objectives, oracles and balls, and through the rare branches: a
lane still at H = 0, norms below the normal range, AdaGrad's rescaled sum
and a failed check.  The CLI's lane path must write what its per-seed path
writes.
"""

import math
import os

import numpy as np
import pytest

import ugbench.cli
import ugbench.oracles
from ugbench.cli import main
from ugbench.metric import MetricSpace
from ugbench.oracles import Oracle, OracleConfig
from ugbench.problems import BallDomain, least_squares_f, logistic_f, p_power_f
from ugbench.solvers import _run_lanes, run_adagrad_norm, run_usgm

ORACLES = {
    "exact": dict(kind="exact"),
    "gaussian-0": dict(kind="gaussian", sigma=0.0),
    "gaussian-1": dict(kind="gaussian", sigma=1.0),
    "minibatch-1": dict(kind="minibatch", batch_size=1),
    "minibatch-8": dict(kind="minibatch", batch_size=8),
    "full-batch": dict(kind="minibatch", full_batch=True),
}
# gamma_variant of _run_lanes; None is USGM
METHODS = {"usgm": None, "adagrad-grad_diff": "grad_diff",
           "adagrad-grad_norm": "grad_norm"}


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


def bits(x, trace):
    return x.tobytes(), [tuple(float(v).hex() for v in rec[:7]) for rec in trace]


def assert_lanes_match(obj, cfgs, gamma_variant, max_iters, trace_every,
                       D=None):
    oracles = [Oracle(obj, cfg) for cfg in cfgs]
    lanes = _run_lanes(obj, oracles, max_iters, trace_every, D=D,
                       gamma_variant=gamma_variant)
    assert len(lanes) == len(cfgs)
    for cfg, oracle, (x, trace) in zip(cfgs, oracles, lanes):
        one = Oracle(obj, cfg)
        if gamma_variant is None:
            x_one, trace_one = run_usgm(obj, one, D=D, max_iters=max_iters,
                                        trace_every=trace_every)
        else:
            x_one, trace_one = run_adagrad_norm(
                obj, one, D=D, gamma_variant=gamma_variant,
                max_iters=max_iters, trace_every=trace_every)
        assert bits(x, trace) == bits(x_one, trace_one)
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
                assert_lanes_match(obj, cfgs, METHODS[method], max_iters,
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
    lanes = assert_lanes_match(obj, cfgs, None, 30, 1)
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
    assert_lanes_match(tiny_gradients, cfgs, METHODS[method], 40, 7)
    tiny_ball = make_objective("least-squares", "off-centre", radius=1e-155)
    assert_lanes_match(tiny_ball, cfgs, METHODS[method], 40, 7)


def test_lanes_hand_lane_0_gradients():
    obj = make_objective("least-squares", "off-centre")
    cfgs = [OracleConfig(kind="gaussian", sigma=1.0, seed=s) for s in (4, 5)]
    grads = []
    _run_lanes(obj, [Oracle(obj, cfg) for cfg in cfgs], 20, 1, grads=grads)
    one = Oracle(obj, cfgs[0])
    draw, recorded = one.draw, []

    def recording_draw(x):
        sample = draw(x)
        recorded.append(sample.g)
        return sample
    one.draw = recording_draw
    run_usgm(obj, one, max_iters=20)
    assert len(grads) == len(recorded) == 21
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, recorded))


@pytest.mark.parametrize("method", METHODS)
def test_lanes_share_the_pass_clock(method):
    obj = make_objective("least-squares", "default")
    oracles = [Oracle(obj, OracleConfig(kind="gaussian", sigma=1.0, seed=s))
               for s in range(3)]
    lanes = _run_lanes(obj, oracles, 50, 7, gamma_variant=METHODS[method])
    times = [[rec.wall_time_s for rec in trace] for _, trace in lanes]
    assert len(times[0]) == 50
    assert times[0] == times[1] == times[2]
    assert times[0] == sorted(times[0])


def test_lanes_reject_mixed_oracles():
    obj = make_objective("least-squares", "default")
    oracles = [Oracle(obj, OracleConfig(kind="gaussian", sigma=s, seed=int(s)))
               for s in (1.0, 2.0)]
    with pytest.raises(ValueError):
        _run_lanes(obj, oracles, 5, 1)


class NanDraw:
    """A generator whose n-th standard_normal draw has a nan entry."""

    def __init__(self, rng, n):
        self.rng, self.n = rng, n
        self.integers = rng.integers

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        self.n -= 1
        if self.n == 0:
            z[2] = math.nan
        return z


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solver", ["usgm", "adagrad"])
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
])
def test_cli_lanes_write_what_the_per_seed_path_writes(tmp_path, monkeypatch,
                                                       args):
    common = [*args, "--data", "synthetic:20:8:0", "--iters", "60",
              "--trace-every", "3", "--seeds", "0,1,2"]
    assert main([*common, "--out", str(tmp_path / "lanes")]) == 0
    monkeypatch.setattr(ugbench.cli, "_LANE_ENTRIES", ())
    assert main([*common, "--out", str(tmp_path / "per-seed")]) == 0
    assert (read_outputs(tmp_path / "lanes")
            == read_outputs(tmp_path / "per-seed"))
