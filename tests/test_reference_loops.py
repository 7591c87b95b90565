"""The solvers against reference loops written with the public helpers.

The solvers validate once at entry and then hand one shared loop a step
that iterates on unchecked kernels; the reference loops below are written
out one per method and call the validating helpers (prox_step,
project_ball, norm, dual_norm, pairing, certificate_update/certificate_gap)
on every step, as the solvers once did.  All five step rules are covered.
Their traces must agree bit for bit, and the checks that outside input can
trip must still fire.
"""

import math

import numpy as np
import pytest

from ugbench.certificate import CertificateAccumulator, certificate_gap, certificate_update
from ugbench.metric import DimensionMismatchError, MetricSpace, dual_norm, norm, pairing
from ugbench.oracles import GradientSample, Oracle, OracleConfig
from ugbench.problems import (
    BallDomain,
    CompositeObjective,
    InfeasibleAnchorError,
    least_squares_f,
    logistic_f,
    p_power_f,
    project_ball,
    prox_step,
)
from ugbench.solvers import (
    TraceRecord,
    balance_update,
    run_adagrad_norm,
    run_projected_subgrad,
    run_ugm,
    run_usfgm,
    run_usgm,
)

ITERS = 60
TRACE_EVERY = 7


def _traced(k, max_iters):
    return k % TRACE_EVERY == 0 or k == max_iters


def ref_ugm(obj, D, x0, max_iters):
    domain, metric = obj.domain, obj.metric
    x = np.array(x0, dtype=np.float64)
    H = 0.0
    acc = CertificateAccumulator()
    f_x, g_x = obj.f_eval(x)
    best_F, best_x = f_x, x
    rows = []
    for k in range(1, max_iters + 1):
        certificate_update(acc, x, g_x, f_x, f_x)
        x_next = prox_step(g_x, x, H, domain, metric)
        r = norm(metric, x_next - x)
        f_next, g_next = obj.f_eval(x_next)
        beta = f_next - f_x - pairing(g_x, x_next - x)
        H = balance_update(H, beta, 0.5 * r * r, D * D)
        if f_next < best_F:
            best_F, best_x = f_next, x_next
        gap = math.nan
        if _traced(k, max_iters):
            gap = best_F - certificate_gap(acc, domain, metric)[0]
        rows.append((k, f_next, H, r, beta, gap, k))
        x, f_x, g_x = x_next, f_next, g_next
    return best_x, rows


def ref_usgm(obj, oracle, D, x0, max_iters):
    domain, metric = obj.domain, obj.metric
    x = np.array(x0, dtype=np.float64)
    H = 0.0
    g = oracle.draw(x).g
    xbar_sum = np.zeros_like(x)
    rows = []
    for k in range(1, max_iters + 1):
        x_next = prox_step(g, x, H, domain, metric)
        g_next = oracle.draw(x_next).g
        r = norm(metric, x_next - x)
        beta = pairing(g_next - g, x_next - x)
        H = balance_update(H, beta, 0.5 * r * r, D * D)
        xbar_sum += x_next
        F = obj.f_eval(xbar_sum / k)[0] if _traced(k, max_iters) else math.nan
        rows.append((k, F, H, r, beta, math.nan, oracle.calls))
        x, g = x_next, g_next
    return xbar_sum / max_iters, rows


def ref_adagrad(obj, oracle, D, x0, max_iters):
    domain, metric = obj.domain, obj.metric
    x = np.array(x0, dtype=np.float64)
    H = 0.0
    gamma_sq_sum = 0.0
    g = oracle.draw(x).g
    xbar_sum = np.zeros_like(x)
    rows = []
    for k in range(1, max_iters + 1):
        x_next = prox_step(g, x, H, domain, metric)
        g_next = oracle.draw(x_next).g
        gamma = dual_norm(metric, g_next - g)
        gamma_sq_sum += gamma * gamma
        H = math.sqrt(gamma_sq_sum) / D
        r = norm(metric, x_next - x)
        xbar_sum += x_next
        F = obj.f_eval(xbar_sum / k)[0] if _traced(k, max_iters) else math.nan
        rows.append((k, F, H, r, math.nan, math.nan, oracle.calls))
        x, g = x_next, g_next
    return xbar_sum / max_iters, rows


def ref_usfgm(obj, D, x0, max_iters, deterministic):
    # an objective without A: y and x_next are combinations of the points
    domain, metric = obj.domain, obj.metric
    x = np.array(x0, dtype=np.float64)
    v = x
    H, A_k = 0.0, 0.0
    rows = []
    for k in range(1, max_iters + 1):
        a = float(k)
        A_next = A_k + a
        y = (A_k * x + a * v) / A_next
        f_y, g_y = obj.f_eval(y)
        v_next = prox_step(a * g_y, v, H, domain, metric)
        x_next = (A_k * x + a * v_next) / A_next
        r = norm(metric, v_next - v)
        f_next, g_next = obj.f_eval(x_next)
        if deterministic:
            beta = f_next - f_y - pairing(g_y, x_next - y)
        else:
            beta = pairing(g_next - g_y, x_next - y)
        H = balance_update(H, A_next * beta, 0.5 * r * r, D * D)
        F = f_next if _traced(k, max_iters) else math.nan
        rows.append((k, F, H, r, beta, math.nan, 2 * k))
        x, v, A_k = x_next, v_next, A_next
    return x, rows


def ref_sgd(obj, oracle, rule, c, x0, max_iters):
    domain, metric = obj.domain, obj.metric
    x = np.array(x0, dtype=np.float64)
    xbar_sum = np.zeros_like(x)
    rows = []
    for k in range(1, max_iters + 1):
        g = oracle.draw(x).g
        step = c if rule == "constant" else c / math.sqrt(k)
        x_next = project_ball(x - step * g / metric.b_diag, domain, metric)
        r = norm(metric, x_next - x)
        xbar_sum += x_next
        F = obj.f_eval(xbar_sum / k)[0] if _traced(k, max_iters) else math.nan
        rows.append((k, F, 1.0 / step, r, math.nan, math.nan, oracle.calls))
        x = x_next
    return xbar_sum / max_iters, rows


def bits(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


def record_bits(trace):
    # every field but the wall time
    return bits(tuple(rec)[:-1] for rec in trace)


def make_problem(kind):
    """A non-Euclidean metric, a ball off the origin and a start off its centre."""
    rng = np.random.Generator(np.random.Philox(71))
    m, n = 24, 6
    A = rng.standard_normal((m, n))
    b = A @ rng.standard_normal(n)
    metric = MetricSpace(n, np.geomspace(0.05, 20.0, n))
    domain = BallDomain(rng.standard_normal(n), 0.8)
    if kind == "least-squares":
        obj = least_squares_f(A, b, domain, metric)
    elif kind == "logistic":
        obj = logistic_f(A, np.where(b >= np.median(b), 1.0, -1.0), domain, metric)
    else:
        obj = p_power_f(A, b, 1.5, domain, metric)
    step = rng.standard_normal(n)
    x0 = domain.center + 0.5 * domain.radius * step / norm(metric, step)
    return obj, x0


@pytest.fixture(scope="module", params=["least-squares", "logistic", "p-power"])
def problem(request):
    return make_problem(request.param)


@pytest.fixture(scope="module")
def ls_problem():
    return make_problem("least-squares")


def test_ugm_matches_reference(problem):
    obj, x0 = problem
    D = 1.3
    x_ref, rows = ref_ugm(obj, D, x0, ITERS)
    x, trace = run_ugm(obj, D=D, x0=x0, max_iters=ITERS, trace_every=TRACE_EVERY)
    assert record_bits(trace) == bits(rows)
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("cfg", [
    OracleConfig(kind="gaussian", sigma=0.5, seed=3),
    OracleConfig(kind="minibatch", batch_size=4, seed=4),
], ids=["gaussian", "minibatch"])
def test_usgm_matches_reference(problem, cfg):
    obj, x0 = problem
    D = obj.domain.diameter_D
    x_ref, rows = ref_usgm(obj, Oracle(obj, cfg), D, x0, ITERS)
    x, trace = run_usgm(obj, cfg, x0=x0, max_iters=ITERS, trace_every=TRACE_EVERY)
    assert record_bits(trace) == bits(rows)
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("cfg", [
    OracleConfig(kind="gaussian", sigma=0.5, seed=5),
    OracleConfig(kind="minibatch", batch_size=4, seed=6),
], ids=["gaussian", "minibatch"])
def test_adagrad_matches_reference(problem, cfg):
    obj, x0 = problem
    D = 0.9
    x_ref, rows = ref_adagrad(obj, Oracle(obj, cfg), D, x0, ITERS)
    x, trace = run_adagrad_norm(obj, cfg, D=D, x0=x0, max_iters=ITERS,
                                trace_every=TRACE_EVERY)
    assert record_bits(trace) == bits(rows)
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("mode", ["stochastic_symmetrized", "deterministic_bregman"])
def test_usfgm_without_A_matches_reference(problem, mode):
    obj, x0 = problem
    user = CompositeObjective(f_eval=obj.f_eval, domain=obj.domain, metric=obj.metric)
    D = 1.1
    x_ref, rows = ref_usfgm(user, D, x0, ITERS, mode == "deterministic_bregman")
    x, trace = run_usfgm(user, D=D, x0=x0, max_iters=ITERS, surrogate_mode=mode,
                         trace_every=TRACE_EVERY)
    assert record_bits(trace) == bits(rows)
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("rule", [("constant", 0.05), ("decaying", 0.5)],
                         ids=["constant", "decaying"])
@pytest.mark.parametrize("cfg", [
    OracleConfig(kind="gaussian", sigma=0.5, seed=7),
    OracleConfig(kind="minibatch", batch_size=4, seed=8),
], ids=["gaussian", "minibatch"])
def test_sgd_matches_reference(problem, cfg, rule):
    obj, x0 = problem
    x_ref, rows = ref_sgd(obj, Oracle(obj, cfg), *rule, x0, ITERS)
    x, trace = run_projected_subgrad(obj, cfg, step_rule=rule, x0=x0,
                                     max_iters=ITERS, trace_every=TRACE_EVERY)
    assert record_bits(trace) == bits(rows)
    assert x.tobytes() == x_ref.tobytes()


RUNS = {
    "ugm": run_ugm,
    "usgm": run_usgm,
    "usfgm": run_usfgm,
    "sgd": run_projected_subgrad,
    "adagrad": run_adagrad_norm,
}
PROX_RUNS = {k: v for k, v in RUNS.items() if k != "sgd"}


@pytest.mark.parametrize("name", RUNS)
@pytest.mark.parametrize("x0", [np.zeros(5), np.zeros(7), np.zeros((6, 1))],
                         ids=["short", "long", "column"])
def test_bad_start_shape_rejected(ls_problem, name, x0):
    obj, _ = ls_problem
    with pytest.raises(DimensionMismatchError):
        RUNS[name](obj, x0=x0, max_iters=3)


@pytest.mark.parametrize("name", PROX_RUNS)
def test_infeasible_start_rejected(ls_problem, name):
    obj, _ = ls_problem
    x0 = obj.domain.center + 2.0 * obj.domain.radius / np.sqrt(obj.metric.b_diag[0]) \
        * np.eye(obj.metric.dim)[0]
    with pytest.raises(InfeasibleAnchorError):
        PROX_RUNS[name](obj, x0=x0, max_iters=3)


def user_objective(obj, bad_call, bad_grad=None, bad_value=None):
    """obj's f_eval, returning a bad gradient or value from call bad_call on."""
    calls = [0]

    def f_eval(x):
        calls[0] += 1
        f, g = obj.f_eval(x)
        if calls[0] >= bad_call:
            if bad_grad is not None:
                g = bad_grad(g)
            if bad_value is not None:
                f = bad_value
        return f, g

    return CompositeObjective(f_eval=f_eval, domain=obj.domain, metric=obj.metric)


@pytest.mark.parametrize("name", PROX_RUNS)
@pytest.mark.parametrize("bad_call", [1, 4])
@pytest.mark.parametrize("bad_grad", [
    lambda g: g[:-1], lambda g: np.append(g, 0.0), lambda g: g[:1],
], ids=["short", "long", "one"])
def test_wrong_shape_gradient_rejected(ls_problem, name, bad_call, bad_grad):
    # a one-entry gradient would broadcast silently through the prox step
    obj, _ = ls_problem
    user = user_objective(obj, bad_call, bad_grad=bad_grad)
    with pytest.raises(DimensionMismatchError):
        PROX_RUNS[name](user, max_iters=10)


@pytest.mark.parametrize("name", ["ugm", "usfgm"])
@pytest.mark.parametrize("bad_value", [math.nan, math.inf])
def test_non_finite_value_rejected(ls_problem, name, bad_value):
    # a non-finite f makes beta non-finite, which balance_update rejects
    obj, _ = ls_problem
    user = user_objective(obj, 4, bad_value=bad_value)
    run = RUNS[name]
    kwargs = {"surrogate_mode": "deterministic_bregman"} if name == "usfgm" else {}
    with pytest.raises(ValueError, match="invalid balance inputs"):
        run(user, max_iters=10, **kwargs)


def test_records_are_immutable(ls_problem):
    obj, x0 = ls_problem
    _, trace = run_ugm(obj, x0=x0, max_iters=2)
    rec = trace[0]
    assert isinstance(rec, TraceRecord)
    for field in TraceRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, 0.0)
    sample = Oracle(obj).draw(x0)
    assert isinstance(sample, GradientSample)
    with pytest.raises(AttributeError):
        sample.g = np.zeros(3)
    with pytest.raises(AttributeError):
        sample.draw_index = 7
