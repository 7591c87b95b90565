"""Universal line-search-free gradient methods plus baselines.

All universal methods share one step-size rule: the next coefficient H+
solves the balance equation (H+ - H) * Omega = [beta - H+ * rho]_+ in
closed form, where beta is a (surrogate) Bregman-distance term, rho = r^2/2
with r the step length, and Omega = D^2 with D the domain diameter.  The
diameter is the only parameter any of these methods needs.

One driver, _run, takes every solve from its oracle and start point to
its returned point: it builds the oracle, checks the counts, the
dimensions and that the start point lies in the ball, and owns the loop:
the counter, the clock, which iterations are monitored (trace_every), the
records and the running average.  Each run_* checks only its own
arguments and hands _run one step function: _ugm_step, _stochastic_step
(USGM and AdaGrad, which differ only in the next H), _usfgm_step or
_subgrad_step.  A step iterates on the unchecked kernels of _kernels(x),
whose outputs stay in the ball: the 1-D ones at one point, their lane
forms over an S x n state.  Per iteration only what outside code returns
is checked: each subgradient (_gradient), AdaGrad's H and, at H = 0, the
dual norm of the direction (_prox_step) and the finiteness of beta and H
(balance_update).  _run_lanes runs seeds of any method as the lanes of
one pass: the method's own run_* on a lane view of the oracles
(oracles._lane_view), from S equal rows, gives each lane the bits of its
one-seed solve and its oracle that solve's calls (lane 0's draws go to
the first oracle's grads, if a list).  _run_seeds decides the rest.
"""

import math
import time
from functools import partial
from typing import NamedTuple

import numpy as np

# The validating helpers (certificate_gap, certificate_update, norm,
# dual_norm, pairing, prox_step, project_ball) stay importable from this
# module, where perfbench's tracer wraps them (and balance_update, which
# the steps look up here); the steps call the kernels.
from .certificate import (  # noqa: F401
    CertificateAccumulator, _fold, _phi_star, certificate_gap,
    certificate_update)
from .metric import (  # noqa: F401
    _SQRT_TINY, _dual_norm, _norm, _pairing, dual_norm, norm, pairing)
from .oracles import Oracle, OracleConfig, _lane_view
from .problems import (  # noqa: F401
    _gradient, _project_ball, _prox_step, _require_in_ball, project_ball,
    prox_step)


class TraceRecord(NamedTuple):
    """One iteration's record; _run builds it positionally."""

    k: int
    F_value: float
    H: float
    r: float
    beta_surrogate: float
    certificate_gap: float  # nan when the solver does not maintain one
    cum_oracle_calls: int
    wall_time_s: float


def balance_update(H, beta, rho, omega):
    """Closed-form solution H+ of (H+ - H) * omega = [beta - H+ * rho]_+."""
    # written so that nan fails every comparison: a nan beta or H would
    # otherwise come back as a nan H, which prox_step cannot use
    if not (omega > 0 and rho >= 0 and 0 <= H < math.inf
            and -math.inf < beta < math.inf):
        raise ValueError(f"invalid balance inputs H={H}, beta={beta}, "
                         f"rho={rho}, omega={omega}")
    return H + max(beta - H * rho, 0.0) / (omega + rho)


def reg_max_bound(M, nu, H):
    """Closed form of max_{r >= 0} { M/(1+nu) r^(1+nu) - H/2 r^2 }."""
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"nu must lie in [0, 1), got {nu}")
    if not H > 0:  # written so that nan fails it, as in balance_update
        raise ValueError(f"H must be positive, got {H}")
    if not M >= 0:
        raise ValueError(f"M must be nonnegative, got {M}")
    return (1.0 - nu) / (2.0 * (1.0 + nu)) * M ** (2.0 / (1.0 - nu)) / H ** (
        (1.0 + nu) / (1.0 - nu)
    )


def check_diameter(D):
    """D if 0 < D*D < inf, else ValueError; the CLI checks its D here too."""
    # D*D can underflow to 0 or overflow, and an infinite D would keep H at
    # 0, turning every method into a Frank-Wolfe step
    if not (D > 0 and 0.0 < D * D < math.inf):
        raise ValueError(f"D must be positive with 0 < D*D < inf, got {D!r}")
    return D


def check_iterations(max_iters, trace_every):
    """ValueError unless max_iters >= 0 and trace_every >= 1 (also the CLI's)."""
    if not (max_iters >= 0 and trace_every >= 1):
        raise ValueError("need max_iters >= 0 and trace_every >= 1, got "
                         f"{max_iters!r} and {trace_every!r}")


def check_step(c):
    """c if 0 <= c < inf, else ValueError; sgd's step size, also the CLI's."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"step size must be finite and >= 0, got {c!r}")
    return c


def _diameter(obj, D):
    """D, by default the domain's diameter, through check_diameter."""
    return check_diameter(obj.domain.diameter_D if D is None else D)


def _kernels(x):
    """(prox, project, norm, pairing, balance, adagrad_coefficient, H_0, nan)
    of a step over x; nan is what it records for an unmonitored F or beta.
    One solve gets the 1-D kernels, an S x n state their lane forms, which
    one solve avoids: at S = 1 they cost ~2.5x per iteration."""
    if x.ndim == 1:
        return (_prox_step, _project_ball, _norm, _pairing, balance_update,
                _adagrad_coefficient, 0.0, math.nan)
    S = len(x)
    return (_lane_prox, _lane_project, _lane_norms, np.vecdot, _lane_balance,
            partial(_lane_adagrad_coefficient, S=S), np.zeros(S),
            np.full(S, math.nan))


def _run(obj, oracle, x0, max_iters, callbacks, trace_every, averaged, start):
    """One solve of obj, from its oracle and start point to its point.

    oracle None or an OracleConfig becomes an Oracle on obj.  It checks the
    counts, the dimensions and that x0 (by default the ball's centre) lies
    in the ball; a lane view of S oracles starts from S equal rows.
    start(oracle, x) gives step(k, traced) -> (x_k, F, H, r, beta, gap,
    calls), iterated and traced here.  traced marks every trace_every-th
    and the last iteration, where F and the gap are monitored (nan
    elsewhere).  F None asks for value() at the average of the x_k if
    averaged, else at x_k.  Returns (the average if averaged, else the
    last x_k, or the start point if max_iters = 0; the trace).
    """
    if oracle is None or isinstance(oracle, OracleConfig):
        oracle = Oracle(obj, oracle)
    check_iterations(max_iters, trace_every)
    domain, metric, value = obj.domain, obj.metric, obj.value
    metric.check_dim(domain.center)
    x = metric.check_dim(np.array(
        domain.center if x0 is None else x0, dtype=np.float64))
    _require_in_ball(x, domain, metric, "start point x0")
    if hasattr(oracle, "lanes"):
        x = np.tile(x, (oracle.lanes, 1))
    step = start(oracle, x)
    trace = []
    xbar_sum = np.zeros_like(x) if averaged else None
    t0 = time.monotonic()
    for k in range(1, max_iters + 1):
        traced = k % trace_every == 0 or k == max_iters
        x, F, H, r, beta, gap, calls = step(k, traced)
        if averaged:
            xbar_sum += x
        if F is None:
            F = value(xbar_sum / k if averaged else x) if traced else math.nan
        record = TraceRecord(k, F, H, r, beta, gap, calls, time.monotonic() - t0)
        trace.append(record)
        for cb in callbacks:
            cb(record)
    if averaged and max_iters > 0:
        x = xbar_sum / max_iters
    return x, trace


def run_ugm(obj, oracle=None, D=None, max_iters=1000, callbacks=(),
            x0=None, trace_every=1):
    """Universal gradient method with exact subgradients.

    Returns (best_x, trace); the trace carries the certificate gap eps_k*,
    a computable upper bound on F(best_x) - F*.
    """
    if oracle is not None and not oracle.is_exact:
        raise ValueError("run_ugm requires an exact oracle")
    return _run(obj, oracle, x0, max_iters, callbacks, trace_every, False,
                partial(_ugm_step, obj, _diameter(obj, D)))


def _ugm_step(obj, D, oracle, x):
    """run_ugm's step from x; its point is the best iterate so far."""
    domain, metric, f_eval = obj.domain, obj.metric, obj.f_eval
    b, shape, omega = metric.b_diag, x.shape, D * D
    H = 0.0
    f_x, g_x = f_eval(x)
    g_x = _gradient(g_x, shape)
    # the best iterate lives in the certificate; ties keep the earlier one
    acc = CertificateAccumulator(best_F=f_x, best_x=x)

    def step(k, traced):
        nonlocal x, f_x, g_x, H
        # the prox first: it rejects an infinite g_x, on which _fold warns
        x_next = _prox_step(g_x, x, H, domain, metric)
        _fold(acc, x, g_x, f_x)
        d = x_next - x
        r = _norm(b, d)
        f_next, g_next = f_eval(x_next)
        g_next = _gradient(g_next, shape)
        beta = f_next - f_x - _pairing(g_x, d)
        H = balance_update(H, beta, 0.5 * r * r, omega)
        if f_next < acc.best_F:
            acc.best_F, acc.best_x = f_next, x_next
        gap = acc.best_F - _phi_star(acc, domain, metric) if traced else math.nan
        x, f_x, g_x = x_next, f_next, g_next
        return acc.best_x, f_x, H, r, beta, gap, k
    return step


def run_usgm(obj, oracle=None, D=None, max_iters=1000, callbacks=(),
             x0=None, trace_every=1):
    """Universal stochastic gradient method; returns the average iterate.

    The step-size surrogate is the sampled symmetrized Bregman term
    <g_{k+1} - g_k, x_{k+1} - x_k>; g_{k+1} is drawn strictly after
    x_{k+1} is fixed.
    """
    return _run(obj, oracle, x0, max_iters, callbacks, trace_every, True,
                partial(_stochastic_step, obj, _diameter(obj, D), None))


def _stochastic_step(obj, D, gamma_variant, oracle, x):
    """run_usgm's step from x, or run_adagrad_norm's if gamma_variant is
    set, over one vector or S lanes (see _kernels).  Only the rule for the
    next H differs, and it is fixed here, not chosen per iteration."""
    prox, _, norm, pairing, balance, adagrad_coefficient, H, nan = _kernels(x)
    domain, metric, draw = obj.domain, obj.metric, oracle.draw
    b, shape, omega = metric.b_diag, x.shape, D * D
    usgm = gamma_variant is None
    coefficient = None if usgm else adagrad_coefficient(b, D, gamma_variant)
    g = _gradient(draw(x), shape)

    def step(k, traced):
        nonlocal x, g, H
        x_next = prox(g, x, H, domain, metric)
        g_next = _gradient(draw(x_next), shape)
        d = x_next - x
        r = norm(b, d)
        if usgm:
            beta = pairing(g_next - g, d)
            H = balance(H, beta, 0.5 * r * r, omega)
        else:
            beta, H = nan, coefficient(g, g_next)
        x, g = x_next, g_next
        return x, None if traced else nan, H, r, beta, math.nan, oracle.calls
    return step


def run_usfgm(obj, oracle=None, D=None, max_iters=1000,
              surrogate_mode="stochastic_symmetrized", callbacks=(),
              x0=None, trace_every=1):
    """Universal stochastic fast gradient method (similar triangles).

    surrogate_mode selects the step-size surrogate: the sampled symmetrized
    Bregman term (works with any oracle) or the exact Bregman distance
    (deterministic_bregman; requires an exact oracle, gives better
    constants).

    One evaluator, at_point(z) -> (f value or nan, w), is chosen once.  As
    in run_ugm, an exact oracle, built-in or not, is never drawn: f and
    its gradient come from the objective.  With f(x) = loss(A x) (A and
    loss both set, value's rule) the loop carries z = A x and A v: A y
    and A x_next are the same convex combinations of them as y and x_next
    are of x and v.  Both surrogates pair w with differences of z, as
    <A.T w, d> = <w, A d>, so an iteration makes two matrix-vector
    products in either mode, A @ v_next and A.T @ w_y, and F(y), F(x_next)
    and the traced F come from the loss of the carried products.  Other
    objectives run the same loop with z = x and w the gradient of f_eval.
    Only a noisy oracle is drawn, at y and x_next.  cum_oracle_calls
    counts the points where f or its gradient is evaluated for the step:
    two per iteration.
    """
    if surrogate_mode not in ("stochastic_symmetrized", "deterministic_bregman"):
        raise ValueError(f"unknown surrogate mode {surrogate_mode!r}")
    deterministic = surrogate_mode == "deterministic_bregman"
    if deterministic and oracle is not None and not oracle.is_exact:
        raise ValueError("deterministic_bregman mode requires an exact oracle")
    return _run(obj, oracle, x0, max_iters, callbacks, trace_every, False,
                partial(_usfgm_step, obj, _diameter(obj, D), deterministic))


def _usfgm_step(obj, D, deterministic, oracle, x):
    """run_usfgm's step from x, over one vector or S lanes (see _kernels)."""
    prox, _, norm, pairing, balance, _, H, nan = _kernels(x)
    domain, metric = obj.domain, obj.metric
    b, shape, omega = metric.b_diag, x.shape, D * D
    v = x
    # with mat set, z = mat @ x and the gradient is mat.T @ w; with mat
    # None, z = x and w is the gradient, checked by _gradient
    mat = None
    if not oracle.is_exact:
        def at_point(z):
            return math.nan, _gradient(oracle.draw(z), shape)
    elif obj.A is not None and obj.loss is not None:
        mat, mat_T, at_point = obj.A, obj.A.T, obj.loss
    else:
        f_eval = obj.f_eval

        def at_point(z):
            f, g = f_eval(z)
            return f, _gradient(g, shape)
    zx = zv = x if mat is None else mat @ x
    A_k = 0.0

    def step(k, traced):
        nonlocal x, v, zx, zv, A_k, H
        a = float(k)
        A_next = A_k + a
        zx_part = A_k * zx
        zy = (zx_part + a * zv) / A_next
        f_y, w_y = at_point(zy)
        g_y = w_y if mat is None else mat_T @ w_y
        v_next = prox(a * g_y, v, H, domain, metric)
        zv_next = v_next if mat is None else mat @ v_next
        zx_next = (zx_part + a * zv_next) / A_next
        x_next = zx_next if mat is None else (A_k * x + a * v_next) / A_next
        r = norm(b, v_next - v)
        f_next, w_next = at_point(zx_next)
        if deterministic:
            beta_hat = f_next - f_y - pairing(w_y, zx_next - zy)
        else:
            beta_hat = pairing(w_next - w_y, zx_next - zy)
        H = balance(H, A_next * beta_hat, 0.5 * r * r, omega)
        x, v, zx, zv, A_k = x_next, v_next, zx_next, zv_next, A_next
        # a noisy oracle gives no f value: _run evaluates F(x)
        F = (None if math.isnan(f_next) else f_next) if traced else nan
        return x, F, H, r, beta_hat, math.nan, 2 * k
    return step


def run_projected_subgrad(obj, oracle=None, step_rule=("decaying", 1.0),
                          max_iters=1000, callbacks=(), x0=None,
                          trace_every=1):
    """Projected (stochastic) subgradient baseline.

    step_rule is ("constant", c) or ("decaying", c) with step c / sqrt(k).
    Returns the average iterate.
    """
    kind, c = step_rule
    if kind not in ("constant", "decaying"):
        raise ValueError(f"unknown step rule {kind!r}")
    return _run(obj, oracle, x0, max_iters, callbacks, trace_every, True,
                partial(_subgrad_step, obj, kind, check_step(c)))


def _subgrad_step(obj, kind, c, oracle, x):
    """run_projected_subgrad's step from x, over one vector or S lanes."""
    _, project, norm, _, _, _, H_0, nan = _kernels(x)
    domain, metric, draw = obj.domain, obj.metric, oracle.draw
    b, shape = metric.b_diag, x.shape

    def step(k, traced):
        nonlocal x
        g = _gradient(draw(x), shape)
        eta = c if kind == "constant" else c / math.sqrt(k)
        H = H_0 + (1.0 / eta if eta > 0 else math.inf)
        x_next = project(x - eta * g / b, domain, metric)
        r = norm(b, x_next - x)
        x = x_next
        return x, None if traced else nan, H, r, nan, math.nan, oracle.calls
    return step


_TINY = float(np.finfo(np.float64).tiny)
_SCALE = 2.0 ** 600  # brings a sum of squares below _TINY back into range


def _adagrad_coefficient(b, D, gamma_variant):
    """coefficient(g, g_next) -> AdaGrad's H'_k = sqrt(sum gamma_i^2) / D.

    gamma is ||g_next - g||_* ("grad_diff") or ||g_next||_* ("grad_norm").
    While the sum of squares is below the normal range, where it loses its
    digits or is 0, H' comes from a second sum of (2^600 gamma)^2.  A nan
    sum gives a nan H', which the next prox step rejects.
    """
    diff = gamma_variant == "grad_diff"
    sq_sum = scaled_sum = 0.0

    def coefficient(g, g_next):
        nonlocal sq_sum, scaled_sum
        s = g_next - g if diff else g_next
        gamma = _dual_norm(b, s)
        sq_sum += gamma * gamma
        if sq_sum < _TINY:
            gamma = _dual_norm(b, s * _SCALE)
            scaled_sum += gamma * gamma
            return math.sqrt(scaled_sum) / _SCALE / D
        return math.sqrt(sq_sum) / D
    return coefficient


def run_adagrad_norm(obj, oracle=None, D=None, gamma_variant="grad_diff",
                     max_iters=1000, callbacks=(), x0=None, trace_every=1):
    """AdaGrad-style baseline with H'_k = sqrt(sum gamma_i^2) / D.

    gamma_variant "grad_diff" accumulates ||g_i - g_{i-1}||_*; "grad_norm"
    is the classical ||g_i||_* (known not to work well for smooth
    constrained problems with a nonzero gradient at the solution).
    """
    if gamma_variant not in ("grad_diff", "grad_norm"):
        raise ValueError(f"unknown gamma variant {gamma_variant!r}")
    return _run(obj, oracle, x0, max_iters, callbacks, trace_every, True,
                partial(_stochastic_step, obj, _diameter(obj, D), gamma_variant))


# Lanes: S seeds of one method in one pass over an S x n state.  Each
# helper gives every lane the bits of the serial kernel at its row; a lane
# that takes a rare branch (H = 0, a sum of squares below the normal range,
# a failed check) goes through the serial kernel itself.

def _lane_norms(b, X, dual=False):
    """_norm (or _dual_norm) of each row of X."""
    n = np.sqrt(np.vecdot(X / b if dual else b * X, X))
    if not np.minimum.reduce(n) >= _SQRT_TINY:
        kernel = _dual_norm if dual else _norm
        for i in np.flatnonzero(n < _SQRT_TINY):
            n[i] = kernel(b, X[i])
    return n


def _lane_project(Y, domain, metric):
    """_project_ball(Y[s]) for each lane s."""
    d = Y - domain.center
    r = _lane_norms(metric.b_diag, d)
    r_max = np.maximum.reduce(r)
    if r_max <= domain.radius:
        return Y
    if r_max < math.inf:  # nan fails it; project the lanes outside
        out = r > domain.radius
        scale = np.divide(domain.radius, r, out=np.ones_like(r), where=out)
        return np.where(out[:, None], domain.center + scale[:, None] * d, Y)
    # a non-finite distance: lane by lane, _project_ball raises its error
    return np.array([_project_ball(y, domain, metric) for y in Y])


def _lane_prox(C, X, H, domain, metric):
    """_prox_step(C[s], X[s], H[s]) for each lane s."""
    if np.minimum.reduce(H) > 0:
        return _lane_project(X - C / (H[:, None] * metric.b_diag), domain,
                             metric)
    # some H = 0 (or nan): lane by lane, _prox_step raises its error
    return np.array([_prox_step(c, x, h, domain, metric)
                     for c, x, h in zip(C, X, H.tolist())])


def _lane_balance(H, beta, rho, omega):
    """balance_update for each lane; raises its error for the first lane
    whose inputs it rejects."""
    ok = (rho >= 0) & (H >= 0) & (H < math.inf) & np.isfinite(beta)
    if not ok.all():
        i = int(np.argmin(ok))
        balance_update(float(H[i]), float(beta[i]), float(rho[i]), omega)
    return H + np.maximum(beta - H * rho, 0.0) / (omega + rho)


def _lane_adagrad_coefficient(b, D, gamma_variant, S):
    """_adagrad_coefficient over S lanes, each with its own sums."""
    diff = gamma_variant == "grad_diff"
    sq_sum, scaled_sum = np.zeros(S), np.zeros(S)

    def coefficient(G, G_next):
        nonlocal sq_sum
        s = G_next - G if diff else G_next
        gamma = _lane_norms(b, s, dual=True)
        sq_sum = sq_sum + gamma * gamma
        H = np.sqrt(sq_sum) / D
        for i in np.flatnonzero(sq_sum < _TINY):
            gamma_i = _dual_norm(b, s[i] * _SCALE)
            scaled_sum[i] += gamma_i * gamma_i
            H[i] = math.sqrt(scaled_sum[i]) / _SCALE / D
        return H
    return coefficient


def _run_lanes(solve, obj, oracles, max_iters, trace_every):
    """solve(obj, oracle, ...), a run_* with its arguments bound, once per
    oracle, as the lanes of one pass: solve runs on a lane view of the
    oracles (see oracles._lane_view); _run_seeds sends it 3 or more seeds.

    The oracles are unused built-in ones of one noisy kind on obj.  Each
    product with A is one gemv per lane and each lane draws from its own
    oracle's generator, so lane s returns the (x, trace) of the one-seed
    solve on oracles[s] bit for bit, apart from wall_time_s, which is the
    pass's clock; a failed check raises the one-seed error of the first
    lane that fails it.  The oracles' calls advance as their draws would,
    and oracles[0].grads, if a list, receives lane 0's gradients.  Returns
    one (x, trace) per oracle.
    """
    view = _lane_view(obj, oracles)
    X, records = solve(obj, view, max_iters=max_iters, trace_every=trace_every)
    k, F, H, r, beta, gap, calls, t = zip(*records) if records else [()] * 8
    # per lane, the columns F, H, r and beta
    per_lane = np.reshape((F, H, r, beta), (4, max_iters, len(oracles))
                          ).transpose(2, 0, 1).tolist()
    out = []
    for oracle, x, (F, H, r, beta) in zip(oracles, X, per_lane):
        out.append((x, list(map(TraceRecord._make, zip(
            k, F, H, r, beta, gap, calls, t)))))
        oracle.calls += view.calls
    return out


def _run_seeds(solve, obj, oracles, max_iters, trace_every):
    """The trace of solve(obj, oracle, ...), a run_* with its arguments
    bound, on each of the oracles, one per seed, of one spec: one solve
    that every seed shares if they draw nothing, one _run_lanes pass for 3
    or more seeds (at 2 it costs more than two solves), else seed by seed.
    The CLI reads the run_* when it parses the spec, so a wrapper patched
    onto it before then is the one called, here and by _run_lanes."""
    run = partial(solve, obj, max_iters=max_iters, trace_every=trace_every)
    if oracles[0].is_exact:
        return [run(oracle=oracles[0])[1]] * len(oracles)
    if len(oracles) >= 3:
        return [trace for _, trace in _run_lanes(
            solve, obj, oracles, max_iters, trace_every)]
    return [run(oracle=oracle)[1] for oracle in oracles]
