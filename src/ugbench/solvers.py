"""Universal line-search-free gradient methods plus baselines.

All universal methods share one step-size rule: the next coefficient H+
solves the balance equation (H+ - H) * Omega = [beta - H+ * rho]_+ in
closed form, where beta is a (surrogate) Bregman-distance term, rho = r^2/2
with r the step length, and Omega = D^2 with D the domain diameter.  The
diameter is the only parameter any of these methods needs.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificate import CertificateAccumulator, certificate_gap, certificate_update
from .metric import dual_norm, norm, pairing
from .oracles import Oracle, OracleConfig
from .problems import project_ball, prox_step


@dataclass(frozen=True)
class TraceRecord:
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
    if H <= 0:
        raise ValueError(f"H must be positive, got {H}")
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")
    return (1.0 - nu) / (2.0 * (1.0 + nu)) * M ** (2.0 / (1.0 - nu)) / H ** (
        (1.0 + nu) / (1.0 - nu)
    )


def _emit(trace, callbacks, record):
    trace.append(record)
    for cb in callbacks:
        cb(record)


def _as_oracle(obj, oracle):
    if oracle is None:
        return Oracle(obj, OracleConfig(kind="exact"))
    if isinstance(oracle, OracleConfig):
        return Oracle(obj, oracle)
    return oracle


def run_ugm(obj, oracle=None, D=None, max_iters=1000, callbacks=(),
            x0=None, trace_every=1):
    """Universal gradient method with exact subgradients.

    Returns (best_x, trace); the trace carries the certificate gap eps_k*,
    a computable upper bound on F(best_x) - F*.
    """
    oracle = _as_oracle(obj, oracle)
    if not oracle.is_exact:
        raise ValueError("run_ugm requires an exact oracle")
    domain, metric = obj.domain, obj.metric
    if D is None:
        D = domain.diameter_D
    x = np.array(domain.center if x0 is None else x0, dtype=np.float64)
    H = 0.0
    acc = CertificateAccumulator()
    f_x, g_x = obj.f_eval(x)
    best_F, best_x = f_x, x.copy()
    trace = []
    t0 = time.monotonic()
    for k in range(max_iters):
        certificate_update(acc, x, g_x, f_x, f_x)
        x_next = prox_step(g_x, x, H, domain, metric)
        r = norm(metric, x_next - x)
        f_next, g_next = obj.f_eval(x_next)
        beta = f_next - f_x - pairing(g_x, x_next - x)
        H = balance_update(H, beta, 0.5 * r * r, D * D)
        if f_next < best_F:
            best_F, best_x = f_next, x_next.copy()
        if (k + 1) % trace_every == 0 or k + 1 == max_iters:
            phi_star, _ = certificate_gap(acc, domain, metric)
            gap = best_F - phi_star
        else:
            gap = math.nan
        _emit(trace, callbacks, TraceRecord(
            k=k + 1, F_value=f_next, H=H, r=r, beta_surrogate=beta,
            certificate_gap=gap, cum_oracle_calls=k + 1,
            wall_time_s=time.monotonic() - t0,
        ))
        x, f_x, g_x = x_next, f_next, g_next
    return best_x, trace


def run_usgm(obj, oracle=None, D=None, max_iters=1000, callbacks=(),
             x0=None, trace_every=1, report="average"):
    """Universal stochastic gradient method; returns the average iterate.

    The step-size surrogate is the sampled symmetrized Bregman term
    <g_{k+1} - g_k, x_{k+1} - x_k>; g_{k+1} is drawn strictly after
    x_{k+1} is fixed.
    """
    if report not in ("average", "last"):
        raise ValueError(f"unknown report mode {report!r}")
    oracle = _as_oracle(obj, oracle)
    domain, metric = obj.domain, obj.metric
    if D is None:
        D = domain.diameter_D
    x = np.array(domain.center if x0 is None else x0, dtype=np.float64)
    H = 0.0
    g = oracle.draw(x).g
    xbar_sum = np.zeros_like(x)
    trace = []
    t0 = time.monotonic()
    for k in range(max_iters):
        x_next = prox_step(g, x, H, domain, metric)
        g_next = oracle.draw(x_next).g
        r = norm(metric, x_next - x)
        beta_hat = pairing(g_next - g, x_next - x)
        H = balance_update(H, beta_hat, 0.5 * r * r, D * D)
        xbar_sum += x_next
        if (k + 1) % trace_every == 0 or k + 1 == max_iters:
            point = xbar_sum / (k + 1) if report == "average" else x_next
            F_val = obj.value(point)
        else:
            F_val = math.nan
        _emit(trace, callbacks, TraceRecord(
            k=k + 1, F_value=F_val, H=H, r=r, beta_surrogate=beta_hat,
            certificate_gap=math.nan, cum_oracle_calls=oracle.calls,
            wall_time_s=time.monotonic() - t0,
        ))
        x, g = x_next, g_next
    xbar = xbar_sum / max(max_iters, 1) if max_iters > 0 else x
    return xbar, trace


def _usfgm_evaluators(obj, oracle, deterministic):
    """(mat, at_y, at_next) for run_usfgm.

    at_y and at_next map a point z to (f value or nan, w).  With mat set,
    z = mat @ x and the gradient is mat.T @ w; with mat None, z = x and w
    is the gradient.  Only the built-in exact oracle is bypassed; any other
    oracle is drawn at every point, as wrappers around it expect.
    """
    if type(oracle) is Oracle and oracle.cfg.kind == "exact":
        if obj.A is not None:
            return obj.A, obj.loss, obj.loss
        return None, obj.f_eval, obj.f_eval
    if deterministic:
        def at_y(z):
            return obj.value(z), oracle.draw(z).g

        def at_next(z):
            return obj.value(z), None
        return None, at_y, at_next

    def at_point(z):
        return math.nan, oracle.draw(z).g
    return None, at_point, at_point


def run_usfgm(obj, oracle=None, D=None, max_iters=1000,
              surrogate_mode="stochastic_symmetrized", callbacks=(),
              x0=None, trace_every=1):
    """Universal stochastic fast gradient method (similar triangles).

    surrogate_mode selects the step-size surrogate: the sampled symmetrized
    Bregman term (works with any oracle) or the exact Bregman distance
    (deterministic_bregman; requires an exact oracle, gives better
    constants).

    With the built-in exact oracle and an objective f(x) = loss(A x), the
    loop carries z = A x and A v: A y and A x_next are the same convex
    combinations of them as y and x_next are of x and v.  Both surrogates
    pair w with differences of z, as <A.T w, d> = <w, A d>, so an iteration
    makes two matrix-vector products in either mode, A @ v_next and
    A.T @ w_y, and F(y), F(x_next) and the traced F come from the loss of
    the carried products.
    Other objectives run the same loop with z = x.  Noisy and user-supplied
    oracles are drawn at y and x_next.  cum_oracle_calls counts the points
    where f or its gradient is evaluated for the step: two per iteration.
    """
    if surrogate_mode not in ("stochastic_symmetrized", "deterministic_bregman"):
        raise ValueError(f"unknown surrogate mode {surrogate_mode!r}")
    oracle = _as_oracle(obj, oracle)
    deterministic = surrogate_mode == "deterministic_bregman"
    if deterministic and not oracle.is_exact:
        raise ValueError("deterministic_bregman mode requires an exact oracle")
    domain, metric = obj.domain, obj.metric
    if D is None:
        D = domain.diameter_D
    x = np.array(domain.center if x0 is None else x0, dtype=np.float64)
    v = x
    mat, at_y, at_next = _usfgm_evaluators(obj, oracle, deterministic)
    if mat is None:
        zx = zv = x
    else:
        mat_T = mat.T
        zx = zv = mat @ x
    H = 0.0
    A_k = 0.0
    trace = []
    t0 = time.monotonic()
    for k in range(max_iters):
        a = float(k + 1)
        A_next = A_k + a
        zy = (A_k * zx + a * zv) / A_next
        f_y, w_y = at_y(zy)
        g_y = w_y if mat is None else mat_T @ w_y
        v_next = prox_step(a * g_y, v, H, domain, metric)
        if mat is None:
            zv_next = v_next
            x_next = zx_next = (A_k * zx + a * v_next) / A_next
        else:
            zv_next = mat @ v_next
            zx_next = (A_k * zx + a * zv_next) / A_next
            x_next = (A_k * x + a * v_next) / A_next
        r = norm(metric, v_next - v)
        f_next, w_next = at_next(zx_next)
        if deterministic:
            beta_hat = f_next - f_y - pairing(w_y, zx_next - zy)
        else:
            beta_hat = pairing(w_next - w_y, zx_next - zy)
        H = balance_update(H, A_next * beta_hat, 0.5 * r * r, D * D)
        if (k + 1) % trace_every == 0 or k + 1 == max_iters:
            F_val = obj.value(x_next) if math.isnan(f_next) else f_next
        else:
            F_val = math.nan
        _emit(trace, callbacks, TraceRecord(
            k=k + 1, F_value=F_val, H=H, r=r, beta_surrogate=beta_hat,
            certificate_gap=math.nan, cum_oracle_calls=2 * (k + 1),
            wall_time_s=time.monotonic() - t0,
        ))
        x, v, zx, zv, A_k = x_next, v_next, zx_next, zv_next, A_next
    return x, trace


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
    if c < 0:
        raise ValueError("step size must be nonnegative")
    oracle = _as_oracle(obj, oracle)
    domain, metric = obj.domain, obj.metric
    x = np.array(domain.center if x0 is None else x0, dtype=np.float64)
    xbar_sum = np.zeros_like(x)
    trace = []
    t0 = time.monotonic()
    for k in range(max_iters):
        g = oracle.draw(x).g
        step = c if kind == "constant" else c / math.sqrt(k + 1)
        x_next = project_ball(x - step * g / metric.b_diag, domain, metric)
        r = norm(metric, x_next - x)
        xbar_sum += x_next
        if (k + 1) % trace_every == 0 or k + 1 == max_iters:
            F_val = obj.value(xbar_sum / (k + 1))
        else:
            F_val = math.nan
        _emit(trace, callbacks, TraceRecord(
            k=k + 1, F_value=F_val, H=1.0 / step if step > 0 else math.inf,
            r=r, beta_surrogate=math.nan, certificate_gap=math.nan,
            cum_oracle_calls=oracle.calls, wall_time_s=time.monotonic() - t0,
        ))
        x = x_next
    xbar = xbar_sum / max(max_iters, 1) if max_iters > 0 else x
    return xbar, trace


def run_adagrad_norm(obj, oracle=None, D=None, gamma_variant="grad_diff",
                     max_iters=1000, callbacks=(), x0=None, trace_every=1):
    """AdaGrad-style baseline with H'_k = sqrt(sum gamma_i^2) / D.

    gamma_variant "grad_diff" accumulates ||g_i - g_{i-1}||_*; "grad_norm"
    is the classical ||g_i||_* (known not to work well for smooth
    constrained problems with a nonzero gradient at the solution).
    """
    if gamma_variant not in ("grad_diff", "grad_norm"):
        raise ValueError(f"unknown gamma variant {gamma_variant!r}")
    if D is None:
        D = obj.domain.diameter_D
    if D <= 0:
        raise ValueError("D must be positive")
    oracle = _as_oracle(obj, oracle)
    domain, metric = obj.domain, obj.metric
    x = np.array(domain.center if x0 is None else x0, dtype=np.float64)
    g = oracle.draw(x).g
    H = 0.0
    gamma_sq_sum = 0.0
    xbar_sum = np.zeros_like(x)
    trace = []
    t0 = time.monotonic()
    for k in range(max_iters):
        x_next = prox_step(g, x, H, domain, metric)
        g_next = oracle.draw(x_next).g
        if gamma_variant == "grad_diff":
            gamma = dual_norm(metric, g_next - g)
        else:
            gamma = dual_norm(metric, g_next)
        gamma_sq_sum += gamma * gamma
        H = math.sqrt(gamma_sq_sum) / D
        r = norm(metric, x_next - x)
        xbar_sum += x_next
        if (k + 1) % trace_every == 0 or k + 1 == max_iters:
            F_val = obj.value(xbar_sum / (k + 1))
        else:
            F_val = math.nan
        _emit(trace, callbacks, TraceRecord(
            k=k + 1, F_value=F_val, H=H, r=r, beta_surrogate=math.nan,
            certificate_gap=math.nan, cum_oracle_calls=oracle.calls,
            wall_time_s=time.monotonic() - t0,
        ))
        x, g = x_next, g_next
    xbar = xbar_sum / max(max_iters, 1) if max_iters > 0 else x
    return xbar, trace
