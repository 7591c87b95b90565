"""Composite objectives F = f + psi on a metric ball, with prox/projection.

psi is always the indicator of a ball in the B-norm; the prox subproblem
    argmin_{x in ball} <c, x> + (H/2) ||x - anchor||^2
is a shifted projection (or a linear minimization when H = 0).

prox_step and project_ball validate their arguments on every call, then
call the kernels _prox_step and _project_ball, which solvers call
directly after validating once at entry.  What a user's f_eval returns
stays outside input: solvers pass each subgradient through _gradient.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .metric import (DimensionMismatchError, MetricSpace, _norm,
                     _scaled_dual_norm, dual_norm, norm)

# relative slack when checking that a prox anchor is feasible; absorbs
# round-off from earlier projections
ANCHOR_FEAS_TOL = 1e-9
# per-entry rounding allowance, in units of the larger absolute coordinate
_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)


class InfeasibleAnchorError(ValueError):
    """Prox anchor lies outside the domain beyond tolerance."""


class DataShapeError(ValueError):
    """Problem data with inconsistent shapes or invalid values."""


@dataclass(frozen=True)
class BallDomain:
    """Ball {x : ||x - center|| <= radius} in the B-norm."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        center = np.asarray(self.center, dtype=np.float64)
        if not np.all(np.isfinite(center)):
            raise ValueError("center entries must be finite")
        object.__setattr__(self, "center", center)

    @property
    def diameter_D(self):
        return 2.0 * self.radius

    def contains(self, x, metric, rtol=ANCHOR_FEAS_TOL):
        """Whether ||x - center|| <= radius * (1 + rtol), up to rounding.

        The feasibility rule of the prox anchor too.  A point stored in
        absolute coordinates carries up to an ulp of max(|center_i|, |x_i|)
        per entry, which off the origin can exceed the relative slack on a
        small radius; that allowance is computed only when needed.
        """
        b, center = metric.b_diag, self.center
        limit = self.radius * (1.0 + rtol)
        dist = _norm(b, x - center)
        return dist <= limit or dist <= limit + _ROUNDING * _norm(
            b, np.maximum(np.abs(center), np.abs(x)))


@dataclass
class CompositeObjective:
    """f given by a value/subgradient callable, psi the ball indicator.

    f_eval(x) -> (value, subgradient).  For finite-sum losses, n_rows and
    row_grad are set so that mini-batch oracles can sample unbiased row
    gradients: the uniform mean of row_grad(x, all_rows) equals the full
    subgradient.  Objectives of the form f(x) = loss(A x) also set A and
    loss(z) -> (value, w), with subgradient A.T @ w, so that solvers can
    carry A x along instead of recomputing it; value(x) then evaluates
    loss(A x) alone, one product instead of two.

    The subgradient must have the shape of x; solvers check that on
    every evaluation.
    """

    f_eval: Callable[[np.ndarray], tuple]
    domain: BallDomain
    metric: MetricSpace
    label: str = ""
    n_rows: Optional[int] = None
    row_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    A: Optional[np.ndarray] = None
    loss: Optional[Callable[[np.ndarray], tuple]] = None

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.A is not None and self.loss is not None:
            return self.loss(self.A @ x)[0]
        return self.f_eval(x)[0]

    def subgradient(self, x):
        return self.f_eval(np.asarray(x, dtype=np.float64))[1]


def project_ball(x, domain, metric):
    """B-metric projection onto the ball (radial scaling)."""
    return _project_ball(metric.check_dim(x), domain, metric)


def _project_ball(x, domain, metric):
    d = x - domain.center
    r = _norm(metric.b_diag, d)
    if r <= domain.radius:
        return x
    if not r < math.inf:  # also nan; scaling by radius / r would give nan
        raise ValueError(
            f"cannot project a point at non-finite distance {r} from the centre")
    return domain.center + (domain.radius / r) * d


def prox_step(c, anchor, H, domain, metric):
    """argmin over the ball of <c, x> + (H/2) ||x - anchor||^2.

    For H > 0 this is the projection of anchor - B^-1 c / H; for H = 0 it
    degenerates to linear minimization over the ball (ties at c = 0 go to
    the anchor, keeping runs deterministic).
    """
    return _prox_step(metric.check_dim(c), metric.check_dim(anchor), H,
                      domain, metric)


def _prox_step(c, anchor, H, domain, metric):
    if not H >= 0:  # also rejects nan, which would select the H = 0 branch
        raise ValueError(f"H must be nonnegative, got {H}")
    b = metric.b_diag
    center = domain.center
    if not domain.contains(anchor, metric):
        raise InfeasibleAnchorError(
            "prox anchor lies outside the domain (||anchor - center|| = "
            f"{_norm(b, anchor - center)!r}, radius = {domain.radius!r})"
        )
    if H > 0:
        return _project_ball(anchor - c / (H * b), domain, metric)
    # the vertex depends only on the direction of c, so it is computed from
    # c / k, whose dual norm does not underflow
    k, dn = _scaled_dual_norm(b, c)
    if dn == 0.0:
        return anchor
    return center - (domain.radius / dn) * ((c / k) / b)


_FLOAT64 = np.dtype(np.float64)


def _gradient(g, shape):
    """A subgradient from outside code as a float64 vector of the given shape.

    Costs a class, dtype and shape compare when g already is one.
    """
    if g.__class__ is not np.ndarray or g.dtype is not _FLOAT64:
        g = np.asarray(g, dtype=np.float64)
    if g.shape != shape:
        raise DimensionMismatchError(
            f"subgradient has shape {g.shape}, expected {shape}")
    return g


def least_squares_f(A, b, domain=None, metric=None, label="least-squares"):
    """f(x) = (1/2) ||Ax - b||_2^2 with gradient A^T (Ax - b)."""
    A, b = _check_data(A, b)
    m, n = A.shape

    def loss(z):
        r = z - b
        return 0.5 * float(np.dot(r, r)), r

    def row_grad(x, idx):
        # full gradient is the uniform mean over rows of m * r_i * a_i
        rows = A[idx]
        r = rows @ x - b[idx]
        return m * r[:, None] * rows

    return _with_defaults(_lifted(A, loss), domain, metric, n, label, m,
                          row_grad, A, loss)


def logistic_f(features, labels, domain=None, metric=None, label="logistic"):
    """f(x) = sum_i log(1 + exp(-b_i <a_i, x>)) with labels in {-1, +1}."""
    A, b = _check_data(features, labels)
    if not np.all(np.isin(b, (-1.0, 1.0))):
        raise DataShapeError("logistic labels must be in {-1, +1}")
    m, n = A.shape

    def _sigmoid(z):
        # exp(-|z|) <= 1 cannot overflow; each branch takes its side's exp
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def loss(z):
        margins = b * z
        value = float(np.add.reduce(np.logaddexp(0.0, -margins)))
        return value, -b * _sigmoid(-margins)

    def row_grad(x, idx):
        rows, signs = A[idx], b[idx]
        margins = signs * (rows @ x)
        w = -signs * _sigmoid(-margins)
        return m * w[:, None] * rows

    return _with_defaults(_lifted(A, loss), domain, metric, n, label, m,
                          row_grad, A, loss)


def p_power_f(A, b, p, domain=None, metric=None, label=None):
    """f(x) = (1/m) sum_i |<a_i, x> - b_i|^p, Hoelder-smooth with nu = p - 1.

    Subgradient is (p/m) sum_i sign(r_i) |r_i|^(p-1) a_i, with the zero
    element of the subdifferential taken at kinks (r_i = 0).
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    A, b = _check_data(A, b)
    m, n = A.shape

    def _row_weights(r, a):
        # a = |r|; sign(0) = 0 gives kinks the zero subgradient, also at p = 1
        return p * np.sign(r) * a ** (p - 1.0)

    def f_eval(x):
        # divides by m after the product; A.T @ loss(A @ x)[1] divides before
        r = A @ x - b
        a = np.abs(r)
        value = float(np.add.reduce(a ** p)) / m
        return value, A.T @ _row_weights(r, a) / m

    def loss(z):
        r = z - b
        a = np.abs(r)
        return float(np.add.reduce(a ** p)) / m, _row_weights(r, a) / m

    def row_grad(x, idx):
        rows = A[idx]
        r = rows @ x - b[idx]
        return _row_weights(r, np.abs(r))[:, None] * rows

    if label is None:
        label = f"p-power(p={p})"
    return _with_defaults(f_eval, domain, metric, n, label, m, row_grad, A, loss)


def _check_data(A, b):
    # asanyarray keeps ndarray subclasses, such as a matrix that counts its
    # products; np.matrix becomes a plain array, as its @ returns 2-D results
    A = np.asanyarray(A, dtype=np.float64)
    if isinstance(A, np.matrix):
        A = np.asarray(A)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise DataShapeError(f"incompatible shapes A{A.shape}, b{b.shape}")
    return A, b


def _lifted(A, loss):
    """f_eval of f(x) = loss(A x)."""
    def f_eval(x):
        value, w = loss(A @ x)
        return value, A.T @ w
    return f_eval


def _with_defaults(f_eval, domain, metric, n, label, n_rows, row_grad, A, loss):
    if metric is None:
        metric = MetricSpace.euclidean(n)
    if domain is None:
        domain = BallDomain(np.zeros(n), 1.0)
    return CompositeObjective(
        f_eval=f_eval, domain=domain, metric=metric, label=label,
        n_rows=n_rows, row_grad=row_grad, A=A, loss=loss,
    )


def sample_in_ball(domain, metric, rng, size=None):
    """Uniform sample from the ball in the B-norm."""
    single = size is None
    k = 1 if single else size
    dim = metric.dim
    z = rng.standard_normal((k, dim))
    z /= np.linalg.norm(z * np.sqrt(metric.b_diag), axis=1, keepdims=True)
    radii = domain.radius * rng.random(k) ** (1.0 / dim)
    pts = domain.center + radii[:, None] * z
    return pts[0] if single else pts


def estimate_holder_constant(obj, nu, n_pairs, seed):
    """Empirical lower estimate of the Hoelder constant L_nu.

    Samples n_pairs random pairs in the domain and maximizes
    ||g(x) - g(y)||_* / ||x - y||^nu.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    best = 0.0
    for _ in range(n_pairs):
        x = sample_in_ball(obj.domain, obj.metric, rng)
        y = sample_in_ball(obj.domain, obj.metric, rng)
        dist = norm(obj.metric, x - y)
        if dist == 0.0:
            continue
        gap = dual_norm(obj.metric, obj.subgradient(x) - obj.subgradient(y))
        best = max(best, gap / dist**nu)
    return best
