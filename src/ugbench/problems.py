"""Composite objectives F = f + psi on a metric ball, with prox/projection.

psi is always the indicator of a ball in the B-norm; the prox subproblem
    argmin_{x in ball} <c, x> + (H/2) ||x - anchor||^2
is a shifted projection (or a linear minimization when H = 0).

prox_step and project_ball validate their arguments on every call (and
prox_step that its anchor lies in the ball), then call the kernels
_prox_step and _project_ball.  Solvers validate once at entry, the start
point's feasibility included, and then call the kernels, whose outputs
stay in the ball.  What a user's f_eval returns stays outside input:
solvers pass each subgradient through _gradient.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .metric import (DimensionMismatchError, MetricSpace, _norm,
                     _scaled_dual_norm)

# relative slack when checking that a start point or prox anchor is
# feasible; absorbs round-off from earlier projections
ANCHOR_FEAS_TOL = 1e-9
# per-entry rounding allowance, in units of the larger absolute coordinate
_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)


class InfeasibleAnchorError(ValueError):
    """Start point or prox anchor lies outside the domain beyond tolerance."""


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

        The rule a solver's start point and prox_step's anchor must meet
        (InfeasibleAnchorError otherwise).  A point stored in
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
    loss(A x) alone, one product instead of two.  The built-ins' value
    computes F alone: the product and _loss_value, the loss's value part.

    The subgradient must have the shape of x; solvers check that on
    every evaluation.  The built-in factories' f_eval, value and row_grad
    also take S points at once, the rows of an S x n X, and loss the rows
    of their products with A; each lane gets the bits of the one-point
    call.  Only they set _loss_value, which lets solvers run seeds as lanes.
    """

    f_eval: Callable[[np.ndarray], tuple]
    domain: BallDomain
    metric: MetricSpace
    n_rows: Optional[int] = None
    row_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    A: Optional[np.ndarray] = None
    loss: Optional[Callable[[np.ndarray], tuple]] = None
    _loss_value = None  # z = A x -> loss(z)[0] without w; built-ins only

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self._loss_value is not None:
            value = self._loss_value(_stacked(self.A, x))
            return float(value) if x.ndim == 1 else value
        if self.A is not None and self.loss is not None:
            return self.loss(_stacked(self.A, x))[0]
        return self.f_eval(x)[0]


def _require_in_ball(x, domain, metric, name):
    """Raise InfeasibleAnchorError, naming x, unless domain.contains(x)."""
    if not domain.contains(x, metric):
        dist = _norm(metric.b_diag, x - domain.center)
        raise InfeasibleAnchorError(
            f"{name} is outside the ball (distance {dist!r}, radius {domain.radius!r})")


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
    the anchor, keeping runs deterministic).  The anchor must be feasible.
    """
    c, anchor = metric.check_dim(c), metric.check_dim(anchor)
    _require_in_ball(anchor, domain, metric, "prox anchor")
    return _prox_step(c, anchor, H, domain, metric)


def _prox_step(c, anchor, H, domain, metric):
    if not H >= 0:  # also rejects nan, which would select the H = 0 branch
        raise ValueError(f"H must be nonnegative, got {H}")
    b = metric.b_diag
    if H > 0:
        return _project_ball(anchor - c / (H * b), domain, metric)
    # the vertex depends only on the direction of c, so it is computed from
    # c / k, whose dual norm does not underflow
    k, dn = _scaled_dual_norm(b, c)
    if dn == 0.0:
        return anchor
    if not dn < math.inf:  # also nan: the vertex would be nan
        raise ValueError(f"H = 0 prox step needs a direction of finite "
                         f"dual norm, got {dn}")
    return domain.center - (domain.radius / dn) * ((c / k) / b)


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


def least_squares_f(A, b, domain=None, metric=None):
    """f(x) = (1/2) ||Ax - b||_2^2 with gradient A^T (Ax - b)."""
    A, b = _check_data(A, b)
    m = len(b)

    def value(r):
        return 0.5 * np.vecdot(r, r)

    def loss(z):
        r = z - b
        return value(r), r

    # full gradient is the uniform mean over rows of m * r_i * a_i
    return _loss_objective(A, loss, lambda z: value(z - b),
                           lambda z, idx: m * (z - b[idx]), domain, metric)


def logistic_f(features, labels, domain=None, metric=None):
    """f(x) = sum_i log(1 + exp(-b_i <a_i, x>)) with labels in {-1, +1}."""
    A, b = _check_data(features, labels)
    if not np.all(np.isin(b, (-1.0, 1.0))):
        raise DataShapeError("logistic labels must be in {-1, +1}")
    m = len(b)

    def _sigmoid(z):
        # exp(-|z|) <= 1 cannot overflow; the numerator is 1 for z >= 0, else e
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0, e) / (1.0 + e)

    def value(margins):
        return np.add.reduce(np.logaddexp(0.0, -margins), axis=-1)

    def loss(z):
        margins = b * z
        return value(margins), -b * _sigmoid(-margins)

    def row_weights(z, idx):
        signs = b[idx]
        return m * (-signs * _sigmoid(-(signs * z)))

    return _loss_objective(A, loss, lambda z: value(b * z), row_weights, domain, metric)


def p_power_f(A, b, p, domain=None, metric=None):
    """f(x) = (1/m) sum_i |<a_i, x> - b_i|^p, Hoelder-smooth with nu = p - 1.

    Subgradient is (p/m) sum_i sign(r_i) |r_i|^(p-1) a_i, with the zero
    element of the subdifferential taken at kinks (r_i = 0).
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    A, b = _check_data(A, b)
    m = len(b)

    def weights(r, a):
        # a = |r|; sign(0) = 0 gives kinks the zero subgradient, also at p = 1
        return p * np.sign(r) * a ** (p - 1.0)

    def value(a):
        return np.add.reduce(a ** p, axis=-1) / m

    def loss(z):
        r = z - b
        a = np.abs(r)
        return value(a), weights(r, a) / m

    # f_eval, at one point or S lanes, divides by m after the product,
    # A.T @ loss(A x)[1] before
    def f_eval(x):
        r = _stacked(A, x) - b
        a = np.abs(r)
        f = value(a)
        return float(f) if x.ndim == 1 else f, _stacked(A.T, weights(r, a)) / m

    def row_weights(z, idx):
        r = z - b[idx]
        return weights(r, np.abs(r))

    return _loss_objective(A, loss, lambda z: value(np.abs(z - b)), row_weights,
                           domain, metric, f_eval)


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


def _stacked(M, X):
    """M @ X at one point X, else M @ x for each row x of X, with M one
    matrix or one per row.

    matmul calls gemv once per row, so each lane has the bits of M @ x;
    the gemm X @ M.T rounds differently.
    """
    if X.ndim == 1:
        return M @ X
    return np.matmul(M, X[..., None])[..., 0]


def _loss_objective(A, loss, loss_value, row_weights, domain, metric, f_eval=None):
    """The CompositeObjective of f(x) = loss(A x), lanes enabled, on the
    unit ball and Euclidean metric unless domain and metric are given.

    loss maps z = A x, or one such row per lane, to (values, w) with
    subgradient A.T @ w, and loss_value(z) to loss(z)[0]'s bits alone;
    row_weights(A[idx] @ x, idx) gives each sampled row's factor: row i's
    gradient is row_weights_i * a_i.  An f_eval given, which must take
    lanes too, replaces loss(A x) with A.T @ w.  At one point, values are
    floats.
    """
    m, n = A.shape
    A_T = A.T

    def float_loss(z):
        value, w = loss(z)
        return float(value) if z.ndim == 1 else value, w

    if f_eval is None:
        def f_eval(x):
            value, w = loss(_stacked(A, x))
            return float(value) if x.ndim == 1 else value, _stacked(A_T, w)

    def row_grad(X, IDX):
        rows = A[IDX]
        return row_weights(_stacked(rows, X), IDX)[..., None] * rows

    obj = CompositeObjective(
        f_eval=f_eval, n_rows=m, row_grad=row_grad, A=A, loss=float_loss,
        domain=BallDomain(np.zeros(n), 1.0) if domain is None else domain,
        metric=MetricSpace.euclidean(n) if metric is None else metric)
    obj._loss_value = loss_value
    return obj

