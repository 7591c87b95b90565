"""Vector arithmetic under a diagonal Euclidean metric B.

The primal norm is ||x|| = <Bx, x>^(1/2), the dual norm is
||s||_* = <s, B^-1 s>^(1/2).  Only diagonal B is supported so that
projections and prox steps stay closed-form.

The public functions validate their arguments on every call and then call
a private kernel (``_norm``, ``_dual_norm``, ``_pairing``) that takes
float64 vectors as they are.  Solvers validate once at entry and call the
kernels directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    """A vector's length does not match the metric's dimension."""


@dataclass(frozen=True)
class MetricSpace:
    """Diagonal positive-definite metric on R^dim."""

    dim: int
    b_diag: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        b = np.asarray(self.b_diag, dtype=np.float64)
        if b.shape != (self.dim,):
            raise DimensionMismatchError(
                f"b_diag has shape {b.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise ValueError("b_diag entries must be strictly positive and finite")
        object.__setattr__(self, "b_diag", b)

    @classmethod
    def euclidean(cls, dim):
        """Identity metric (the default everywhere)."""
        return cls(dim, np.ones(dim))

    def check_dim(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector has shape {x.shape}, expected ({self.dim},)"
            )
        return x


def norm(space, x):
    """Primal norm sqrt(sum_i b[i] * x[i]^2)."""
    return _norm(space.b_diag, space.check_dim(x))


def dual_norm(space, s):
    """Dual norm sqrt(sum_i s[i]^2 / b[i])."""
    return _dual_norm(space.b_diag, space.check_dim(s))


def pairing(s, x):
    """Standard inner product <s, x>."""
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if s.shape != x.shape:
        raise DimensionMismatchError(
            f"shapes {s.shape} and {x.shape} do not match"
        )
    return _pairing(s, x)


# a root below this is that of a sum of squares below the normal range
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _norm(b, x):
    n = math.sqrt((b * x).dot(x))
    if n < _SQRT_TINY and np.count_nonzero(x):  # underflow: rescale by max|x_i|
        k = np.abs(x).max()
        x = x / k
        return k * math.sqrt((b * x).dot(x))
    return n


def _dual_norm(b, s):
    n = math.sqrt((s / b).dot(s))
    if n < _SQRT_TINY and np.count_nonzero(s):
        k, n = _scaled_dual_norm(b, s)
        return k * n
    return n


def _scaled_dual_norm(b, s):
    """(k, n) with ||s||_* = k * n and n = ||s / k||_*, where k is 1, or
    max|s_i| if the sum of squares of s underflows, or overflows while
    every s_i is finite."""
    with np.errstate(over="ignore"):
        n = math.sqrt((s / b).dot(s))
    if (n < _SQRT_TINY and np.count_nonzero(s)) or (
            n == math.inf and np.isfinite(s).all()):
        k = np.abs(s).max()
        s = s / k
        return k, math.sqrt((s / b).dot(s))
    return 1.0, n


def _pairing(s, x):
    return float(s.dot(x))
