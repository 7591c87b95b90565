"""Computable optimality certificate from averaged linearizations.

Accumulating the affine minorants f(x_i) + <g_i, x - x_i> of f along a run
gives a model whose minimum over the ball, phi_star, never exceeds F*.
The gap eps_star = best_F - phi_star therefore upper-bounds the true
optimality gap of the best iterate and yields a reliable stopping rule.

certificate_update and certificate_gap validate their arguments; run_ugm
calls their kernels _fold and _phi_star directly.
"""

from dataclasses import dataclass, field

import numpy as np

from .metric import DimensionMismatchError, _dual_norm, _pairing


@dataclass
class CertificateAccumulator:
    """Running sums for the averaged-linearization model.

    Single-owner mutable state: one accumulator per solver run.
    """

    k: int = 0
    sum_g: np.ndarray = None
    sum_affine_const: float = 0.0
    best_F: float = np.inf
    best_x: np.ndarray = None


def certificate_update(acc, x_k, g_k, f_k, F_k):
    """Fold one iterate into the accumulator (in place, returns acc).

    Ties in F keep the earlier iterate.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    g_k = np.asarray(g_k, dtype=np.float64)
    if g_k.shape != x_k.shape:
        raise DimensionMismatchError(
            f"shapes {g_k.shape} and {x_k.shape} do not match"
        )
    _fold(acc, x_k, g_k, f_k)
    if F_k < acc.best_F:
        acc.best_F = F_k
        acc.best_x = x_k.copy()
    return acc


def _fold(acc, x_k, g_k, f_k):
    """Add the linearization f_k + <g_k, x - x_k> to the model sums."""
    if acc.sum_g is None:
        acc.sum_g = np.zeros_like(g_k)
    acc.k += 1
    acc.sum_g += g_k
    acc.sum_affine_const += f_k - _pairing(g_k, x_k)


def certificate_gap(acc, domain, metric):
    """Return (phi_star, eps_star) for the current accumulator.

    phi_star = min over the ball of the averaged linearization, computed in
    closed form; eps_star = best_F - phi_star >= F(best_x) - F*.
    """
    if acc.k < 1:
        raise ValueError("certificate_gap requires at least one update")
    metric.check_dim(acc.sum_g)
    metric.check_dim(domain.center)
    phi_star = _phi_star(acc, domain, metric)
    return phi_star, acc.best_F - phi_star


def _phi_star(acc, domain, metric):
    c_bar = acc.sum_g / acc.k
    kappa = acc.sum_affine_const / acc.k
    return (
        kappa
        + _pairing(c_bar, domain.center)
        - domain.radius * _dual_norm(metric.b_diag, c_bar)
    )
