"""Stochastic gradient oracles: exact, additive Gaussian, mini-batch.

All oracles are unbiased.  The exact oracle returns the full gradient; a
mini-batch averages batch_size rows drawn with replacement.  Randomness
comes from a Philox generator seeded by OracleConfig.seed; each solver run
owns its own generator, and the randomness for a draw is consumed strictly
after the query point is fixed.
The generator is sequential: draw i is reproduced by a new oracle with the
same seed replaying draws 0..i-1 at the same points first, not from the
seed and i alone.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class OracleConfig:
    kind: str = "exact"  # exact | gaussian | minibatch
    sigma: float = 0.0
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        """The one check of the ranges an oracle can sample from."""
        if self.kind not in ("exact", "gaussian", "minibatch"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        # written so that nan fails it; a nan or infinite sigma draws
        # non-finite noise
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        for name, low in (("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                ok = operator.index(value) >= low
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")

    @property
    def is_exact(self):
        """The one exactness rule: a Gaussian of sigma 0 draws no noise."""
        return self.kind == "exact" or (self.kind == "gaussian" and self.sigma == 0.0)


def make_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _noise_scale(metric, sigma):
    """Per-coordinate std of Gaussian noise with E||delta||_*^2 = sigma^2."""
    return sigma * np.sqrt(metric.b_diag / metric.dim)


class _LaneOracle:
    """Oracle's draw and calls over lanes: draw(X) returns the S x n
    gradients that oracles[s] would draw at X[s], bit for bit, from
    f_eval and row_grad, and records lane 0's where oracles[0].grads does.

    obj must be a built-in objective (obj._lanes), and the oracles built-in
    ones on it, of one configuration apart from the seed.  Each lane draws
    from its own oracle's generator, so the noise is that of one-seed runs.
    """

    def __init__(self, obj, oracles):
        cfg = replace(oracles[0].cfg, seed=0)
        if not obj._lanes or any(type(o) is not Oracle or o.obj is not obj
                                 or replace(o.cfg, seed=0) != cfg
                                 for o in oracles):
            raise ValueError("lanes need built-in oracles of one kind on a "
                             "built-in objective")
        self.grads, self.calls = oracles[0].grads, 0
        n_rows, batch_size = obj.n_rows, cfg.batch_size
        if cfg.is_exact:
            self._sample = lambda X: obj.f_eval(X)[1]
        elif cfg.kind == "gaussian":
            scale = _noise_scale(obj.metric, cfg.sigma)
            normals = [o.rng.standard_normal for o in oracles]

            def sample(X):
                noise = np.empty_like(X)
                for normal, row in zip(normals, noise):
                    normal(out=row)
                return obj.f_eval(X)[1] + scale * noise
            self._sample = sample
        else:
            draws = [o.rng.integers for o in oracles]
            self._sample = lambda X: np.add.reduce(obj.row_grad(X, np.array([
                integers(0, n_rows, size=batch_size) for integers in draws])),
                axis=1) / batch_size

    def draw(self, X):
        G = self._sample(X)
        if self.grads is not None:
            self.grads.append(G[0].copy())
        self.calls += 1
        return G


class Oracle:
    """Stateful sampler for one solver run: draw(x) returns a gradient
    sample at x and calls counts the draws made.  grads, if set to a list,
    receives each gradient draw returns; a draw that raises is neither
    recorded nor counted.

    The sampler for cfg.kind is checked and bound once, here, with the
    objective's f_eval and row_grad looked up at each draw; draw takes a
    float64 vector as the solvers pass it.
    """

    def __init__(self, obj, cfg=None):
        self.obj = obj
        self.cfg = cfg = cfg if cfg is not None else OracleConfig()
        # an exact oracle (sigma 0 too) never draws, so it seeds no generator
        self.rng = None if cfg.is_exact else make_rng(cfg.seed)
        self.calls, self.grads = 0, None
        if cfg.is_exact:
            self._sample = lambda x: obj.f_eval(x)[1]
        elif cfg.kind == "gaussian":
            dim, normal = obj.metric.dim, self.rng.standard_normal
            scale = _noise_scale(obj.metric, cfg.sigma)
            self._sample = lambda x: obj.f_eval(x)[1] + scale * normal(dim)
        else:
            if obj.row_grad is None or obj.n_rows is None:
                raise ValueError(
                    "objective does not decompose into per-row losses")
            n_rows, batch_size = obj.n_rows, cfg.batch_size
            if batch_size > n_rows:
                raise ValueError(
                    f"batch_size {batch_size} exceeds {n_rows} dataset rows")
            # np.add.reduce(G, axis=0) / B is G.mean(axis=0) without its
            # wrapper; the rows are drawn with replacement
            integers = self.rng.integers
            self._sample = lambda x: np.add.reduce(obj.row_grad(
                x, integers(0, n_rows, size=batch_size)), axis=0) / batch_size

    @property
    def is_exact(self):
        return self.cfg.is_exact

    def draw(self, x):
        g = self._sample(x)
        if self.grads is not None:
            self.grads.append(g)
        self.calls += 1
        return g
