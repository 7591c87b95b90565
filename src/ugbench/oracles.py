"""Stochastic gradient oracles: exact, additive Gaussian, mini-batch.

All oracles are unbiased.  Randomness comes from a Philox generator seeded
by OracleConfig.seed; each solver run owns its own generator, and the
randomness for a draw is consumed strictly after the query point is fixed.
The generator is sequential: draw i is reproduced by a new oracle with the
same seed replaying draws 0..i-1 at the same points first, not from
(seed, draw_index) alone.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GradientSample(NamedTuple):
    g: np.ndarray
    draw_index: int


@dataclass(frozen=True)
class OracleConfig:
    kind: str = "exact"  # exact | gaussian | minibatch
    sigma: float = 0.0
    batch_size: int = 1
    seed: int = 0
    full_batch: bool = False

    def __post_init__(self):
        if self.kind not in ("exact", "gaussian", "minibatch"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


def make_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def exact_oracle(obj, x):
    """Deterministic pass-through to the objective's subgradient."""
    return obj.subgradient(x)


def gaussian_oracle(obj, x, cfg, rng):
    """Exact subgradient plus Gaussian noise with E||delta||_*^2 = sigma^2.

    Under diagonal B the per-coordinate std is sigma * sqrt(b[i] / dim).
    """
    sample = _gaussian_sampler(obj, cfg.sigma, rng)
    return sample(np.asarray(x, dtype=np.float64))


def minibatch_oracle(obj, x, cfg, rng):
    """Average row gradient over batch_size rows sampled with replacement."""
    sample = _minibatch_sampler(obj, cfg, rng)
    return sample(np.asarray(x, dtype=np.float64))


# Samplers: x -> gradient sample, with the objective's callables looked up
# at each call and everything else checked and computed once, when bound.

def _exact_sampler(obj):
    return lambda x: obj.f_eval(x)[1]


def _gaussian_sampler(obj, sigma, rng):
    if sigma == 0.0:
        return _exact_sampler(obj)
    dim = obj.metric.dim
    scale = sigma * np.sqrt(obj.metric.b_diag / dim)
    normal = rng.standard_normal
    return lambda x: obj.f_eval(x)[1] + scale * normal(dim)


def _minibatch_sampler(obj, cfg, rng):
    if obj.row_grad is None or obj.n_rows is None:
        raise ValueError("objective does not decompose into per-row losses")
    if cfg.batch_size > obj.n_rows:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds {obj.n_rows} dataset rows"
        )
    n_rows, batch_size = obj.n_rows, cfg.batch_size
    if cfg.full_batch:
        rows = np.arange(n_rows)
        return lambda x: obj.row_grad(x, rows).mean(axis=0)
    integers = rng.integers
    return lambda x: obj.row_grad(
        x, integers(0, n_rows, size=batch_size)).mean(axis=0)


class Oracle:
    """Stateful wrapper handing out GradientSamples for one solver run.

    The sampler for cfg.kind is checked and bound once, here; draw takes
    a float64 vector as the solvers pass it.
    """

    def __init__(self, obj, cfg=None):
        self.obj = obj
        self.cfg = cfg if cfg is not None else OracleConfig()
        self.rng = make_rng(self.cfg.seed)
        self.calls = 0
        kind = self.cfg.kind
        if kind == "exact":
            self._sample = _exact_sampler(obj)
        elif kind == "gaussian":
            self._sample = _gaussian_sampler(obj, self.cfg.sigma, self.rng)
        else:
            self._sample = _minibatch_sampler(obj, self.cfg, self.rng)

    @property
    def is_exact(self):
        return self.cfg.kind == "exact" or (
            self.cfg.kind == "gaussian" and self.cfg.sigma == 0.0
        )

    def draw(self, x):
        sample = GradientSample(self._sample(x), self.calls)
        self.calls += 1
        return sample
