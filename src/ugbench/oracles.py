"""Stochastic gradient oracles: exact, additive Gaussian, mini-batch.

All oracles are unbiased.  Randomness comes from a Philox generator seeded
by OracleConfig.seed; each solver run owns its own generator, and the
randomness for a draw is consumed strictly after the query point is fixed.
The generator is sequential: draw i is reproduced by a new oracle with the
same seed replaying draws 0..i-1 at the same points first, not from
(seed, draw_index) alone.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradientSample:
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
    g = obj.subgradient(x)
    if cfg.sigma == 0.0:
        return g
    dim = obj.metric.dim
    scale = cfg.sigma * np.sqrt(obj.metric.b_diag / dim)
    return g + scale * rng.standard_normal(dim)


def minibatch_oracle(obj, x, cfg, rng):
    """Average row gradient over batch_size rows sampled with replacement."""
    if obj.row_grad is None or obj.n_rows is None:
        raise ValueError("objective does not decompose into per-row losses")
    if cfg.batch_size > obj.n_rows:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds {obj.n_rows} dataset rows"
        )
    if cfg.full_batch:
        idx = np.arange(obj.n_rows)
    else:
        idx = rng.integers(0, obj.n_rows, size=cfg.batch_size)
    return obj.row_grad(np.asarray(x, dtype=np.float64), idx).mean(axis=0)


class Oracle:
    """Stateful wrapper handing out GradientSamples for one solver run."""

    def __init__(self, obj, cfg=None):
        self.obj = obj
        self.cfg = cfg if cfg is not None else OracleConfig()
        self.rng = make_rng(self.cfg.seed)
        self.calls = 0

    @property
    def is_exact(self):
        return self.cfg.kind == "exact" or (
            self.cfg.kind == "gaussian" and self.cfg.sigma == 0.0
        )

    def draw(self, x):
        if self.cfg.kind == "exact":
            g = exact_oracle(self.obj, x)
        elif self.cfg.kind == "gaussian":
            g = gaussian_oracle(self.obj, x, self.cfg, self.rng)
        else:
            g = minibatch_oracle(self.obj, x, self.cfg, self.rng)
        sample = GradientSample(g=g, draw_index=self.calls)
        self.calls += 1
        return sample
