"""Stochastic gradient oracles: exact, additive Gaussian, mini-batch.

All oracles are unbiased.  The exact oracle returns the full gradient; a
mini-batch averages batch_size rows drawn with replacement.  Randomness
comes from a Philox generator seeded by OracleConfig.seed; each solver run
owns its own generator, read in blocks of about 1024 values.  Draw i of a
seed takes the i-th row of its stream, whatever the points: the inputs
that one generator call per draw would give.  Each kind has one formula,
for a point and for S seeds run as lanes, each lane's inputs from its own
generator.
"""

import math
import operator
from copy import copy
from dataclasses import dataclass, replace
from functools import partial

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


def _rows(sample, width):
    size = (max(1, 1024 // width), width)
    while True:
        yield from sample(size=size)


class Oracle:
    """Stateful sampler for one solver run: draw(x) returns a gradient
    sample at x and calls counts the draws made.  grads, if set to a list,
    receives each gradient draw returns; a draw that raises is neither
    recorded nor counted.

    Each kind is bound once, here, in two parts: the draw's random inputs
    (none, or the next row of dim standard normals or of batch_size row
    indices), and one formula that turns x, a float64 vector or the S x n
    rows of a lane view (_lane_view), and those inputs into gradients,
    looking up f_eval and row_grad at each draw.  _rows reads the rows from
    this oracle's generator in blocks of K = max(1, 1024 // width) rows per
    call; Philox's normal and bounded-integer streams do not depend on how
    calls chunk them, so draw i of a seed takes the i-th row of its stream,
    bit for bit, whatever the points.  A draw takes its inputs first, so
    one whose formula raises still uses up its row.
    """

    def __init__(self, obj, cfg=None):
        self.obj = obj
        self.cfg = cfg = cfg if cfg is not None else OracleConfig()
        # an exact oracle (sigma 0 too) never draws, so it seeds no generator
        self.rng = None if cfg.is_exact else make_rng(cfg.seed)
        self.calls, self.grads = 0, None
        if cfg.is_exact:
            self._inputs = lambda: None
            self._formula = lambda x, _: obj.f_eval(x)[1]
        elif cfg.kind == "gaussian":
            # per-coordinate std of noise with E||delta||_*^2 = sigma^2
            scale = cfg.sigma * np.sqrt(obj.metric.b_diag / obj.metric.dim)
            self._inputs = partial(next, _rows(self.rng.standard_normal,
                                               obj.metric.dim))
            self._formula = lambda x, noise: obj.f_eval(x)[1] + scale * noise
        else:
            if obj.row_grad is None or obj.n_rows is None:
                raise ValueError(
                    "objective does not decompose into per-row losses")
            n_rows, batch_size = obj.n_rows, cfg.batch_size
            if batch_size > n_rows:
                raise ValueError(
                    f"batch_size {batch_size} exceeds {n_rows} dataset rows")
            # rows drawn with replacement; np.add.reduce(G, axis=-2) / B is
            # G.mean over a point's or each lane's batch, without its wrapper
            self._inputs = partial(next, _rows(
                partial(self.rng.integers, 0, n_rows), batch_size))
            self._formula = lambda x, rows: np.add.reduce(
                obj.row_grad(x, rows), axis=-2) / batch_size

    @property
    def is_exact(self):
        return self.cfg.is_exact

    def draw(self, x):
        g = self._formula(x, self._inputs())
        if self.grads is not None:
            self.grads.append(g if x.ndim == 1 else g[0].copy())
        self.calls += 1
        return g


def _lane_view(obj, oracles):
    """oracles[0] over lanes: draw(X) returns the S x n gradients that
    oracles[s] would draw at X[s], bit for bit, by its formula on every
    oracle's inputs; its lanes, S, makes a solver start from S rows.  It
    counts calls from 0 and records lane 0's draws where oracles[0].grads
    does.  obj must be a built-in objective (_loss_value set), and the
    oracles noisy built-in ones on it, of one configuration but the seed."""
    first = oracles[0]
    if first.is_exact or obj._loss_value is None or any(
            type(o) is not Oracle or o.obj is not obj
            or replace(o.cfg, seed=first.cfg.seed) != first.cfg for o in oracles):
        raise ValueError("lanes need built-in oracles of one noisy kind on a "
                         "built-in objective")
    view = copy(first)
    view.calls, view.lanes = 0, len(oracles)
    inputs = [o._inputs for o in oracles]
    view._inputs = lambda: np.array([draw() for draw in inputs])
    return view
