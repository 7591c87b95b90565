"""Independent numerical oracles used to derive expected test values."""

import numpy as np

from ugbench.metric import MetricSpace
from ugbench.problems import BallDomain, CompositeObjective


def finite_diff_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def power_iteration_spectral_norm(M, iters=2000, seed=0):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return lam


def grid_max_concave(fn, lo, hi, n_coarse=20000, n_fine=200001):
    """Two-stage grid maximization of a unimodal function on [lo, hi]."""
    r = np.linspace(lo, hi, n_coarse)
    vals = fn(r)
    i = int(np.argmax(vals))
    a = r[max(i - 1, 0)]
    b = r[min(i + 1, n_coarse - 1)]
    rf = np.linspace(a, b, n_fine)
    return float(np.max(fn(rf)))


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


def linear_objective(c, radius=1.0, center=None):
    """f(x) = <c, x> on a ball, for LMO/certificate sanity checks."""
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    metric = MetricSpace.euclidean(n)
    domain = BallDomain(np.zeros(n) if center is None else center, radius)

    def f_eval(x):
        return float(c @ x), c.copy()

    return CompositeObjective(f_eval=f_eval, domain=domain, metric=metric)


class RecordingOracle:
    """Wraps an oracle and logs every returned gradient."""

    def __init__(self, inner):
        self.inner = inner
        self.gs = []

    @property
    def calls(self):
        return self.inner.calls

    @property
    def is_exact(self):
        return self.inner.is_exact

    def draw(self, x):
        g = self.inner.draw(x)
        self.gs.append(np.array(g))
        return g


class CountingMatrix(np.ndarray):
    """A float matrix that counts its products, its transpose's included.

    Views such as ``.T`` share the counter; products are returned as plain
    arrays, so only products with the matrix itself are counted.
    """

    def __new__(cls, A):
        obj = np.asarray(A, dtype=np.float64).view(cls)
        obj.products = [0]
        return obj

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", [0])

    def __matmul__(self, other):
        self.products[0] += 1
        return np.asarray(np.ndarray.__matmul__(self, other))

    @property
    def count(self):
        return self.products[0]
