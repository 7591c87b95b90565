"""Property tests of the solver and loss kernels.

Each solver kernel gives the bits of its public helper.  The public
helpers validate and then call the kernel, so the kernels are also checked
against the numpy formulas they replaced (np.dot, np.sqrt), over random
vectors, extreme metric diagonals and balls off the origin; below the
normal range, where the norms rescale, against exact fractions.  The loss
kernels and the minibatch mean are checked bitwise against the masked
formulas and the .mean(axis=0) they replaced, kept here as references.
The balance equation and the certificate bound phi* <= F(x) are checked
as the paper states them.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sample_in_ball
from ugbench.certificate import (
    CertificateAccumulator,
    _fold,
    _phi_star,
    certificate_gap,
    certificate_update,
)
from ugbench.metric import (
    MetricSpace,
    _dual_norm,
    _norm,
    _pairing,
    _scaled_dual_norm,
    dual_norm,
    norm,
    pairing,
)
from ugbench.oracles import Oracle, OracleConfig, make_rng
from ugbench.problems import (
    BallDomain,
    _project_ball,
    _prox_step,
    least_squares_f,
    logistic_f,
    p_power_f,
    project_ball,
    prox_step,
)
from ugbench.solvers import balance_update

SETTINGS = settings(max_examples=150, deadline=None)
TINY = np.finfo(float).tiny  # the smallest normal float

coord = st.floats(-1e3, 1e3, allow_nan=False)
# metric diagonals spanning twelve orders of magnitude
weight = st.floats(1e-6, 1e6, allow_nan=False)


@st.composite
def space_and_vectors(draw, n_vectors=2):
    dim = draw(st.integers(1, 8))
    b = np.array(draw(st.lists(weight, min_size=dim, max_size=dim)))
    vectors = [np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
               for _ in range(n_vectors)]
    return MetricSpace(dim, b), vectors


@st.composite
def ball_problem(draw):
    """(metric, domain, c, anchor, H) with the anchor inside the ball."""
    space, (center, direction, c) = draw(space_and_vectors(n_vectors=3))
    radius = draw(st.floats(1e-3, 1e3))
    domain = BallDomain(center, radius)
    # direction / max |entry| first: the norm of a subnormal direction is
    # inexact, and radius / norm could overflow and put the anchor at inf
    peak = np.abs(direction).max()
    direction = direction / peak if peak > 0 else direction
    length = norm(space, direction)
    scale = draw(st.floats(0.0, 1.0)) * radius / length if length > 0 else 0.0
    anchor = domain.center + scale * direction
    H = draw(st.one_of(st.just(0.0), st.floats(1e-8, 1e8)))
    return space, domain, c, anchor, H


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_in_ball(x, domain, space):
    # x is stored in absolute coordinates, so each entry carries a rounding
    # error of up to half an ulp of max(|center_i|, |x_i|); off the origin
    # that can exceed a relative slack on a small radius
    rounding = 4.0 * np.finfo(float).eps * norm(
        space, np.maximum(np.abs(domain.center), np.abs(x)))
    assert norm(space, x - domain.center) <= domain.radius * (1.0 + 1e-12) + rounding


@SETTINGS
@given(space_and_vectors())
def test_norm_kernels(sv):
    space, (x, s) = sv
    b = space.b_diag
    assert same_bits(_norm(b, x), norm(space, list(x)))
    assert same_bits(_dual_norm(b, s), dual_norm(space, list(s)))
    # the plain formulas' bits where the sum of squares is normal; below,
    # the kernels rescale (test_norm_kernels_below_normal_range)
    if np.dot(b * x, x) >= TINY:
        assert same_bits(_norm(b, x), float(np.sqrt(np.dot(b * x, x))))
    if np.dot(s / b, s) >= TINY:
        assert same_bits(_dual_norm(b, s), float(np.sqrt(np.dot(s / b, s))))
    assert same_bits(_pairing(s, x), pairing(list(s), list(x)))
    assert same_bits(_pairing(s, x), float(np.dot(s, x)))


def near_root(got, square, rel, delta):
    """|got - sqrt(square)| <= rel * sqrt(square) + delta, exactly."""
    got = Fraction(got)
    high, low = got - delta, got + delta
    return ((high <= 0 or high * high <= (1 + rel) ** 2 * square)
            and low * low >= (1 - rel) ** 2 * square)


@SETTINGS
@given(space_and_vectors(), st.integers(-1100, 0))
def test_norm_kernels_below_normal_range(sv, k):
    # where the plain sum of squares is below the normal range, each norm
    # is within 4 eps (relative) of the exact root, plus one subnormal step
    # for a subnormal result; the rescaled formula errs by < 2 eps in
    # practice at these dimensions
    space, (x, s) = sv
    b = space.b_diag
    x, s = np.ldexp(x, k), np.ldexp(s, k)
    rel = 4 * Fraction(np.finfo(float).eps)
    delta = Fraction(np.finfo(float).smallest_subnormal)
    weights = [Fraction(w) for w in b]
    if np.dot(b * x, x) < TINY:
        exact = sum(w * Fraction(v) ** 2 for w, v in zip(weights, x))
        assert near_root(_norm(b, x), exact, rel, delta)
    if np.dot(s / b, s) < TINY:
        exact = sum(Fraction(v) ** 2 / w for w, v in zip(weights, s))
        assert near_root(_dual_norm(b, s), exact, rel, delta)


@SETTINGS
@given(space_and_vectors(n_vectors=1), st.integers(-1100, 0))
def test_scaled_dual_norm_survives_underflow(sv, k):
    space, (s,) = sv
    b = space.b_diag
    s = np.ldexp(s, k)
    k, n = _scaled_dual_norm(b, s)
    dn = k * n
    if _dual_norm(b, s) >= math.sqrt(np.finfo(float).tiny):
        assert k == 1.0 and same_bits(n, _dual_norm(b, s))
    # dn ** 2 against the exact sum of squares; a subnormal dn carries an
    # absolute error of up to one subnormal step, delta
    exact = sum(Fraction(x) ** 2 / Fraction(w) for x, w in zip(s, b))
    delta = Fraction(np.finfo(float).smallest_subnormal)
    tol = Fraction(1e-14) * exact + (2 * Fraction(dn) + delta) * delta
    assert abs(Fraction(dn) ** 2 - exact) <= tol


@SETTINGS
@given(ball_problem())
def test_prox_kernel(problem):
    space, domain, c, anchor, H = problem
    x = _prox_step(c, anchor, H, domain, space)
    assert same_bits(x, prox_step(list(c), list(anchor), H, domain, space))
    assert_in_ball(x, domain, space)


@SETTINGS
@given(ball_problem())
def test_projection_kernel(problem):
    space, domain, c, anchor, _ = problem
    point = anchor + c
    x = _project_ball(point, domain, space)
    assert same_bits(x, project_ball(list(point), domain, space))
    assert_in_ball(x, domain, space)


@SETTINGS
@given(ball_problem(), st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
def test_certificate_kernels(problem, steps):
    space, domain, c, anchor, _ = problem
    validated, bare = CertificateAccumulator(), CertificateAccumulator()
    for f, shift in steps:
        g = c + shift
        certificate_update(validated, list(anchor), list(g), f, f)
        _fold(bare, anchor, g, f)
    phi_star, gap = certificate_gap(validated, domain, space)
    assert same_bits(_phi_star(bare, domain, space), phi_star)
    assert same_bits(bare.sum_g, validated.sum_g)
    assert bare.sum_affine_const == validated.sum_affine_const
    assert math.isfinite(gap)


# References: the masked kernels and the mean that the mask-free ones replaced.

def masked_p_power_weights(r, p):
    w = np.zeros_like(r)
    nz = r != 0.0
    w[nz] = p * np.sign(r[nz]) * np.abs(r[nz]) ** (p - 1.0)
    return w


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# exact kinks and signed zeros, subnormals, and |z| up to where exp(-|z|)
# underflows to 0
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                           744.0, -744.0, 745.0, -745.0, 746.0, -746.0])
entry = st.one_of(special, st.floats(-750.0, 750.0))
exponent = st.one_of(st.sampled_from([1.0, 1.5, 2.0]), st.floats(1.0, 2.0))


@st.composite
def loss_data(draw):
    """(A, b, z, x, kinks): b_i = z_i on the kink rows and 0 elsewhere."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    z = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
    kinks = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    A = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                               min_size=m, max_size=m)))
    x = np.array(draw(st.lists(st.one_of(special, coord), min_size=n, max_size=n)))
    return A, np.where(kinks, z, 0.0), z, x, kinks


@SETTINGS
@given(loss_data(), exponent)
def test_p_power_kernels_match_masked_weights(data, p):
    A, b, z, x, kinks = data
    m = len(b)
    with np.errstate(over="ignore", invalid="ignore"):
        r = z - b
        value, w = p_power_f(A, b, p).loss(z)
        assert same_bits(value, float(np.sum(np.abs(r) ** p)) / m)
        assert same_bits(w, masked_p_power_weights(r, p) / m)
        # f_eval and row_grad at x, with kinks where b_i = <a_i, x>
        b = np.where(kinks, A @ x, b)
        obj = p_power_f(A, b, p)
        r = A @ x - b
        value, g = obj.f_eval(x)
        assert same_bits(value, float(np.sum(np.abs(r) ** p)) / m)
        assert same_bits(g, A.T @ masked_p_power_weights(r, p) / m)
        idx = np.arange(m)[::-1]
        assert same_bits(obj.row_grad(x, idx),
                         masked_p_power_weights(A[idx] @ x - b[idx], p)[:, None]
                         * A[idx])


@SETTINGS
@given(loss_data(), st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8))
def test_logistic_kernels_match_masked_sigmoid(data, signs):
    A, _, z, x, _ = data
    m = len(z)
    labels = np.array(signs[:m])
    obj = logistic_f(A, labels)
    with np.errstate(over="ignore", invalid="ignore"):
        margins = labels * z
        value, w = obj.loss(z)
        assert same_bits(value, float(np.sum(np.logaddexp(0.0, -margins))))
        assert same_bits(w, -labels * masked_sigmoid(-margins))
        idx = np.arange(m)[::-1]
        margins = labels[idx] * (A[idx] @ x)
        assert same_bits(obj.row_grad(x, idx),
                         m * (-labels[idx] * masked_sigmoid(-margins))[:, None]
                         * A[idx])


@SETTINGS
@given(loss_data(), st.integers(1, 8), st.integers(0, 2**32))
def test_minibatch_mean_matches_mean(data, batch_size, seed):
    A, b, _, x, _ = data
    m = len(b)
    obj = least_squares_f(A, b)
    cfg = OracleConfig(kind="minibatch", batch_size=min(batch_size, m),
                       seed=seed)
    oracle = Oracle(obj, cfg)
    rng = make_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            rows = rng.integers(0, m, size=cfg.batch_size)
            assert same_bits(oracle.draw(x),
                             obj.row_grad(x, rows).mean(axis=0))


@SETTINGS
@given(loss_data(), st.data(), st.floats(0.0, 1e3, exclude_min=True),
       st.integers(0, 2**32))
def test_gaussian_draw_matches_its_formula(data, extra, sigma, seed):
    A, b, _, x, _ = data
    n = len(x)
    # per-coordinate noise sqrt(b / n) * sigma: under a non-Euclidean metric
    b_diag = np.array(extra.draw(st.lists(weight, min_size=n, max_size=n)))
    obj = least_squares_f(A, b, metric=MetricSpace(n, b_diag))
    oracle = Oracle(obj, OracleConfig(kind="gaussian", sigma=sigma, seed=seed))
    rng = make_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            assert same_bits(oracle.draw(x), obj.f_eval(x)[1] + sigma * np.sqrt(
                b_diag / n) * rng.standard_normal(n))


def test_exact_oracle_holds_no_generator():
    obj = least_squares_f(np.eye(2), np.ones(2))
    assert Oracle(obj).rng is None
    assert Oracle(obj, OracleConfig(kind="gaussian", sigma=0.0)).rng is None
    assert Oracle(obj, OracleConfig(kind="gaussian", sigma=1.0)).rng is not None


nonneg = st.floats(0.0, 1e8)


@SETTINGS
@given(nonneg, st.floats(-1e8, 1e8), nonneg, st.floats(1e-8, 1e8))
def test_balance_equation_identity(H, beta, rho, omega):
    H_next = balance_update(H, beta, rho, omega)
    assert H_next >= H
    lhs = (H_next - H) * omega
    rhs = max(beta - H_next * rho, 0.0)
    # both sides are a few roundings away from exact; below the normal
    # range H_next carries an absolute error of up to one subnormal step
    scale = H_next * (omega + rho) + abs(beta)
    tiny = np.finfo(float).smallest_subnormal * (1.0 + omega)
    assert abs(lhs - rhs) <= 8 * np.finfo(float).eps * scale + tiny


@st.composite
def convex_objective(draw):
    """A built-in convex objective over a ball with an extreme metric."""
    space, (center,) = draw(space_and_vectors(n_vectors=1))
    dim = space.dim
    domain = BallDomain(center, draw(st.floats(1e-3, 1e3)))
    m = draw(st.integers(1, 6))
    A = np.array(draw(st.lists(st.lists(st.floats(-10, 10), min_size=dim,
                                        max_size=dim), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(st.floats(-10, 10), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["ls", "logistic", "ppower"]))
    if kind == "ls":
        return least_squares_f(A, b, domain, space)
    if kind == "logistic":
        return logistic_f(A, np.where(b >= 0, 1.0, -1.0), domain, space)
    return p_power_f(A, b, draw(exponent), domain, space)


@SETTINGS
@given(convex_objective(), st.integers(1, 6), st.integers(0, 2**32))
def test_certificate_lower_bounds_F(obj, n_points, seed):
    rng = np.random.default_rng(seed)
    acc = CertificateAccumulator()
    # magnitude of the terms phi* sums before they cancel; each is exact up
    # to a few roundings
    scale = 0.0
    for x_i in sample_in_ball(obj.domain, obj.metric, rng, size=n_points):
        f_i, g_i = obj.f_eval(x_i)
        certificate_update(acc, x_i, g_i, f_i, f_i)
        scale += (abs(f_i) + abs(pairing(g_i, x_i))) / n_points
    phi_star, _ = certificate_gap(acc, obj.domain, obj.metric)
    c_bar = acc.sum_g / acc.k
    scale += (abs(pairing(c_bar, obj.domain.center))
              + obj.domain.radius * dual_norm(obj.metric, c_bar))
    # below the normal range roundings are absolute, up to the smallest normal
    tiny = np.finfo(float).tiny
    for x in sample_in_ball(obj.domain, obj.metric, rng, size=5):
        F = obj.value(x)
        assert phi_star <= F + 1e-12 * (scale + abs(F)) + tiny


def test_certificate_sound_for_tiny_gradients():
    # g * g underflows to 0: the dual norm of the model's slope read 0, and
    # phi* = kappa exceeded F at every point (F* = 0 at x = 1)
    a = 4.67621884e-88
    obj = least_squares_f(np.array([[a]]), np.array([a]))
    acc = CertificateAccumulator()
    x = np.array([0.25])
    f, g = obj.f_eval(x)
    certificate_update(acc, x, g, f, f)
    phi_star, _ = certificate_gap(acc, obj.domain, obj.metric)
    assert phi_star <= obj.value(np.ones(1)) == 0.0
    assert same_bits(phi_star, f - g[0] * x[0] - abs(g[0]))
