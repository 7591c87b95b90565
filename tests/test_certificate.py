import numpy as np
import pytest

from helpers import linear_objective, sample_in_ball
from ugbench.certificate import CertificateAccumulator, certificate_gap, certificate_update
from ugbench.metric import (DimensionMismatchError, MetricSpace, dual_norm,
                             pairing)
from ugbench.problems import BallDomain, least_squares_f
from ugbench.solvers import run_ugm


@pytest.fixture
def ball_2d():
    return BallDomain(np.zeros(2), 1.0), MetricSpace.euclidean(2)


def test_first_update_accumulates_linearization():
    acc = CertificateAccumulator()
    x0 = np.array([0.5, -0.5])
    g0 = np.array([1.0, 2.0])
    certificate_update(acc, x0, g0, 3.0, 3.0)
    assert acc.k == 1
    np.testing.assert_array_equal(acc.sum_g, g0)
    assert acc.sum_affine_const == pytest.approx(3.0 - pairing(g0, x0))
    assert acc.best_F == 3.0
    np.testing.assert_array_equal(acc.best_x, x0)


def test_update_rejects_mismatched_shapes():
    acc = CertificateAccumulator()
    with pytest.raises(DimensionMismatchError, match=r"shapes \(3,\) and \(2,\)"):
        certificate_update(acc, [0.5, -0.5], [1.0, 2.0, 3.0], 3.0, 3.0)
    assert acc.k == 0 and acc.sum_g is None


def test_identical_points_average_to_single_linearization(ball_2d):
    domain, metric = ball_2d
    x = np.array([0.2, 0.1])
    g = np.array([-1.0, 0.5])
    single = CertificateAccumulator()
    certificate_update(single, x, g, 1.5, 1.5)
    repeated = CertificateAccumulator()
    for _ in range(7):
        certificate_update(repeated, x, g, 1.5, 1.5)
    phi1, eps1 = certificate_gap(single, domain, metric)
    phi7, eps7 = certificate_gap(repeated, domain, metric)
    assert phi7 == pytest.approx(phi1, rel=1e-14)
    assert eps7 == pytest.approx(eps1, rel=1e-14)


def test_ties_keep_earlier_iterate():
    acc = CertificateAccumulator()
    certificate_update(acc, np.array([1.0]), np.array([0.0]), 2.0, 2.0)
    certificate_update(acc, np.array([5.0]), np.array([0.0]), 2.0, 2.0)
    np.testing.assert_array_equal(acc.best_x, [1.0])


def test_gap_requires_updates(ball_2d):
    domain, metric = ball_2d
    with pytest.raises(ValueError):
        certificate_gap(CertificateAccumulator(), domain, metric)


def test_linear_objective_one_step_gap_is_exact(ball_2d):
    # linearizing a linear f is exact, so phi_star is the true minimum
    domain, metric = ball_2d
    c = np.array([3.0, -4.0])
    obj = linear_objective(c)
    x0 = np.array([0.1, 0.6])
    acc = CertificateAccumulator()
    certificate_update(acc, x0, c, obj.value(x0), obj.value(x0))
    phi_star, eps = certificate_gap(acc, domain, metric)
    true_min = -dual_norm(metric, c) * domain.radius
    assert phi_star == pytest.approx(true_min, rel=1e-14)
    assert eps == pytest.approx(obj.value(x0) - true_min, rel=1e-14)


def test_quadratic_single_iterate_matches_grid_minimization(ball_2d):
    # f = 1/2 ||x - a||^2 with a outside the ball; iterate at the optimum
    domain, metric = ball_2d
    a = np.array([2.0, 1.0])
    x_star = a / np.linalg.norm(a)
    g = x_star - a
    f_star = 0.5 * float(np.dot(g, g))
    acc = CertificateAccumulator()
    certificate_update(acc, x_star, g, f_star, f_star)
    phi_star, eps = certificate_gap(acc, domain, metric)

    # 2-D grid oracle for min of Phi_1 over the ball
    ts = np.linspace(-1.0, 1.0, 2001)
    X, Y = np.meshgrid(ts, ts)
    inside = X**2 + Y**2 <= 1.0
    phi_vals = (f_star + g[0] * (X - x_star[0]) + g[1] * (Y - x_star[1]))
    grid_min = float(np.min(phi_vals[inside]))
    assert phi_star == pytest.approx(grid_min, abs=2e-3)
    assert eps == pytest.approx(f_star - grid_min, abs=2e-3)
    assert eps >= -1e-9


def test_accumulator_equals_direct_sums_on_recorded_run():
    rng = np.random.Generator(np.random.Philox(21))
    A = rng.random((15, 6))
    obj = least_squares_f(A, rng.random(15))
    points = []
    acc = CertificateAccumulator()
    x = sample_in_ball(obj.domain, obj.metric, rng)
    for _ in range(10):
        f, g = obj.f_eval(x)
        certificate_update(acc, x, g, f, f)
        points.append((x.copy(), g.copy(), f))
        x = sample_in_ball(obj.domain, obj.metric, rng)
    np.testing.assert_allclose(acc.sum_g, sum(g for _, g, _ in points), rtol=1e-12)
    assert acc.sum_affine_const == pytest.approx(
        sum(f - pairing(g, x) for x, g, f in points), rel=1e-12
    )
    assert acc.best_F == min(f for _, _, f in points)


def test_soundness_phi_below_all_ball_values():
    rng = np.random.Generator(np.random.Philox(22))
    A = rng.random((12, 5))
    obj = least_squares_f(A, rng.random(12))
    _, trace = run_ugm(obj, max_iters=30)
    acc = CertificateAccumulator()
    x = np.array(obj.domain.center)
    for _ in range(30):
        f, g = obj.f_eval(x)
        certificate_update(acc, x, g, f, f)
        x = sample_in_ball(obj.domain, obj.metric, rng)
    phi_star, eps = certificate_gap(acc, obj.domain, obj.metric)
    assert eps >= -1e-9
    for _ in range(100):
        pt = sample_in_ball(obj.domain, obj.metric, rng)
        assert phi_star <= obj.value(pt) + 1e-9
