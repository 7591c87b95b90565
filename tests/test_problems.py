import math

import numpy as np
import pytest

from helpers import CountingMatrix, finite_diff_grad, power_iteration_spectral_norm
from ugbench.metric import MetricSpace, dual_norm, norm, pairing
from ugbench.problems import (
    BallDomain,
    DataShapeError,
    InfeasibleAnchorError,
    estimate_holder_constant,
    least_squares_f,
    logistic_f,
    p_power_f,
    project_ball,
    prox_step,
    sample_in_ball,
)
from ugbench.solvers import run_ugm, run_usfgm


@pytest.fixture
def unit_ball_2d():
    return BallDomain(np.zeros(2), 1.0), MetricSpace.euclidean(2)


class TestProxStep:
    def test_projects_unconstrained_minimizer_to_boundary(self, unit_ball_2d):
        # unconstrained minimizer of <c,x> + 1/2 ||x||^2 is (-2, 0), outside
        domain, metric = unit_ball_2d
        x = prox_step([2.0, 0.0], np.zeros(2), 1.0, domain, metric)
        np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-12)

    def test_zero_linear_term_returns_anchor(self, unit_ball_2d):
        domain, metric = unit_ball_2d
        anchor = np.array([0.3, -0.2])
        for H in (0.0, 0.5, 7.0):
            np.testing.assert_array_equal(
                prox_step(np.zeros(2), anchor, H, domain, metric), anchor
            )

    def test_h_zero_is_linear_minimization(self, unit_ball_2d):
        domain, metric = unit_ball_2d
        x = prox_step([0.0, 3.0], np.zeros(2), 0.0, domain, metric)
        np.testing.assert_allclose(x, [0.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("tiny", [1e-158, 1e-170, 5e-324])
    def test_h_zero_vertex_for_tiny_gradient(self, unit_ball_2d, tiny):
        # ||c||_* used to underflow: a vertex outside the ball, or the anchor
        domain, metric = unit_ball_2d
        x = prox_step([tiny, 0.0], [0.5, 0.0], 0.0, domain, metric)
        np.testing.assert_array_equal(x, [-1.0, 0.0])

    @pytest.mark.parametrize("huge", [1e155, 1e200, 1.7e308])
    def test_h_zero_vertex_for_huge_gradient(self, unit_ball_2d, huge):
        # ||c||_* used to overflow to inf, and the prox raised
        domain, metric = unit_ball_2d
        x = prox_step([huge, 0.0], [0.0, 0.0], 0.0, domain, metric)
        np.testing.assert_array_equal(x, [-1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_h_zero_rejects_non_finite_gradient(self, unit_ball_2d, bad):
        domain, metric = unit_ball_2d
        with pytest.raises(ValueError, match="direction of finite dual norm"):
            prox_step([bad, 1e200], [0.0, 0.0], 0.0, domain, metric)

    def test_infeasible_anchor_rejected(self, unit_ball_2d):
        domain, metric = unit_ball_2d
        with pytest.raises(InfeasibleAnchorError):
            prox_step([1.0, 0.0], [2.0, 0.0], 1.0, domain, metric)

    def test_boundary_anchor_off_origin_accepted(self):
        # a boundary point stored at 256 + 1.9e-5 is ~3e-9 (relative)
        # outside by rounding alone, beyond ANCHOR_FEAS_TOL
        metric = MetricSpace(1, np.array([2752.0]))
        domain = BallDomain(np.array([256.0]), 1e-3)
        step = domain.radius / norm(metric, np.ones(1))
        anchor = domain.center + step
        assert norm(metric, anchor - domain.center) > domain.radius * (1 + 1e-9)
        np.testing.assert_array_equal(
            prox_step(np.zeros(1), anchor, 0.0, domain, metric), anchor)
        with pytest.raises(InfeasibleAnchorError):
            prox_step(np.zeros(1), domain.center + step * (1 + 1e-6), 0.0,
                      domain, metric)

    def test_nan_H_rejected(self, unit_ball_2d):
        # nan fails H > 0 too, and would silently select the LMO vertex
        domain, metric = unit_ball_2d
        with pytest.raises(ValueError):
            prox_step([1.0, 0.0], np.zeros(2), np.nan, domain, metric)

    def test_overflowing_step_rejected(self, unit_ball_2d):
        # c / (H * b) overflows for a tiny positive H; the projection of
        # the infinite point used to come back as nan coordinates
        domain, metric = unit_ball_2d
        with pytest.raises(ValueError, match="non-finite"):
            with np.errstate(over="ignore"):
                prox_step([1.0, 0.0], [0.0, 0.0], 1e-320, domain, metric)

    def test_result_always_feasible(self):
        rng = np.random.Generator(np.random.Philox(5))
        metric = MetricSpace(4, rng.uniform(0.2, 5.0, 4))
        domain = BallDomain(rng.standard_normal(4), 1.7)
        for _ in range(200):
            anchor = sample_in_ball(domain, metric, rng)
            c = 10.0 * rng.standard_normal(4)
            H = rng.uniform(0.0, 5.0)
            x = prox_step(c, anchor, H, domain, metric)
            assert norm(metric, x - domain.center) <= domain.radius * (1 + 1e-12)

    def test_prox_optimality_inequality(self):
        # strong convexity of the prox objective around its minimizer
        rng = np.random.Generator(np.random.Philox(11))
        metric = MetricSpace(3, rng.uniform(0.5, 3.0, 3))
        domain = BallDomain(np.zeros(3), 1.0)

        def prox_obj(c, x, anchor, H):
            return pairing(c, x) + 0.5 * H * norm(metric, x - anchor) ** 2

        for _ in range(100):
            c = rng.standard_normal(3)
            anchor = sample_in_ball(domain, metric, rng)
            H = rng.uniform(0.01, 4.0)
            x_plus = prox_step(c, anchor, H, domain, metric)
            for _ in range(5):
                x = sample_in_ball(domain, metric, rng)
                lhs = prox_obj(c, x, anchor, H)
                rhs = (prox_obj(c, x_plus, anchor, H)
                       + 0.5 * H * norm(metric, x - x_plus) ** 2)
                assert lhs >= rhs - 1e-9


class TestBallDomain:
    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError):
            BallDomain(np.zeros(2), radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_center_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            BallDomain(np.array([0.0, bad]), 1.0)

    @pytest.mark.parametrize("offset, inside", [
        (1.0, True), (1.0 + 1e-9, True), (1.0 + 1e-6, False), (2.0, False)])
    def test_contains_agrees_with_the_prox_anchor_check(self, offset, inside):
        # a small ball far off the origin, where the rounding of a point
        # stored in absolute coordinates exceeds the relative slack
        domain = BallDomain(np.array([256.0]), 1e-3)
        metric = MetricSpace(1, np.array([2752.0]))
        x = np.array([256.0 + offset * 1e-3 / np.sqrt(2752.0)])
        assert domain.contains(x, metric) is inside
        if inside:
            prox_step(np.zeros(1), x, 1.0, domain, metric)
        else:
            with pytest.raises(InfeasibleAnchorError):
                prox_step(np.zeros(1), x, 1.0, domain, metric)


class TestProjectBall:
    def test_inside_unchanged(self, unit_ball_2d):
        domain, metric = unit_ball_2d
        x = np.array([0.1, 0.2])
        np.testing.assert_array_equal(project_ball(x, domain, metric), x)

    def test_radial_scaling(self, unit_ball_2d):
        domain, metric = unit_ball_2d
        np.testing.assert_allclose(
            project_ball([0.0, 2.0], domain, metric), [0.0, 1.0]
        )

    @pytest.mark.parametrize("point", [[np.inf, 0.0], [np.nan, 0.0],
                                       [-np.inf, np.inf]])
    def test_non_finite_point_rejected(self, unit_ball_2d, point):
        domain, metric = unit_ball_2d
        with pytest.raises(ValueError, match="non-finite"):
            project_ball(point, domain, metric)

    def test_idempotent(self, unit_ball_2d):
        domain, metric = unit_ball_2d
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(50):
            x = 3.0 * rng.standard_normal(2)
            p1 = project_ball(x, domain, metric)
            p2 = project_ball(p1, domain, metric)
            np.testing.assert_allclose(p1, p2, atol=1e-14)


class TestLeastSquares:
    def test_identity_instance(self):
        obj = least_squares_f(np.eye(2), np.zeros(2))
        f, g = obj.f_eval(np.array([1.0, 1.0]))
        assert f == pytest.approx(1.0)
        np.testing.assert_allclose(g, [1.0, 1.0])

    def test_interpolation_point(self):
        rng = np.random.Generator(np.random.Philox(1))
        A = rng.random((6, 3))
        x_star = rng.standard_normal(3)
        obj = least_squares_f(A, A @ x_star)
        f, g = obj.f_eval(x_star)
        assert f == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(2))
        A = rng.standard_normal((5, 4))
        b = rng.standard_normal(5)
        obj = least_squares_f(A, b)
        for _ in range(5):
            x = rng.standard_normal(4) * 0.3
            fd = finite_diff_grad(obj.value, x)
            np.testing.assert_allclose(obj.subgradient(x), fd, rtol=1e-6, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DataShapeError):
            least_squares_f(np.eye(2), np.zeros(3))


class TestLogistic:
    def test_value_at_zero(self):
        rng = np.random.Generator(np.random.Philox(4))
        m = 11
        A = rng.standard_normal((m, 3))
        b = np.sign(rng.standard_normal(m))
        obj = logistic_f(A, b)
        assert obj.value(np.zeros(3)) == pytest.approx(m * np.log(2.0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(6))
        A = rng.standard_normal((7, 3))
        b = np.sign(rng.standard_normal(7))
        obj = logistic_f(A, b)
        for _ in range(5):
            x = rng.standard_normal(3) * 0.4
            fd = finite_diff_grad(obj.value, x)
            np.testing.assert_allclose(obj.subgradient(x), fd, rtol=1e-5, atol=1e-7)

    def test_single_sample_monotone(self):
        obj = logistic_f(np.array([[1.0]]), np.array([1.0]))
        ts = np.linspace(-3.0, 3.0, 30)
        vals = [obj.value(np.array([t])) for t in ts]
        np.testing.assert_allclose(
            vals, np.log1p(np.exp(-ts)), rtol=1e-12
        )
        assert np.all(np.diff(vals) < 0)

    def test_numerically_stable_at_large_margins(self):
        obj = logistic_f(np.array([[700.0], [-700.0]]), np.array([1.0, 1.0]))
        f, g = obj.f_eval(np.array([1.0]))
        assert np.isfinite(f) and np.all(np.isfinite(g))
        assert f == pytest.approx(700.0, rel=1e-10)

    def test_bad_labels_rejected(self):
        with pytest.raises(DataShapeError):
            logistic_f(np.eye(2), np.array([1.0, 2.0]))


class TestPPower:
    def test_p2_matches_scaled_least_squares(self):
        rng = np.random.Generator(np.random.Philox(8))
        A = rng.random((6, 4))
        b = rng.random(6)
        pp = p_power_f(A, b, 2.0)
        ls = least_squares_f(A, b)
        for _ in range(5):
            x = rng.standard_normal(4) * 0.5
            assert pp.value(x) == pytest.approx(2.0 / 6 * ls.value(x))

    def test_p1_single_row(self):
        obj = p_power_f(np.array([[1.0]]), np.array([3.0]), 1.0)
        f, g = obj.f_eval(np.array([0.0]))  # residual -3
        assert f == pytest.approx(3.0)
        np.testing.assert_allclose(g, [-1.0])

    def test_kink_uses_zero_subgradient(self):
        obj = p_power_f(np.array([[1.0]]), np.array([0.0]), 1.5)
        np.testing.assert_array_equal(obj.subgradient(np.zeros(1)), np.zeros(1))

    def test_gradient_matches_finite_differences_off_kinks(self):
        rng = np.random.Generator(np.random.Philox(9))
        A = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        obj = p_power_f(A, b, 1.5)
        checked = 0
        while checked < 5:
            x = rng.standard_normal(3)
            if np.min(np.abs(A @ x - b)) <= 1e-3:
                continue
            fd = finite_diff_grad(obj.value, x)
            np.testing.assert_allclose(obj.subgradient(x), fd, rtol=1e-5, atol=1e-7)
            checked += 1

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match=r"p must lie in \[1, 2\]"):
            p_power_f(np.eye(2), np.zeros(2), 2.5)


MAKE_OBJS = [
    lambda rng: least_squares_f(rng.random((8, 4)), rng.random(8)),
    lambda rng: logistic_f(rng.standard_normal((8, 4)),
                           np.sign(rng.standard_normal(8))),
    lambda rng: p_power_f(rng.random((8, 4)), rng.random(8), 1.5),
]


@pytest.mark.parametrize("make_obj", MAKE_OBJS)
def test_loss_of_A_x_gives_f_eval(make_obj):
    # the A/loss structure the solvers may use instead of f_eval, and the
    # lanes, whose row s has the bits of the one-point formulas at X[s]
    rng = np.random.Generator(np.random.Philox(14))
    obj = make_obj(rng)
    for _ in range(20):
        X = sample_in_ball(obj.domain, obj.metric, rng, size=3)
        IDX = rng.integers(0, obj.n_rows, size=(3, 5))
        values, grads = obj._lanes.value(X), obj._lanes.grad(X)
        row_grads = obj.row_grad(X, IDX)
        for s, x in enumerate(X):
            f, g = obj.f_eval(x)
            value, w = obj.loss(obj.A @ x)
            assert type(value) is float and value == f
            np.testing.assert_allclose(obj.A.T @ w, g, rtol=1e-12, atol=1e-14)
            assert values[s].tobytes() == np.float64(obj.value(x)).tobytes()
            assert grads[s].tobytes() == g.tobytes()
            assert row_grads[s].tobytes() == obj.row_grad(x, IDX[s]).tobytes()


@pytest.mark.parametrize("build", [
    lambda A, b: least_squares_f(A, b),
    lambda A, b: logistic_f(A, np.where(b >= 0.5, 1.0, -1.0)),
    lambda A, b: p_power_f(A, b, 1.5),
], ids=["least-squares", "logistic", "p-power"])
def test_value_is_one_product_with_f_eval_bits(build):
    # value(x) skips the gradient's A.T @ w, so monitoring F costs one product
    rng = np.random.Generator(np.random.Philox(17))
    A = CountingMatrix(rng.random((8, 4)))
    obj = build(A, rng.random(8))
    for _ in range(20):
        x = sample_in_ball(obj.domain, obj.metric, rng)
        start = A.count
        value = obj.value(x)
        assert A.count - start == 1
        assert float(value).hex() == float(obj.f_eval(x)[0]).hex()


# building the np.matrix input itself warns that the subclass is deprecated
@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
@pytest.mark.parametrize("build", [least_squares_f, logistic_f,
                                   lambda A, b: p_power_f(A, b, 1.5)],
                         ids=["least-squares", "logistic", "p-power"])
def test_np_matrix_becomes_a_plain_array(build):
    # a matrix's @ returns 2-D results, so the builders take its array
    rng = np.random.Generator(np.random.Philox(18))
    A, b = rng.random((8, 4)), np.sign(rng.standard_normal(8))
    runs = []
    for data in (np.matrix(A), A):
        obj = build(data, b)
        assert type(obj.A) is np.ndarray
        for mode in ("stochastic_symmetrized", "deterministic_bregman"):
            x, trace = run_usfgm(obj, surrogate_mode=mode, max_iters=20)
            runs.append((x.tobytes(), repr([r[:7] for r in trace])))
        x, trace = run_ugm(obj, max_iters=20)
        runs.append((x.tobytes(), repr([r[:7] for r in trace])))
    assert runs[:3] == runs[3:]


@pytest.mark.parametrize("make_obj", MAKE_OBJS)
def test_bregman_nonnegativity(make_obj):
    rng = np.random.Generator(np.random.Philox(13))
    obj = make_obj(rng)
    for _ in range(100):
        x = sample_in_ball(obj.domain, obj.metric, rng)
        y = sample_in_ball(obj.domain, obj.metric, rng)
        breg = obj.value(y) - obj.value(x) - pairing(obj.subgradient(x), y - x)
        assert breg >= -1e-9


def test_holder_bregman_bound_least_squares():
    rng = np.random.Generator(np.random.Philox(14))
    A = rng.random((10, 5))
    obj = least_squares_f(A, rng.random(10))
    L1 = power_iteration_spectral_norm(A.T @ A)
    for _ in range(100):
        x = sample_in_ball(obj.domain, obj.metric, rng)
        y = sample_in_ball(obj.domain, obj.metric, rng)
        breg = obj.value(y) - obj.value(x) - pairing(obj.subgradient(x), y - x)
        assert breg <= 0.5 * L1 * norm(obj.metric, x - y) ** 2 + 1e-9


class TestHolderConstantEstimate:
    def test_least_squares_lower_bounds_spectral_norm(self):
        rng = np.random.Generator(np.random.Philox(15))
        A = rng.random((20, 6))
        obj = least_squares_f(A, rng.random(20))
        L1 = power_iteration_spectral_norm(A.T @ A)
        est = estimate_holder_constant(obj, nu=1.0, n_pairs=500, seed=3)
        assert est <= L1 * (1 + 1e-9)
        assert est >= 0.3 * L1  # sampling finds a decent fraction of the sup

    def test_linear_objective_is_zero(self):
        from helpers import linear_objective
        obj = linear_objective(np.array([1.0, -2.0, 0.5]))
        for nu in (0.0, 0.5, 1.0):
            assert estimate_holder_constant(obj, nu, 100, seed=0) == 0.0

    def test_zero_distance_pair_skipped(self, monkeypatch):
        # the first pair draws one point twice, which has no ratio; only
        # the second pair counts
        rng = np.random.Generator(np.random.Philox(19))
        obj = least_squares_f(rng.random((10, 4)), rng.random(10))
        p, q = (sample_in_ball(obj.domain, obj.metric, rng) for _ in range(2))
        points = iter([p, p, p, q])
        monkeypatch.setattr("ugbench.problems.sample_in_ball",
                            lambda domain, metric, rng: next(points))
        expected = dual_norm(obj.metric, obj.subgradient(p) - obj.subgradient(q)
                             ) / norm(obj.metric, p - q)
        assert estimate_holder_constant(obj, 1.0, 2, seed=0) == expected

    def test_monotonicity_in_nu(self):
        rng = np.random.Generator(np.random.Philox(16))
        A = rng.random((12, 5))
        obj = least_squares_f(A, rng.random(12))
        D = obj.domain.diameter_D
        # same seed -> same sampled pairs for every nu
        estimates = {nu: estimate_holder_constant(obj, nu, 300, seed=7)
                     for nu in (0.0, 0.5, 1.0)}
        assert estimates[0.0] * D**0.0 <= estimates[0.5] * D**0.5 * (1 + 1e-9)
        assert estimates[0.5] * D**0.5 <= estimates[1.0] * D**1.0 * (1 + 1e-9)
