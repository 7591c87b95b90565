import math

import numpy as np
import pytest

from helpers import CountingMatrix, RecordingOracle, grid_max_concave, linear_objective
from ugbench.metric import MetricSpace, dual_norm, norm
from ugbench.oracles import Oracle, OracleConfig
from ugbench.problems import (
    BallDomain,
    CompositeObjective,
    least_squares_f,
    logistic_f,
    p_power_f,
    project_ball,
    prox_step,
)
from ugbench.solvers import (
    _run_lanes,
    balance_update,
    reg_max_bound,
    run_adagrad_norm,
    run_projected_subgrad,
    run_ugm,
    run_usfgm,
    run_usgm,
)


class TestBalanceUpdate:
    def test_nonpositive_beta_keeps_zero(self):
        assert balance_update(0.0, -2.0, 0.5, 4.0) == 0.0
        assert balance_update(0.0, 0.0, 0.5, 4.0) == 0.0

    def test_worked_example(self):
        H_plus = balance_update(1.0, 3.0, 1.0, 4.0)
        assert H_plus == pytest.approx(1.4)
        assert (H_plus - 1.0) * 4.0 == pytest.approx(max(3.0 - H_plus * 1.0, 0.0))

    def test_beta_below_threshold_keeps_H(self):
        assert balance_update(2.0, 1.0, 1.0, 4.0) == 2.0

    def test_solves_balance_equation_randomized(self):
        rng = np.random.Generator(np.random.Philox(41))
        for _ in range(1000):
            H = rng.uniform(0.0, 10.0)
            beta = rng.uniform(-5.0, 20.0)
            rho = rng.uniform(0.0, 5.0)
            omega = rng.uniform(0.1, 10.0)
            H_plus = balance_update(H, beta, rho, omega)
            assert H_plus >= H
            lhs = (H_plus - H) * omega
            rhs = max(beta - H_plus * rho, 0.0)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            balance_update(-1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            balance_update(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            balance_update(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("H, beta", [
        (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),
        (math.nan, 1.0), (math.inf, 1.0),
    ])
    def test_non_finite_H_or_beta_rejected(self, H, beta):
        # a nan H would reach prox_step, whose H = 0 branch is a Frank-Wolfe step
        with pytest.raises(ValueError):
            balance_update(H, beta, 0.5, 4.0)

    def test_nan_rho_or_omega_rejected(self):
        with pytest.raises(ValueError):
            balance_update(0.0, 1.0, math.nan, 4.0)
        with pytest.raises(ValueError):
            balance_update(0.0, 1.0, 0.5, math.nan)


class TestRegMaxBound:
    def test_unit_case_matches_grid(self):
        # max_r { r - r^2/2 } = 1/2 at r = 1
        val = reg_max_bound(1.0, 0.0, 1.0)
        assert val == pytest.approx(0.5)
        grid = grid_max_concave(lambda r: r - 0.5 * r**2, 0.0, 3.0)
        assert val == pytest.approx(grid, abs=1e-6)

    def test_zero_M(self):
        assert reg_max_bound(0.0, 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("M, H", [(math.nan, 1.0), (1.0, math.nan),
                                      (-1.0, 1.0)])
    def test_nan_or_negative_inputs_rejected(self, M, H):
        # a nan M or H would otherwise come back as a nan bound
        with pytest.raises(ValueError):
            reg_max_bound(M, 0.5, H)

    def test_randomized_against_grid(self):
        rng = np.random.Generator(np.random.Philox(42))
        for _ in range(25):
            M = rng.uniform(0.2, 2.0)
            nu = rng.uniform(0.0, 0.7)
            H = rng.uniform(0.5, 3.0)
            r_star = (M / H) ** (1.0 / (1.0 - nu))
            grid = grid_max_concave(
                lambda r: M / (1 + nu) * r ** (1 + nu) - 0.5 * H * r**2,
                0.0, max(3.0 * r_star, 1.0),
            )
            assert reg_max_bound(M, nu, H) == pytest.approx(grid, abs=1e-6)

    def test_nu_one_rejected(self):
        with pytest.raises(ValueError):
            reg_max_bound(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_max_bound(1.0, 0.5, 0.0)


@pytest.fixture(scope="module")
def ls_instance():
    rng = np.random.Generator(np.random.Philox(50))
    A = rng.random((30, 10))
    x_star = rng.standard_normal(10)
    x_star /= np.linalg.norm(x_star)
    return least_squares_f(A, A @ x_star)


@pytest.mark.parametrize("convert", [
    pytest.param(list, id="list"),
    pytest.param(lambda g: g.astype(np.float32), id="float32")])
def test_outside_subgradient_taken_as_float64(ls_instance, convert):
    # what a user's f_eval returns is converted once, as np.asarray would
    def f_eval(x):
        f, g = ls_instance.f_eval(x)
        return f, convert(g)

    def as_float64(x):
        f, g = f_eval(x)
        return f, np.asarray(g, dtype=np.float64)

    (x, trace), (x_64, trace_64) = [
        run_usgm(CompositeObjective(f, ls_instance.domain, ls_instance.metric),
                 max_iters=20) for f in (f_eval, as_float64)]
    assert x.tobytes() == x_64.tobytes()
    assert [rec[:7] for rec in trace] == [rec[:7] for rec in trace_64]


class TestUgm:
    def test_linear_objective_converges_in_one_step(self):
        c = np.array([0.0, 2.0])
        obj = linear_objective(c)
        best, trace = run_ugm(obj, max_iters=3)
        # beta is always 0 for linear f, so H stays 0 and step 1 hits the LMO
        np.testing.assert_allclose(best, [0.0, -1.0], atol=1e-12)
        assert all(rec.H == 0.0 for rec in trace)
        assert trace[0].F_value == pytest.approx(-2.0)

    def test_zero_iterations(self, ls_instance):
        best, trace = run_ugm(ls_instance, max_iters=0)
        np.testing.assert_array_equal(best, ls_instance.domain.center)
        assert trace == []

    def test_rejects_stochastic_oracle(self, ls_instance):
        cfg = OracleConfig(kind="gaussian", sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            run_ugm(ls_instance, cfg, max_iters=5)

    def test_H_monotone_and_balance_identity(self, ls_instance):
        D = ls_instance.domain.diameter_D
        _, trace = run_ugm(ls_instance, max_iters=300)
        H_prev = 0.0
        for rec in trace:
            assert rec.H >= H_prev
            lhs = (rec.H - H_prev) * D * D
            rhs = max(rec.beta_surrogate - 0.5 * rec.H * rec.r**2, 0.0)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
            H_prev = rec.H

    def test_iterates_feasible_and_trace_monotone_k(self, ls_instance):
        feas = []
        _, trace = run_ugm(
            ls_instance, max_iters=100,
            callbacks=[lambda rec: feas.append(rec.k)],
        )
        assert feas == [rec.k for rec in trace] == list(range(1, 101))

    def test_certificate_gap_upper_bounds_suboptimality(self, ls_instance):
        # F* = 0 by construction (b = A x* with feasible x*)
        best, trace = run_ugm(ls_instance, max_iters=500)
        gap = trace[-1].certificate_gap
        assert gap >= ls_instance.value(best) - 1e-9
        assert gap < 1.0


class TestUsgm:
    def test_zero_gradient_start_stays_put(self):
        obj = linear_objective(np.zeros(2))
        x0 = np.array([0.4, -0.1])
        xbar, trace = run_usgm(obj, max_iters=1, x0=x0)
        np.testing.assert_array_equal(xbar, x0)

    def test_exact_oracle_final_gap_under_deterministic_bound(self, ls_instance):
        _, trace = run_usgm(ls_instance, max_iters=2000, trace_every=2000)
        k = trace[-1].k
        # deterministic specialization of the stochastic guarantee
        D = ls_instance.domain.diameter_D
        L_hat = 60.0  # safe upper bound on ||A^T A|| for this 30x10 instance
        assert trace[-1].F_value <= 8 * L_hat * D * D / k

    def test_average_iterate_feasible(self, ls_instance):
        cfg = OracleConfig(kind="gaussian", sigma=2.0, seed=7)
        xbar, trace = run_usgm(ls_instance, cfg, max_iters=200)
        assert norm(ls_instance.metric, xbar - ls_instance.domain.center) \
            <= ls_instance.domain.radius * (1 + 1e-9)
        assert all(t.H >= 0 for t in trace)

    def test_adagrad_domination_along_run(self, ls_instance):
        D = ls_instance.domain.diameter_D
        for seed in range(5):
            oracle = RecordingOracle(
                Oracle(ls_instance, OracleConfig(kind="gaussian", sigma=0.8,
                                                 seed=seed)))
            _, trace = run_usgm(ls_instance, oracle, max_iters=300,
                                trace_every=300)
            gs = oracle.gs
            gammas = [dual_norm(ls_instance.metric, gs[i + 1] - gs[i])
                      for i in range(len(gs) - 1)]
            h_prime = np.sqrt(np.cumsum(np.square(gammas))) / D
            for rec, hp in zip(trace, h_prime):
                assert rec.H <= hp + 1e-9


MODES = ("stochastic_symmetrized", "deterministic_bregman")
GAUSSIAN = OracleConfig(kind="gaussian", sigma=1.0, seed=3)


class TestUsfgm:
    def test_first_step_degeneracy_matches_manual_recursion(self, ls_instance):
        # replay two iterations by hand: A_k = k(k+1)/2, y_0 = v_0 = x_0
        obj = ls_instance
        domain, metric = obj.domain, obj.metric
        x = np.array(domain.center)
        v = x.copy()
        H, A = 0.0, 0.0
        for k in range(2):
            a_next = k + 1.0
            A_next = A + a_next
            y = (A * x + a_next * v) / A_next
            g_y = obj.f_eval(y)[1]
            v_next = prox_step(a_next * g_y, v, H, domain, metric)
            x_next = (A * x + a_next * v_next) / A_next
            r = norm(metric, v_next - v)
            f_y, f_next = obj.value(y), obj.value(x_next)
            beta = f_next - f_y - float(g_y @ (x_next - y))
            H = balance_update(H, A_next * beta, 0.5 * r * r, domain.diameter_D**2)
            x, v, A = x_next, v_next, A_next
        assert A == 3.0  # 1 + 2 = 2*3/2
        x_run, trace = run_usfgm(obj, surrogate_mode="deterministic_bregman",
                                 max_iters=2)
        np.testing.assert_allclose(x_run, x, rtol=1e-12)
        assert trace[-1].H == pytest.approx(H, rel=1e-12)

    def test_deterministic_mode_requires_exact_oracle(self, ls_instance):
        cfg = OracleConfig(kind="gaussian", sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            run_usfgm(ls_instance, cfg, surrogate_mode="deterministic_bregman",
                      max_iters=5)

    def test_unknown_mode_rejected(self, ls_instance):
        with pytest.raises(ValueError):
            run_usfgm(ls_instance, surrogate_mode="nope", max_iters=5)

    def test_balance_identity_with_weighted_surrogate(self, ls_instance):
        D = ls_instance.domain.diameter_D
        _, trace = run_usfgm(ls_instance, max_iters=200, trace_every=200)
        H_prev = 0.0
        for rec in trace:
            A_k = rec.k * (rec.k + 1) / 2.0
            lhs = (rec.H - H_prev) * D * D
            rhs = max(A_k * rec.beta_surrogate - 0.5 * rec.H * rec.r**2, 0.0)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
            assert rec.H >= H_prev
            H_prev = rec.H

    def test_iterates_feasible(self, ls_instance):
        cfg = OracleConfig(kind="gaussian", sigma=1.0, seed=4)
        x_final, trace = run_usfgm(ls_instance, cfg, max_iters=200)
        assert norm(ls_instance.metric, x_final - ls_instance.domain.center) \
            <= ls_instance.domain.radius * (1 + 1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_carried_products_match_identity_lift(self, ls_instance, mode):
        # the same least-squares f without its A/loss structure runs on z = x
        opaque = CompositeObjective(f_eval=ls_instance.f_eval,
                                    domain=ls_instance.domain,
                                    metric=ls_instance.metric)
        assert opaque.A is None and ls_instance.A is not None
        x_s, tr_s = run_usfgm(ls_instance, surrogate_mode=mode, max_iters=200)
        x_o, tr_o = run_usfgm(opaque, surrogate_mode=mode, max_iters=200)
        np.testing.assert_allclose([r.H for r in tr_s], [r.H for r in tr_o],
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose([r.F_value for r in tr_s],
                                   [r.F_value for r in tr_o], rtol=1e-10, atol=0)
        np.testing.assert_allclose(x_s, x_o, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("mode, oracle", [
        (mode, oracle) for mode in MODES
        for oracle in ("exact", "recording", "opaque")
    ] + [("stochastic_symmetrized", "gaussian")])
    def test_two_evaluations_per_iteration_reported(self, ls_instance, mode,
                                                    oracle):
        obj = ls_instance
        if oracle == "gaussian":
            arg = OracleConfig(kind="gaussian", sigma=0.5, seed=1)
        elif oracle == "recording":
            arg = RecordingOracle(Oracle(obj))
        else:
            arg = None
            if oracle == "opaque":
                obj = CompositeObjective(f_eval=obj.f_eval, domain=obj.domain,
                                         metric=obj.metric)
        _, trace = run_usfgm(obj, arg, surrogate_mode=mode, max_iters=20,
                             trace_every=3)
        assert [r.cum_oracle_calls for r in trace] == list(range(2, 42, 2))

    @pytest.mark.parametrize("mode", MODES)
    def test_exact_user_oracle_is_not_drawn(self, ls_instance, mode):
        # as in run_ugm, an exact oracle only answers is_exact: f and its
        # gradient come from the objective, carried A x included
        opaque = CompositeObjective(f_eval=ls_instance.f_eval,
                                    domain=ls_instance.domain,
                                    metric=ls_instance.metric)
        for obj in (ls_instance, opaque):
            oracle = RecordingOracle(Oracle(obj))
            x, trace = run_usfgm(obj, oracle, surrogate_mode=mode,
                                 max_iters=50, trace_every=7)
            assert oracle.gs == [] and oracle.calls == 0
            x_plain, plain = run_usfgm(obj, surrogate_mode=mode, max_iters=50,
                                       trace_every=7)
            # repr tells -0.0 from 0.0 and matches nan: bit for bit
            assert x.tobytes() == x_plain.tobytes()
            assert repr([r[:7] for r in trace]) == repr([r[:7] for r in plain])

    @pytest.mark.parametrize("mode", MODES)
    def test_A_without_loss_runs_on_f_eval(self, ls_instance, mode):
        # value() takes the f_eval route unless A and loss are both set, and
        # so does run_usfgm: the trace is the f_eval-only objective's
        traces = []
        for A in (ls_instance.A, None):
            obj = CompositeObjective(f_eval=ls_instance.f_eval,
                                     domain=ls_instance.domain,
                                     metric=ls_instance.metric, A=A)
            x, trace = run_usfgm(obj, surrogate_mode=mode, max_iters=40,
                                 trace_every=3)
            traces.append((x.tobytes(), repr([r[:7] for r in trace])))
        assert traces[0] == traces[1]

    def test_wrapped_noisy_oracle_gives_the_same_trace(self, ls_instance):
        cfg = OracleConfig(kind="gaussian", sigma=0.5, seed=9)
        oracle = RecordingOracle(Oracle(ls_instance, cfg))
        _, wrapped = run_usfgm(ls_instance, oracle, max_iters=50)
        _, plain = run_usfgm(ls_instance, cfg, max_iters=50)
        assert len(oracle.gs) == 100

        def fields(trace):
            return [(r.F_value, r.H, r.r, r.beta_surrogate, r.cum_oracle_calls)
                    for r in trace]
        assert fields(wrapped) == fields(plain)


    @pytest.mark.parametrize("mode", MODES)
    def test_gaussian_sigma_0_is_the_exact_oracle(self, ls_instance, mode):
        # sigma 0 takes the exact oracle's path, which carries A x
        arrays = []
        for cfg in (OracleConfig(), OracleConfig(kind="gaussian", sigma=0.0)):
            x, trace = run_usfgm(ls_instance, cfg, surrogate_mode=mode,
                                 max_iters=40, trace_every=3)
            arrays.append((x, np.array([rec[:7] for rec in trace])))
        for exact, sigma_0 in zip(*arrays):
            np.testing.assert_array_equal(sigma_0, exact)


class TestMatvecCounts:
    """Products with A per iteration, monitoring at every iteration included."""

    @pytest.fixture
    def counted(self):
        rng = np.random.Generator(np.random.Philox(51))
        A = CountingMatrix(rng.random((30, 10)))
        x_star = rng.standard_normal(10)
        x_star /= np.linalg.norm(x_star)
        obj = least_squares_f(A, A @ x_star)
        assert obj.A is A
        return obj, A

    def test_ugm(self, counted):
        obj, A = counted
        start = A.count
        run_ugm(obj, max_iters=10)
        assert A.count - start == 2 + 2 * 10  # f_eval(x_0), then one per iteration

    @pytest.mark.parametrize("mode", MODES)
    def test_usfgm_exact_oracle(self, counted, mode):
        obj, A = counted
        start = A.count
        run_usfgm(obj, surrogate_mode=mode, max_iters=10)
        assert A.count - start == 1 + 2 * 10  # A @ x_0, then two per iteration


    @pytest.mark.parametrize("mode", MODES)
    def test_usfgm_gaussian_sigma_0(self, counted, mode):
        obj, A = counted
        start = A.count
        run_usfgm(obj, OracleConfig(kind="gaussian", sigma=0.0),
                  surrogate_mode=mode, max_iters=10)
        assert A.count - start == 1 + 2 * 10

    # over 10 iterations: two products (A x, A.T w) per gradient, which is
    # one per iteration, plus the draw at x_0 for usgm and adagrad, and two
    # per iteration for noisy usfgm; and one, A x, for the trace's F on each
    # traced iteration: all 10 at trace_every=1, k = 7 and 10 at 7
    @pytest.mark.parametrize("problem", [
        least_squares_f,
        lambda A, b: logistic_f(A, np.where(b >= 0.0, 1.0, -1.0)),
        lambda A, b: p_power_f(A, b, 1.5),
    ], ids=["least-squares", "logistic", "p-power"])
    @pytest.mark.parametrize("run, oracle, counts", [
        (run_usgm, None, (32, 24)), (run_usgm, GAUSSIAN, (32, 24)),
        (run_adagrad_norm, None, (32, 24)), (run_adagrad_norm, GAUSSIAN, (32, 24)),
        (run_projected_subgrad, None, (30, 22)),
        (run_projected_subgrad, GAUSSIAN, (30, 22)),
        (run_usfgm, GAUSSIAN, (50, 42)),
    ], ids=["usgm", "usgm-gaussian", "adagrad", "adagrad-gaussian", "sgd",
            "sgd-gaussian", "usfgm-gaussian"])
    @pytest.mark.parametrize("trace_every", [1, 7])
    def test_monitor_products(self, problem, run, oracle, counts, trace_every):
        rng = np.random.Generator(np.random.Philox(52))
        A = CountingMatrix(rng.random((30, 10)))
        obj = problem(A, rng.standard_normal(30))
        assert obj.A is A
        run(obj, oracle, max_iters=10, trace_every=trace_every)
        assert A.count == counts[trace_every > 1]


class TestProjectedSubgrad:
    def test_zero_step_is_stationary(self, ls_instance):
        x0 = np.full(10, 0.05)
        xbar, trace = run_projected_subgrad(
            ls_instance, step_rule=("constant", 0.0), max_iters=10, x0=x0)
        np.testing.assert_allclose(xbar, x0, rtol=1e-14)
        assert all(rec.r == 0.0 for rec in trace)

    def test_marches_toward_lmo_point_on_linear_objective(self):
        c = np.array([1.0, 0.0])
        obj = linear_objective(c)
        lmo = np.array([-1.0, 0.0])
        xbar, trace = run_projected_subgrad(
            obj, step_rule=("constant", 0.01), max_iters=500)
        assert obj.value(xbar) < -0.9  # close to the minimum -1

    def test_descent_with_inverse_lipschitz_step(self, ls_instance):
        # classical descent-lemma check along exact-gradient iterates
        obj = ls_instance
        L = 60.0  # upper bound on the Lipschitz constant of this instance
        x = np.array(obj.domain.center)
        prev = obj.value(x)
        for _ in range(100):
            x = project_ball(x - obj.f_eval(x)[1] / L, obj.domain, obj.metric)
            val = obj.value(x)
            assert val <= prev + 1e-12
            prev = val

    def test_bad_step_rule(self, ls_instance):
        with pytest.raises(ValueError):
            run_projected_subgrad(ls_instance, step_rule=("warp", 1.0),
                                  max_iters=2)


    @pytest.mark.parametrize("step_rule", [
        ("constant", math.nan), ("decaying", math.inf), ("constant", -1.0)])
    def test_step_must_be_finite_and_nonnegative(self, ls_instance, step_rule):
        # checked at entry; a nan step used to stop the first iteration's
        # projection at a point of non-finite distance
        with pytest.raises(ValueError,
                           match="step size must be finite and >= 0"):
            run_projected_subgrad(ls_instance, step_rule=step_rule,
                                  max_iters=0)


class TestAdagradNorm:
    def test_constant_gradient_keeps_H_zero(self):
        obj = linear_objective(np.array([1.0, 1.0]))
        _, trace = run_adagrad_norm(obj, gamma_variant="grad_diff", max_iters=20)
        assert all(rec.H == 0.0 for rec in trace)

    def test_H_nondecreasing(self, ls_instance):
        cfg = OracleConfig(kind="gaussian", sigma=0.5, seed=2)
        for variant in ("grad_diff", "grad_norm"):
            cfg = OracleConfig(kind="gaussian", sigma=0.5, seed=2)
            _, trace = run_adagrad_norm(ls_instance, cfg, gamma_variant=variant,
                                        max_iters=100, trace_every=100)
            hs = [rec.H for rec in trace]
            assert all(h2 >= h1 for h1, h2 in zip(hs, hs[1:]))

    def test_unknown_variant(self, ls_instance):
        with pytest.raises(ValueError, match="unknown gamma variant 'classic'"):
            run_adagrad_norm(ls_instance, gamma_variant="classic", max_iters=2)

    def test_no_variant_is_not_usgm(self, ls_instance):
        # gamma_variant None selects USGM's rule in the shared step
        with pytest.raises(ValueError, match="unknown gamma variant None"):
            run_adagrad_norm(ls_instance, gamma_variant=None, max_iters=2)

    @pytest.mark.parametrize("scale", [1e-171, 1e-200, 1e-300])
    def test_tiny_gradients_give_positive_H(self, scale):
        # gamma^2 underflows to 0 here; H = 0 would make every step a
        # Frank-Wolfe step.  H'_k = sqrt(k) * scale / D
        obj = linear_objective(np.array([scale, 0.0]))
        _, trace = run_adagrad_norm(obj, gamma_variant="grad_norm", max_iters=8)
        for rec in trace:
            assert rec.H == pytest.approx(math.sqrt(rec.k) * scale / 2.0,
                                          rel=1e-12, abs=0.0)


@pytest.mark.parametrize("run", [
    run_ugm, run_usgm, run_usfgm, run_adagrad_norm,
], ids=["ugm", "usgm", "usfgm", "adagrad"])
@pytest.mark.parametrize("D", [math.nan, 1e-300, math.inf, 1e200, -1.0, 0.0])
def test_bad_diameter_rejected_at_entry(ls_instance, run, D):
    # rejected before the first iteration: max_iters=0 runs no step at all
    with pytest.raises(ValueError, match="D must be"):
        run(ls_instance, D=D, max_iters=0)


ENTRY_RUNS = {"ugm": run_ugm, "usgm": run_usgm, "usfgm": run_usfgm,
              "sgd": run_projected_subgrad, "adagrad": run_adagrad_norm}


@pytest.mark.parametrize("name", [*ENTRY_RUNS, "lanes"])
@pytest.mark.parametrize("max_iters, trace_every",
                         [(-2, 1), (5, 0), (5, -1), (5, math.nan)])
def test_bad_iteration_counts_rejected_before_any_evaluation(
        ls_instance, name, max_iters, trace_every):
    # trace_every = 0 used to divide by zero at k = 1, after the first
    # evaluations; -1 monitored every iteration; max_iters = -2 returned an
    # empty trace
    evaluated = []

    def f_eval(x):
        evaluated.append(x)
        return ls_instance.f_eval(x)
    user = CompositeObjective(f_eval=f_eval, domain=ls_instance.domain,
                              metric=ls_instance.metric)
    with pytest.raises(ValueError, match="max_iters >= 0 and trace_every >= 1"):
        if name == "lanes":
            oracles = [Oracle(ls_instance, OracleConfig(
                kind="gaussian", sigma=1.0, seed=seed)) for seed in (0, 1)]
            _run_lanes(run_usgm, ls_instance, oracles, max_iters, trace_every)
        else:
            oracle = None if name == "ugm" else OracleConfig(
                kind="gaussian", sigma=1.0)
            ENTRY_RUNS[name](user, oracle, max_iters=max_iters,
                             trace_every=trace_every)
    assert evaluated == []


PROX_RUNS = {"ugm": run_ugm, "usgm": run_usgm, "usfgm": run_usfgm,
             "adagrad": run_adagrad_norm}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in PROX_RUNS for bad in (math.nan, math.inf)])
def test_non_finite_gradient_stops_the_h0_prox(ls_instance, name, bad):
    # H = 0 on the first step: the prox would return a nan vertex, and the
    # run would fail only one step later, in balance_update
    def f_eval(x):
        f, g = ls_instance.f_eval(x)
        return f, np.append(bad, g[1:])
    user = CompositeObjective(f_eval=f_eval, domain=ls_instance.domain,
                              metric=ls_instance.metric)
    with pytest.raises(ValueError, match="direction of finite dual norm"):
        PROX_RUNS[name](user, max_iters=10)


@pytest.mark.parametrize("run", [
    run_ugm, run_usgm, run_usfgm, run_projected_subgrad, run_adagrad_norm,
], ids=["ugm", "usgm", "usfgm", "sgd", "adagrad"])
def test_feasibility_checked_once_per_solve(ls_instance, run, monkeypatch):
    # the start point is checked at entry; every later point is a prox or
    # projection output, in the ball by construction
    calls = []
    contains = BallDomain.contains

    def counted(self, *args, **kwargs):
        calls.append(args)
        return contains(self, *args, **kwargs)
    monkeypatch.setattr(BallDomain, "contains", counted)
    x0 = np.full(10, 0.2)
    _, trace = run(ls_instance, x0=x0, max_iters=25)
    assert len(trace) == 25
    assert len(calls) == 1 and np.array_equal(calls[0][0], x0)


@pytest.mark.parametrize("run", [
    run_ugm, run_usgm, run_usfgm, run_adagrad_norm,
], ids=["ugm", "usgm", "usfgm", "adagrad"])
def test_small_ball_far_off_origin(run):
    # the solvers' own boundary points, stored in absolute coordinates, used
    # to fail the next anchor check by ~1e-8 relative (InfeasibleAnchorError)
    metric = MetricSpace(2, np.array([1e6, 3e5]))
    domain = BallDomain(np.array([1e3, -7e2]), 1e-3)
    rng = np.random.Generator(np.random.Philox(61))
    for _ in range(10):
        c = rng.standard_normal(2)
        obj = CompositeObjective(
            f_eval=lambda x, c=c: (float(c @ x), c.copy()),
            domain=domain, metric=metric)
        x, trace = run(obj, max_iters=30)
        assert len(trace) == 30
        assert norm(metric, x - domain.center) <= domain.radius * (1 + 1e-6)


@pytest.mark.parametrize("run", [
    run_ugm, run_usgm, run_usfgm, run_projected_subgrad, run_adagrad_norm,
], ids=["ugm", "usgm", "usfgm", "sgd", "adagrad"])
def test_ball_below_the_normal_range_of_squares(run):
    # distances below ~1e-154 have subnormal squares; a norm computed from
    # the underflowed sum projects points ~1e-8 (relative) outside the ball
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(seed))
        A = rng.standard_normal((12, 4))
        domain = BallDomain(np.zeros(4), 1e-158)
        obj = least_squares_f(A, A @ rng.standard_normal(4), domain)
        x, trace = run(obj, max_iters=20)
        assert len(trace) == 20
        assert domain.contains(x, obj.metric, rtol=1e-12)


def test_metric_rescaling_yields_identical_iterates(ls_instance):
    # the same Euclidean ball expressed in B = I and B = 4I must produce
    # the same 50-step UGM iterate sequence once the radius is remapped
    rng = np.random.Generator(np.random.Philox(60))
    A = rng.random((20, 8))
    b = A @ (rng.standard_normal(8) / 3.0)
    m1 = MetricSpace.euclidean(8)
    m2 = MetricSpace(8, np.full(8, 4.0))
    d1 = BallDomain(np.zeros(8), 1.0)
    d2 = BallDomain(np.zeros(8), 2.0)  # same point set under B = 4I
    obj1 = least_squares_f(A, b, d1, m1)
    obj2 = least_squares_f(A, b, d2, m2)
    xs1, xs2 = [], []
    run_ugm(obj1, max_iters=50, callbacks=[lambda r: xs1.append(r.F_value)])
    run_ugm(obj2, max_iters=50, callbacks=[lambda r: xs2.append(r.F_value)])
    np.testing.assert_allclose(xs1, xs2, rtol=1e-9)
