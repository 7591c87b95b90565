"""End-to-end acceptance checks for the benchmark library.

Each test prints a single `criterion NN [...]: PASS/FAIL` line (run pytest
with -s to see them).  Expected values come from independent numerical
oracles: power iteration, grid maximization, Monte-Carlo estimates, and
the optimum x* that a synthetic instance is built around.
"""

import csv
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import RecordingOracle, grid_max_concave, power_iteration_spectral_norm
from ugbench.cli import main
from ugbench.dataio import (
    Dataset,
    LibsvmParseError,
    parse_libsvm,
    serialize_libsvm,
    synth_least_squares,
)
from ugbench.metric import dual_norm
from ugbench.oracles import Oracle, OracleConfig
from ugbench.problems import least_squares_f, logistic_f, p_power_f
from ugbench.solvers import (
    reg_max_bound,
    run_ugm,
    run_usfgm,
    run_usgm,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d} [{name}]: FAIL")
        raise
    print(f"\ncriterion {num:2d} [{name}]: PASS")


@pytest.fixture(scope="module")
def inst100():
    """100x50 interpolation least squares on the unit ball; F* = 0."""
    ds, _ = synth_least_squares(100, 50, seed=0)
    obj = least_squares_f(ds.features, ds.labels)
    L1_hat = power_iteration_spectral_norm(ds.features.T @ ds.features)
    return obj, L1_hat


@pytest.fixture(scope="module")
def ugm_run_5k(inst100):
    obj, _ = inst100
    t0 = time.monotonic()
    best, trace = run_ugm(obj, max_iters=5000, trace_every=5000)
    return best, trace, time.monotonic() - t0


def test_criterion_01_balance_equation_identity(inst100):
    with criterion(1, "balance-equation identity, 10k iters x 3 solvers"):
        obj, _ = inst100
        D2 = obj.domain.diameter_D ** 2
        t0 = time.monotonic()
        runs = {
            "ugm": run_ugm(obj, max_iters=10000, trace_every=10000)[1],
            "usgm": run_usgm(obj, max_iters=10000, trace_every=10000)[1],
            "usfgm": run_usfgm(obj, max_iters=10000, trace_every=10000)[1],
        }
        elapsed = time.monotonic() - t0
        for name, trace in runs.items():
            H_prev = 0.0
            for rec in trace:
                beta = rec.beta_surrogate
                if name == "usfgm":
                    beta *= rec.k * (rec.k + 1) / 2.0  # A_k weighting
                lhs = (rec.H - H_prev) * D2
                rhs = max(beta - 0.5 * rec.H * rec.r ** 2, 0.0)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                assert abs(lhs - rhs) <= 1e-9 * scale, (name, rec.k)
                H_prev = rec.H
        assert elapsed < 10.0


def test_criterion_02_deterministic_rate_bound(inst100, ugm_run_5k):
    with criterion(2, "deterministic 2*L*D^2/k rate bound"):
        obj, L1_hat = inst100
        _, trace, elapsed = ugm_run_5k
        D = obj.domain.diameter_D
        best = obj.value(np.array(obj.domain.center))
        for rec in trace:
            best = min(best, rec.F_value)
            assert best <= 2.0 * L1_hat * D * D / rec.k
        assert elapsed < 5.0


def test_criterion_03_deterministic_fast_rate_bound(inst100):
    with criterion(3, "accelerated 8*L*D^2/k^2 rate bound"):
        obj, L1_hat = inst100
        D = obj.domain.diameter_D
        t0 = time.monotonic()
        _, trace = run_usfgm(obj, surrogate_mode="deterministic_bregman",
                             max_iters=2000)
        elapsed = time.monotonic() - t0
        for rec in trace:
            assert rec.F_value <= 8.0 * L1_hat * D * D / rec.k ** 2
        assert elapsed < 5.0


def test_criterion_04_H_growth_cap(inst100, ugm_run_5k):
    with criterion(4, "H_k capped by the smoothness constant"):
        _, L1_hat = inst100
        _, trace, _ = ugm_run_5k
        assert max(rec.H for rec in trace) <= L1_hat * (1.0 + 1e-6)


def _mean_F_at_checkpoints(run_fn, obj, sigma, seeds, checkpoints):
    per_seed = []
    for seed in seeds:
        cfg = OracleConfig(kind="gaussian", sigma=sigma, seed=seed)
        _, trace = run_fn(obj, cfg, max_iters=max(checkpoints),
                          trace_every=min(checkpoints))
        by_k = {rec.k: rec.F_value for rec in trace}
        per_seed.append([by_k[k] for k in checkpoints])
    arr = np.asarray(per_seed)
    return arr.mean(axis=0), arr.std(axis=0, ddof=1) / math.sqrt(len(seeds))


def test_criterion_05_stochastic_usgm_bound(inst100):
    with criterion(5, "stochastic averaged-iterate rate bound"):
        obj, L1_hat = inst100
        D = obj.domain.diameter_D
        checkpoints = (10, 100, 1000)
        seeds = range(20)
        t0 = time.monotonic()
        for sigma in (0.1, 1.0):
            mean, se = _mean_F_at_checkpoints(run_usgm, obj, sigma, seeds,
                                              checkpoints)
            for i, k in enumerate(checkpoints):
                bound = 8.0 * L1_hat * D * D / k + 4.0 * sigma * D / math.sqrt(k)
                assert mean[i] <= bound + 2.0 * se[i], (sigma, k)
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_stochastic_usfgm_bound(inst100):
    with criterion(6, "stochastic accelerated rate bound"):
        obj, L1_hat = inst100
        D = obj.domain.diameter_D
        checkpoints = (10, 100, 1000)
        seeds = range(20)
        t0 = time.monotonic()
        for sigma in (0.1, 1.0):
            mean, se = _mean_F_at_checkpoints(run_usfgm, obj, sigma, seeds,
                                              checkpoints)
            for i, k in enumerate(checkpoints):
                bound = (32.0 * L1_hat * D * D / k ** 2
                         + 8.0 * sigma * D / math.sqrt(3.0 * k))
                assert mean[i] <= bound + 2.0 * se[i], (sigma, k)
        assert time.monotonic() - t0 < 60.0


def test_criterion_07_adagrad_domination(inst100):
    with criterion(7, "step coefficient dominated by AdaGrad-style sum"):
        obj_ls, _ = inst100
        ds, _ = synth_least_squares(60, 20, seed=3)
        labels = np.where(ds.labels >= np.median(ds.labels), 1.0, -1.0)
        obj_logit = logistic_f(ds.features, labels)
        for name, obj in (("least-squares", obj_ls), ("logistic", obj_logit)):
            D = obj.domain.diameter_D
            for seed in range(5):
                oracle = RecordingOracle(Oracle(
                    obj, OracleConfig(kind="gaussian", sigma=1.0, seed=seed)))
                _, trace = run_usgm(obj, oracle, max_iters=500,
                                    trace_every=500)
                gs = oracle.gs
                gammas = [dual_norm(obj.metric, gs[i + 1] - gs[i])
                          for i in range(len(gs) - 1)]
                h_prime = np.sqrt(np.cumsum(np.square(gammas))) / D
                for rec, hp in zip(trace, h_prime):
                    assert rec.H <= hp + 1e-9, (name, seed, rec.k)


def test_criterion_08_certificate_soundness():
    with criterion(8, "duality-certificate soundness and convergence"):
        ds, x_star = synth_least_squares(6, 3, seed=1)
        obj = least_squares_f(ds.features, ds.labels)
        # F* from the construction: A x* = b with ||x*|| = 1, so F(x*) = 0
        F_ref = obj.value(x_star)
        best, trace = run_ugm(obj, max_iters=10**5)
        # ordering phi_k <= F_ref <= F(best_k); 1e-12 slack absorbs the
        # float degeneracy of an instance whose true optimum is exactly 0
        best_F = obj.value(np.array(obj.domain.center))
        min_eps = math.inf
        for rec in trace:
            best_F = min(best_F, rec.F_value)
            phi = best_F - rec.certificate_gap
            assert phi <= F_ref + 1e-12, rec.k
            assert F_ref <= best_F + 1e-12, rec.k
            min_eps = min(min_eps, rec.certificate_gap)
        assert min_eps < 1e-4


def test_criterion_09_universality_across_smoothness_levels():
    with criterion(9, "convergence slope across Holder levels"):
        for p, nu in ((1.0, 0.0), (1.5, 0.5), (2.0, 1.0)):
            ds, x_star = synth_least_squares(40, 20, seed=0)
            obj = p_power_f(ds.features, ds.labels, p)
            # F* from the construction, as in criterion 08
            F_ref = obj.value(x_star)
            _, trace = run_ugm(obj, max_iters=10**4, trace_every=10**4)
            best_F = obj.value(np.array(obj.domain.center))
            ks, gaps = [], []
            for rec in trace:
                best_F = min(best_F, rec.F_value)
                if 100 <= rec.k <= 10**4:
                    ks.append(rec.k)
                    gaps.append(max(best_F - F_ref, 1e-16))
            slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
            assert slope <= -(1.0 + nu) / 2.0 + 0.15, (p, slope)


def test_criterion_10_regularized_max_closed_form():
    with criterion(10, "closed-form regularized maximum vs grid search"):
        rng = np.random.Generator(np.random.Philox(100))
        for _ in range(200):
            M = rng.uniform(0.2, 2.0)
            nu = rng.uniform(0.0, 0.7)
            H = rng.uniform(0.5, 3.0)
            r_star = (M / H) ** (1.0 / (1.0 - nu))
            grid = grid_max_concave(
                lambda r: M / (1.0 + nu) * r ** (1.0 + nu) - 0.5 * H * r**2,
                0.0, max(3.0 * r_star, 1.0),
            )
            assert abs(reg_max_bound(M, nu, H) - grid) <= 1e-6


def test_criterion_11_oracle_statistics():
    with criterion(11, "oracle mean/variance Monte-Carlo checks"):
        rng = np.random.Generator(np.random.Philox(101))
        A = rng.random((12, 5))
        obj = least_squares_f(A, rng.random(12))
        x = np.full(5, 0.2)
        g_exact = obj.f_eval(x)[1]
        n = 10**5

        sigma = 0.5
        oracle = Oracle(obj, OracleConfig(kind="gaussian", sigma=sigma, seed=7))
        draws = np.array([oracle.draw(x) for _ in range(n)])
        deltas = draws - g_exact
        se = deltas.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(deltas.mean(axis=0)) <= 4.0 * se)
        sq_mean = np.mean([dual_norm(obj.metric, d) ** 2 for d in deltas])
        assert abs(sq_mean - sigma**2) <= 0.03 * sigma**2

        oracle = Oracle(obj, OracleConfig(kind="minibatch", batch_size=3,
                                          seed=8))
        draws = np.array([oracle.draw(x) for _ in range(n)])
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - g_exact) <= 4.0 * se)


def test_criterion_12_parser_round_trip():
    with criterion(12, "sparse-text parser round trip and error locations"):
        # hand-written example
        ds = parse_libsvm("+1 1:0.5 3:2\n-1 2:1\n")
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, 2.0],
                                                    [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

        # 1000 randomized sparse records
        rng = np.random.Generator(np.random.Philox(102))
        m, n = 1000, 15
        features = rng.standard_normal((m, n))
        features[rng.random((m, n)) < 0.6] = 0.0
        features[0, n - 1] = 1.0  # pin the column count
        ds = Dataset(features=features, labels=rng.standard_normal(m))
        back = parse_libsvm(serialize_libsvm(ds))
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

        # malformed lines carry the right line number
        for text, lineno in (("1 1:1\nbad 1:1\n", 2),
                             ("1 1:1\n1 2:1\n1 0:9\n", 3),
                             ("1 5:1 3:1\n", 1),
                             ("1 1:1\n1 1:nan\n", 2),
                             ("1 1:1\n\n1 1:2 2:inf\n", 3),
                             ("1 1:1\n1e400 1:1\n", 2),
                             ("1 1:1 2:-1e400\n", 1)):
            with pytest.raises(LibsvmParseError, match=f"line {lineno}"):
                parse_libsvm(text)


def test_criterion_13_cli_determinism(tmp_path):
    with criterion(13, "repeated CLI runs byte-identical modulo wall time"):
        traces = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            rc = main(["run", "--solver", "usgm", "--oracle", "gaussian:1.0",
                       "--data", "synthetic:30:10:0", "--iters", "500",
                       "--seeds", "4", "--out", out])
            assert rc == 0
            with open(os.path.join(out, "trace_usgm_4.csv")) as fh:
                traces.append(list(csv.reader(fh)))
        assert len(traces[0]) == len(traces[1]) == 501
        for r1, r2 in zip(*traces):
            assert r1[:7] == r2[:7]
