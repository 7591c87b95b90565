import math

import numpy as np
import pytest

import ugbench
from ugbench.metric import dual_norm
from ugbench.oracles import Oracle, OracleConfig, make_rng
from ugbench.problems import CompositeObjective, least_squares_f


@pytest.fixture
def ls_problem():
    rng = np.random.Generator(np.random.Philox(31))
    A = rng.random((12, 5))
    x_star = rng.standard_normal(5)
    x_star /= np.linalg.norm(x_star)
    return least_squares_f(A, A @ x_star), x_star


def test_exact_oracle_passthrough(ls_problem):
    obj, x_star = ls_problem
    oracle = Oracle(obj)
    x = np.full(5, 0.1)
    g1 = oracle.draw(x)
    g2 = oracle.draw(x)
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_array_equal(g1, obj.f_eval(x)[1])
    np.testing.assert_allclose(oracle.draw(x_star), np.zeros(5), atol=1e-12)


def test_gaussian_sigma_zero_is_exact(ls_problem):
    obj, _ = ls_problem
    cfg = OracleConfig(kind="gaussian", sigma=0.0, seed=1)
    x = np.full(5, 0.2)
    np.testing.assert_array_equal(
        Oracle(obj, cfg).draw(x), Oracle(obj).draw(x)
    )


@pytest.mark.parametrize("cfg, exact", [
    (OracleConfig(), True), (OracleConfig(kind="gaussian", sigma=0.0), True),
    (OracleConfig(kind="gaussian", sigma=0.5), False),
    (OracleConfig(kind="minibatch", batch_size=1), False)])
def test_one_exactness_rule(ls_problem, cfg, exact):
    # the CLI checks a config's exactness before any oracle is built
    oracle = Oracle(ls_problem[0], cfg)
    assert cfg.is_exact is oracle.is_exact is exact
    assert (oracle.rng is None) is exact


def test_gaussian_reproducible_given_seed(ls_problem):
    obj, _ = ls_problem
    cfg = OracleConfig(kind="gaussian", sigma=0.7, seed=9)
    x = np.full(5, 0.2)
    g1 = Oracle(obj, cfg).draw(x)
    g2 = Oracle(obj, cfg).draw(x)
    np.testing.assert_array_equal(g1, g2)


def test_gaussian_unbiased_and_variance(ls_problem):
    obj, _ = ls_problem
    sigma = 0.5
    cfg = OracleConfig(kind="gaussian", sigma=sigma, seed=3)
    oracle = Oracle(obj, cfg)
    x = np.full(5, 0.3)
    g_exact = Oracle(obj).draw(x)
    n = 20000
    draws = np.array([oracle.draw(x) for _ in range(n)])
    deltas = draws - g_exact
    se = deltas.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(deltas.mean(axis=0)) <= 4.0 * se)
    sq = np.array([dual_norm(obj.metric, d) ** 2 for d in deltas])
    assert sq.mean() == pytest.approx(sigma**2, rel=0.05)


def test_minibatch_single_row_dataset():
    A = np.array([[1.0, 2.0]])
    obj = least_squares_f(A, np.array([0.5]))
    cfg = OracleConfig(kind="minibatch", batch_size=1, seed=0)
    x = np.array([0.3, -0.1])
    oracle = Oracle(obj, cfg)
    for _ in range(10):
        np.testing.assert_allclose(
            oracle.draw(x), Oracle(obj).draw(x), rtol=1e-12
        )


def test_minibatch_unbiased(ls_problem):
    obj, _ = ls_problem
    cfg = OracleConfig(kind="minibatch", batch_size=3, seed=17)
    oracle = Oracle(obj, cfg)
    x = np.full(5, 0.25)
    g_exact = Oracle(obj).draw(x)
    n = 20000
    draws = np.array([oracle.draw(x) for _ in range(n)])
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - g_exact) <= 4.0 * se)


def test_minibatch_oversized_batch_rejected(ls_problem):
    obj, _ = ls_problem
    cfg = OracleConfig(kind="minibatch", batch_size=obj.n_rows + 1, seed=0)
    with pytest.raises(ValueError):
        Oracle(obj, cfg)


def test_minibatch_needs_row_gradients(ls_problem):
    obj, _ = ls_problem
    whole = CompositeObjective(obj.f_eval, obj.domain, obj.metric)
    cfg = OracleConfig(kind="minibatch", batch_size=2, seed=0)
    with pytest.raises(ValueError, match="does not decompose"):
        Oracle(whole, cfg)


def test_oracle_calls_count_each_draw(ls_problem):
    obj, _ = ls_problem
    oracle = Oracle(obj, OracleConfig(kind="gaussian", sigma=0.3, seed=5))
    x = np.zeros(5)
    for i in range(20):
        oracle.draw(x)
        assert oracle.calls == i + 1
    # a draw that fails is not counted
    with pytest.raises(ValueError):
        oracle.draw(np.zeros(4))
    assert oracle.calls == 20


@pytest.mark.parametrize("cfg", [
    OracleConfig(), OracleConfig(kind="gaussian", sigma=0.3, seed=5),
    OracleConfig(kind="minibatch", batch_size=3, seed=5)])
def test_oracle_grads_records_each_draw(ls_problem, cfg):
    obj, _ = ls_problem
    oracle = Oracle(obj, cfg)
    assert oracle.grads is None
    oracle.draw(np.zeros(5))
    assert oracle.grads is None
    oracle.grads = []
    drawn = [oracle.draw(np.full(5, 0.1 * i)) for i in range(6)]
    assert len(oracle.grads) == len(drawn) == 6
    assert all(g is d for g, d in zip(oracle.grads, drawn))
    # a draw that fails is neither recorded nor counted
    with pytest.raises(ValueError):
        oracle.draw(np.zeros(4))
    assert len(oracle.grads) == 6 and oracle.calls == 7


@pytest.mark.parametrize("kind, n_rows, width", [
    ("gaussian", 3, 1), ("gaussian", 3, 50), ("gaussian", 3, 1025),
    ("minibatch", 1, 1), ("minibatch", 2, 2), ("minibatch", 100, 8),
    ("minibatch", 2000, 1025)])
def test_draws_read_one_stream_across_blocks(kind, n_rows, width):
    # an oracle reads K = max(1, 1024 // width) draws' inputs per generator
    # call; its 2K + 1 draws, at changing points and with a draw that
    # raises at the end of the first block, must equal the draws of one
    # generator call each, bit for bit
    sigma, seed = 0.7, 2**33 + 5
    dim = width if kind == "gaussian" else 3
    A = make_rng(1).random((n_rows, dim))
    obj = least_squares_f(A, A @ np.full(dim, 0.1))
    oracle = Oracle(obj, OracleConfig(kind=kind, sigma=sigma, batch_size=width,
                                      seed=seed))
    rng = make_rng(seed)
    if kind == "gaussian":
        def inputs():
            return rng.standard_normal(dim)

        def expected(x):
            return obj.f_eval(x)[1] + sigma * np.sqrt(
                obj.metric.b_diag / dim) * inputs()
    else:
        def inputs():
            return rng.integers(0, n_rows, size=width)

        def expected(x):
            return obj.row_grad(x, inputs()).mean(axis=0)
    K = max(1, 1024 // width)
    points = make_rng(2).standard_normal((2 * K + 1, dim)) / dim
    for i, x in enumerate(points):
        if i == K - 1:
            # the formula raises after the draw took its inputs
            with pytest.raises(ValueError):
                oracle.draw(np.zeros(dim + 1))
            inputs()
        else:
            assert oracle.draw(x).tobytes() == expected(x).tobytes()
    assert oracle.calls == 2 * K


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(kind="weird")
    with pytest.raises(ValueError):
        OracleConfig(kind="gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        OracleConfig(kind="minibatch", batch_size=0)
    # what no draw can sample is rejected when the config is built
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError):
            OracleConfig(kind="gaussian", sigma=sigma)
    for batch_size in (1.5, 2.0, "2"):
        with pytest.raises(ValueError):
            OracleConfig(kind="minibatch", batch_size=batch_size)


@pytest.mark.parametrize("kind", ["exact", "gaussian", "minibatch"])
@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
def test_oracle_config_rejects_a_bad_seed(kind, seed):
    # checked for every kind, exact ones included, before any generator
    # sees it, with an error that names the seed
    with pytest.raises(ValueError, match=r"seed must be an integer >= 0"):
        OracleConfig(kind=kind, sigma=1.0, seed=seed)
    assert OracleConfig(kind=kind, sigma=1.0, seed=np.int64(2**40)).seed == 2**40


def test_package_exports_resolve():
    # a stale name in __all__ would only fail a star import
    assert all(hasattr(ugbench, name) for name in ugbench.__all__)
    assert len(set(ugbench.__all__)) == len(ugbench.__all__)
    # draw returns the gradient array; the sample wrapper is gone
    assert "GradientSample" not in ugbench.__all__
    assert not hasattr(ugbench, "GradientSample")
    assert isinstance(Oracle(least_squares_f(np.eye(2), np.ones(2))).draw(
        np.zeros(2)), np.ndarray)
