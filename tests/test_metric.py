import numpy as np
import pytest

from ugbench.metric import DimensionMismatchError, MetricSpace, dual_norm, norm, pairing


def test_norm_identity_metric():
    space = MetricSpace.euclidean(2)
    assert norm(space, [3.0, 4.0]) == pytest.approx(5.0)


def test_norm_diagonal_scaling():
    space = MetricSpace(2, np.array([4.0, 1.0]))
    assert norm(space, [1.0, 0.0]) == pytest.approx(2.0)


def test_norm_zero_vector():
    space = MetricSpace.euclidean(3)
    assert norm(space, np.zeros(3)) == 0.0


def test_norms_do_not_underflow():
    # the plain sums of squares, ~1e-340, are below the float range
    space = MetricSpace.euclidean(2)
    assert norm(space, [1e-170, 0.0]) == 1e-170
    assert dual_norm(space, [1e-170, 0.0]) == 1e-170
    space = MetricSpace(2, np.array([4.0, 1.0]))
    assert norm(space, [1e-170, 0.0]) == 2e-170
    assert dual_norm(space, [1e-170, 0.0]) == 5e-171


def test_dual_norm_identity_self_dual():
    space = MetricSpace.euclidean(2)
    assert dual_norm(space, [3.0, 4.0]) == pytest.approx(5.0)


def test_dual_norm_inverse_scaling():
    space = MetricSpace(2, np.array([4.0, 1.0]))
    assert dual_norm(space, [2.0, 0.0]) == pytest.approx(1.0)


def test_pairing_examples():
    assert pairing([1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)
    assert pairing(np.zeros(4), np.arange(4.0)) == 0.0


def test_dimension_mismatch_raises():
    space = MetricSpace.euclidean(3)
    with pytest.raises(DimensionMismatchError):
        norm(space, [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        dual_norm(space, [1.0])
    with pytest.raises(DimensionMismatchError):
        pairing([1.0, 2.0], [1.0])


def test_invalid_metric_rejected():
    with pytest.raises(ValueError):
        MetricSpace(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MetricSpace(2, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        MetricSpace(0, np.array([]))


@pytest.fixture
def random_space():
    rng = np.random.Generator(np.random.Philox(42))
    dim = 7
    return MetricSpace(dim, rng.uniform(0.1, 10.0, dim)), rng


def test_cauchy_schwarz_randomized(random_space):
    space, rng = random_space
    for _ in range(1000):
        s = rng.standard_normal(space.dim)
        x = rng.standard_normal(space.dim)
        assert abs(pairing(s, x)) <= dual_norm(space, s) * norm(space, x) * (1 + 1e-12)


def test_metric_duality(random_space):
    space, rng = random_space
    for _ in range(200):
        x = rng.standard_normal(space.dim)
        assert norm(space, x) == pytest.approx(
            dual_norm(space, space.b_diag * x), rel=1e-12
        )


def test_dual_norm_quadratic_identity(random_space):
    space, rng = random_space
    for _ in range(200):
        s = rng.standard_normal(space.dim)
        assert pairing(s, s / space.b_diag) == pytest.approx(
            dual_norm(space, s) ** 2, rel=1e-12
        )


def test_absolute_homogeneity(random_space):
    space, rng = random_space
    for _ in range(100):
        x = rng.standard_normal(space.dim)
        alpha = rng.uniform(-5.0, 5.0)
        assert norm(space, alpha * x) == pytest.approx(abs(alpha) * norm(space, x))
        assert dual_norm(space, alpha * x) == pytest.approx(
            abs(alpha) * dual_norm(space, x)
        )
