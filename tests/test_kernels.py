"""Property tests: each solver kernel gives the bits of its public helper.

The public helpers validate and then call the kernel, so the kernels are
also checked against the numpy formulas they replaced (np.dot, np.sqrt),
over random vectors, extreme metric diagonals and balls off the origin.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ugbench.certificate import (
    CertificateAccumulator,
    _fold,
    _phi_star,
    certificate_gap,
    certificate_update,
)
from ugbench.metric import MetricSpace, _dual_norm, _norm, _pairing, dual_norm, norm, pairing
from ugbench.problems import BallDomain, _project_ball, _prox_step, project_ball, prox_step

SETTINGS = settings(max_examples=150, deadline=None)

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
    assert same_bits(_norm(b, x), float(np.sqrt(np.dot(b * x, x))))
    assert same_bits(_dual_norm(b, s), dual_norm(space, list(s)))
    assert same_bits(_dual_norm(b, s), float(np.sqrt(np.dot(s / b, s))))
    assert same_bits(_pairing(s, x), pairing(list(s), list(x)))
    assert same_bits(_pairing(s, x), float(np.dot(s, x)))


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
