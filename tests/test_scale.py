"""The exact routes at large and spread coordinates.

Whether two point sets are degree-1 homeomorphic does not depend on the
scale of their coordinates, and neither may the answer: each span is
equilibrated before it is factored, and the span test reads the distance
from the kept range, whose rounding does not grow with the conditioning.
Every search here runs under a budget of 400 nodes, a few complete maps, so
each must also be pruned well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclass import linalg
from osclass.degree1 import PointSet, deg1_via_opsys, degree_one_homeomorphic
from osclass.opsys import build_system

ROUTES = [degree_one_homeomorphic, deg1_via_opsys]


@pytest.fixture(autouse=True)
def small_budget(monkeypatch):
    """A budget of a few complete maps: every search here is well pruned."""
    monkeypatch.setattr(linalg, "SEARCH_NODE_BUDGET", 400)


def cnormal(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def decide(route, z, w):
    return route(PointSet(1, np.asarray(z)), PointSet(1, np.asarray(w)))


def replays(dec, z, w):
    """Both maps of a ``degree_one_homeomorphic`` witness, relative to the values."""
    p = np.array(dec.witness["bijection"])
    for fit, src, dst in ((dec.witness["forward"], z, w[p]),
                          (dec.witness["backward"], w, z[np.argsort(p)])):
        out = fit.apply(PointSet(1, src))[:, 0]
        assert np.max(np.abs(out - dst)) <= 1e-9 * np.max(np.abs(dst))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("scale", [1e6, 1e10, 1e50])
def test_affine_image_at_large_scale(route, scale):
    # the reversal is the last of the 8! maps in lexicographic order
    z = scale * cnormal(np.random.default_rng(0), 8)
    w = (2 - 1j) * z[::-1] + 5 * scale
    dec = decide(route, z, w)
    assert dec.homeomorphic is True and dec.tried == math.factorial(8)
    assert dec.witness["bijection"] == list(range(7, -1, -1))
    if route is degree_one_homeomorphic:
        replays(dec, z, w)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("scale", [1e77, 1e120, 1e150])
def test_affine_image_past_the_square_of_the_float_range(route, scale):
    # from coordinates near 10^77 the squares inside a plain column norm of
    # |z|^2 overflow, though every monomial and every true norm is finite
    z = cnormal(np.random.default_rng(0), 6)
    dec = decide(route, z * scale, ((2 - 1j) * z[::-1] + 5) * scale)
    assert dec.homeomorphic is True
    assert dec.witness["bijection"] == list(range(5, -1, -1))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("m,scale", [(9, 1e6), (9, 1e9), (12, 1e6), (12, 1e9)])
def test_permuted_affine_image_at_large_scale(route, m, scale):
    rng = np.random.default_rng(m)
    z = scale * cnormal(rng, m)
    perm = rng.permutation(m)
    w = (1 + 1j) * z[perm] - 2 * scale
    dec = decide(route, z, w)
    assert dec.homeomorphic is True
    assert dec.witness["bijection"] == np.argsort(perm).tolist()
    assert dec.tried == linalg._lex_rank(np.argsort(perm).tolist())


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("spread", [1e4, 1e8])
def test_four_points_in_general_position_at_any_spread(route, spread):
    # four monomials on four points in general position span every function,
    # so the identity passes however far the last point lies
    z = np.array([0, 1, 1j, spread])
    w = np.array([0, 1 + 1j, 3, 5j])
    dec = decide(route, z, w)
    assert dec.homeomorphic is True and dec.tried == 1
    assert dec.witness["bijection"] == [0, 1, 2, 3]


def test_routes_agree_with_one_far_point():
    z = cnormal(np.random.default_rng(1), 7)
    z[3] = 1e6
    w = (0.5 + 2j) * z + 1 - 1j
    default, via = (decide(route, z, w) for route in ROUTES)
    assert default.homeomorphic is via.homeomorphic is True
    assert default.tried == via.tried == 1
    assert default.witness["bijection"] == via.witness["bijection"] == list(range(7))
    replays(default, z, w)


@pytest.mark.parametrize("exponent", [13, 20, 50, 100])
def test_build_system_at_large_scale(exponent):
    gen = np.array([[0.3, 1], [-0.5, 0.2j]]) * 10.0 ** exponent
    x = build_system([gen])
    assert x.dim == 3
    assert np.allclose(x.unit(), np.eye(2), atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 8), exponent=st.integers(0, 50),
       conj=st.booleans())
def test_both_routes_find_affine_images_at_every_scale(seed, m, exponent, conj):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    z = scale * cnormal(rng, m)
    a = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.uniform())
    perm = rng.permutation(m)
    w = (a * (z.conj() if conj else z) + scale * cnormal(rng, 1))[perm]
    planted = linalg._lex_rank(np.argsort(perm).tolist())
    for route in ROUTES:
        dec = decide(route, z, w)
        # the planted map passes, so the first passing one comes no later
        assert dec.homeomorphic is True and dec.tried <= planted
