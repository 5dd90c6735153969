"""The shared bijection sweep against an independent per-permutation reference.

The reference walks ``itertools.permutations`` one bijection at a time and
tests span membership with its own ``np.linalg.lstsq`` fits, so it shares no
code with ``osclass.linalg``.  Each of the three exact routes (the unitary
oracle and both degree-1 routes) must agree with it on the verdict, on the
first passing bijection in lexicographic order, and on ``tried``.
"""

import itertools
import math

import numpy as np
import pytest

from osclass.degree1 import PointSet, deg1_via_opsys, degree_one_homeomorphic
from osclass.linalg import SWEEP_BLOCK, bijection_sweep, span_membership
from osclass.unitary import TWO_PI, cois_unitary_oracle, spectrum

REPLAY_TOL = 1e-7


def lstsq_in_span(basis, targets, tol):
    coef, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    resid = np.linalg.norm(basis @ coef - targets, axis=0)
    return bool(np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(targets, axis=0))))


def reference_sweep(span_a, span_b, values_a, values_b, tol):
    """(tried, first passing bijection or None) by a per-permutation loop."""
    m = span_a.shape[0]
    for r, perm in enumerate(itertools.permutations(range(m))):
        p = np.array(perm)
        if (lstsq_in_span(span_a, values_b[p], tol)
                and lstsq_in_span(span_b, values_a[np.argsort(p)], tol)):
            return r + 1, list(perm)
    return math.factorial(m), None


def circle_span(zs):
    return np.column_stack([np.ones_like(zs), zs, zs.conj()])


def monomials(points):
    aug = np.hstack([np.ones((points.shape[0], 1)), points])
    n = aug.shape[1]
    return np.column_stack([aug[:, i] * aug[:, j].conj() for i in range(n) for j in range(n)])


def coords_and_products(points):
    n = points.shape[1]
    return np.column_stack([points] + [points[:, k] * points[:, l].conj()
                                       for k in range(n) for l in range(n)])


def unitary_cases():
    rng = np.random.default_rng(31)
    pentagon = TWO_PI * np.arange(5) / 5 + 0.3
    yield "pentagon-rotated", pentagon, pentagon + TWO_PI / 5 + 0.2
    yield "pentagon-reflected", pentagon, -pentagon + 1.1
    yield "four-point", np.angle([1, -1, 1j, -1j]), np.angle([1, (1 + 1j) / np.sqrt(2), 1j, -1])
    for m in range(3, 8):
        a = rng.uniform(0, TWO_PI, m)
        yield f"m{m}-rigid", a, (-a if m % 2 else a) + rng.uniform(0, TWO_PI)
        yield f"m{m}-generic", a, rng.uniform(0, TWO_PI, m)


def point_cases():
    rng = np.random.default_rng(32)
    square = np.array([1, 1j, -1, -1j])
    yield "square", square, 2j * square + 1
    yield "square-centred", np.append(square, 0), np.append(square, 0).conj() * 1.5
    for m in range(3, 8):
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        yield f"m{m}-affine", z, (0.5 - 2j) * z.conj() + 1
        yield f"m{m}-generic", z, rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    yield "dim2-m6", z, z * np.array([1.5, -1j]) + 2


UNITARY_CASES = list(unitary_cases())
POINT_CASES = list(point_cases())


@pytest.mark.parametrize("name,a,b", UNITARY_CASES, ids=[c[0] for c in UNITARY_CASES])
def test_oracle_matches_reference(name, a, b):
    u, v = np.diag(np.exp(1j * a)), np.diag(np.exp(1j * b))
    zs, ws = spectrum(u).points(), spectrum(v).points()
    tried, first = reference_sweep(circle_span(zs), circle_span(ws), zs, ws, 1e-8)
    dec = cois_unitary_oracle(u, v)
    assert (dec.verdict == "Isomorphic") == (first is not None)
    cert = dec.certificate
    if first is None:
        assert tried == math.factorial(zs.size)
        failed = cert.get("failed_bijections")
        assert cert.get("failed_count", len(failed or ())) == tried
        return
    assert cert["bijection"] == first
    p = np.array(first)
    for (c0, c1, c2), src, dst in ((cert["forward_coeffs"], zs, ws[p]),
                                   (cert["backward_coeffs"], ws, zs[np.argsort(p)])):
        assert np.max(np.abs(c0 + c1 * src + c2 * src.conj() - dst)) <= REPLAY_TOL


@pytest.mark.parametrize("name,z,w", POINT_CASES, ids=[c[0] for c in POINT_CASES])
def test_degree_one_routes_match_reference(name, z, w):
    z = z.reshape(z.shape[0], -1)
    w = w.reshape(w.shape[0], -1)
    d, e = PointSet(z.shape[1], z), PointSet(w.shape[1], w)
    tried, first = reference_sweep(monomials(z), monomials(w),
                                   coords_and_products(z), coords_and_products(w), 1e-9)
    for decide in (degree_one_homeomorphic, deg1_via_opsys):
        dec = decide(d, e)
        assert dec.homeomorphic == (first is not None), decide.__name__
        assert dec.tried == tried, decide.__name__
        if first is None:
            assert tried == math.factorial(z.shape[0])
            continue
        assert dec.witness["bijection"] == first
        p = np.array(first)
        inv = np.argsort(p)
        assert lstsq_in_span(monomials(z), coords_and_products(w[p]), 1e-9)
        assert lstsq_in_span(monomials(w), coords_and_products(z[inv]), 1e-9)
        if decide is degree_one_homeomorphic:
            fwd, bwd = dec.witness["forward"], dec.witness["backward"]
            assert np.max(np.abs(monomials(z) @ fwd.coeffs.T - w[p])) <= REPLAY_TOL
            assert np.max(np.abs(monomials(w) @ bwd.coeffs.T - z[inv])) <= REPLAY_TOL


def test_sweep_crosses_blocks_and_reports_residuals_up_to_the_witness():
    # the only passing bijection starts with 1, so it lies past the first
    # 7! = 5040 bijections and outside the first block of the sweep
    zs = np.exp(1j * np.array([0.2, 0.9, 1.3, 2.9, 3.3, 4.0, 5.1, 5.5]))
    p = np.array([1, 0, 2, 3, 4, 5, 6, 7])
    ws = np.exp(0.7j) * zs[p]
    span_z, span_w = circle_span(zs), circle_span(ws)
    bijection, tried, resids = bijection_sweep(span_z, span_w, zs, ws, 1e-8)
    assert (tried, bijection) == reference_sweep(span_z, span_w, zs, ws, 1e-8)
    assert bijection == p.tolist() and tried > SWEEP_BLOCK
    assert resids.shape == (tried, 2)
    assert np.all(resids[:-1].max(axis=1) > 1e-8)
    assert np.all(resids[-1] <= 1e-8 * np.sqrt(8))


def test_batched_span_membership_matches_single_targets():
    rng = np.random.default_rng(33)
    basis = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    inside = basis.T @ (rng.standard_normal(3) + 1j)
    outside = rng.standard_normal(6) + 0j
    coeffs, resid, ok = span_membership(np.column_stack([inside, outside]), basis)
    assert ok.tolist() == [True, False]
    assert resid[0] <= 1e-12 < resid[1]
    assert np.allclose(coeffs[:, 0], span_membership(inside, basis), atol=1e-12)
    assert span_membership(outside, basis) is None
