"""The frame-and-extend bijection search against an independent m! reference.

The reference walks every bijection in lexicographic order, a block at a
time, and tests span membership with its own ``np.linalg.lstsq`` fits, so it
shares no code with ``osclass.linalg``.  Each of the three exact routes (the
unitary oracle and both degree-1 routes) must agree with it on the verdict, on
the first passing bijection in lexicographic order, and on ``tried``; and the
frame candidates must hold every bijection the reference accepts.
"""

import itertools
import math
import time

import numpy as np
import pytest

from osclass import linalg
from osclass.degree1 import PointSet, deg1_via_opsys, degree_one_homeomorphic
from osclass.linalg import SWEEP_BLOCK, bijection_sweep, span_membership
from osclass.unitary import TWO_PI, cois_unitary_oracle, cois_unitary_theorem, spectrum

REPLAY_TOL = 1e-7


def lstsq_in_span(basis, targets, tol):
    """Per target column: within ``tol * max(1, ||target||)`` of the column space."""
    coef, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    resid = np.linalg.norm(basis @ coef - targets, axis=0)
    return resid <= tol * np.maximum(1.0, np.linalg.norm(targets, axis=0))


def transported_in_span(span, values, perms, tol):
    b, m = perms.shape
    k = values.shape[1]
    targets = values[perms].transpose(1, 0, 2).reshape(m, b * k)
    return lstsq_in_span(span, targets, tol).reshape(b, k).all(axis=1)


def passing_blocks(span_a, span_b, values_a, values_b, tol):
    """(offset, lexicographic block of bijections, forward mask, two-sided mask) over all m!."""
    m = span_a.shape[0]
    values_a, values_b = values_a.reshape(m, -1), values_b.reshape(m, -1)
    perms_iter = itertools.permutations(range(m))
    offset = 0
    while chunk := list(itertools.islice(perms_iter, 4096)):
        perms = np.array(chunk)
        fwd = transported_in_span(span_a, values_b, perms, tol)
        ok = fwd & transported_in_span(span_b, values_a, np.argsort(perms, axis=1), tol)
        yield offset, perms, fwd, ok
        offset += len(chunk)


def reference_sweep(span_a, span_b, values_a, values_b, tol):
    """(tried, first passing bijection or None) by the lexicographic m! sweep."""
    for offset, perms, _, ok in passing_blocks(span_a, span_b, values_a, values_b, tol):
        if ok.any():
            i = int(np.flatnonzero(ok)[0])
            return offset + i + 1, perms[i].tolist()
    return math.factorial(span_a.shape[0]), None


def reference_accepted(span_a, span_b, values_a, values_b, tol, forward_only=False):
    """Every bijection that passes both span tests (or the forward one)."""
    return {tuple(p) for _, perms, fwd, ok in passing_blocks(span_a, span_b, values_a,
                                                               values_b, tol)
            for p in perms[fwd if forward_only else ok].tolist()}


def frame_candidates(span_a, values_b, tol):
    values_b = values_b.reshape(span_a.shape[0], -1)
    return [tuple(p) for block in linalg._frame_candidates(span_a, values_b, tol)
            for p in block.tolist()]


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


def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


def check_oracle(u, v):
    zs, ws = spectrum(u).points(), spectrum(v).points()
    tried, first = reference_sweep(circle_span(zs), circle_span(ws), zs, ws, 1e-8)
    dec = cois_unitary_oracle(u, v)
    assert (dec.verdict == "Isomorphic") == (first is not None)
    cert = dec.certificate
    if first is None:
        assert tried == math.factorial(zs.size)
        assert cert == {"failed_count": tried}
        return
    assert cert["bijection"] == first
    p = np.array(first)
    for (c0, c1, c2), src, dst in ((cert["forward_coeffs"], zs, ws[p]),
                                   (cert["backward_coeffs"], ws, zs[np.argsort(p)])):
        assert np.max(np.abs(c0 + c1 * src + c2 * src.conj() - dst)) <= REPLAY_TOL


def check_degree_one(z, w):
    z = z.reshape(z.shape[0], -1)
    w = w.reshape(w.shape[0], -1)
    d, e = PointSet(z.shape[1], z), PointSet(w.shape[1], w)
    tried, first = reference_sweep(monomials(z), monomials(w),
                                   coords_and_products(z), coords_and_products(w), 1e-9)
    for decide in (degree_one_homeomorphic, deg1_via_opsys):
        dec = decide(d, e, cap=z.shape[0])
        assert dec.homeomorphic == (first is not None), decide.__name__
        assert dec.tried == tried, decide.__name__
        if first is None:
            assert tried == math.factorial(z.shape[0])
            continue
        assert dec.witness["bijection"] == first
        p = np.array(first)
        inv = np.argsort(p)
        assert lstsq_in_span(monomials(z), coords_and_products(w[p]), 1e-9).all()
        assert lstsq_in_span(monomials(w), coords_and_products(z[inv]), 1e-9).all()
        if decide is degree_one_homeomorphic:
            fwd, bwd = dec.witness["forward"], dec.witness["backward"]
            assert np.max(np.abs(monomials(z) @ fwd.coeffs.T - w[p])) <= REPLAY_TOL
            assert np.max(np.abs(monomials(w) @ bwd.coeffs.T - z[inv])) <= REPLAY_TOL


@pytest.mark.parametrize("name,a,b", UNITARY_CASES, ids=[c[0] for c in UNITARY_CASES])
def test_oracle_matches_reference(name, a, b):
    check_oracle(np.diag(np.exp(1j * a)), np.diag(np.exp(1j * b)))


@pytest.mark.parametrize("name,z,w", POINT_CASES, ids=[c[0] for c in POINT_CASES])
def test_degree_one_routes_match_reference(name, z, w):
    check_degree_one(z, w)


def test_sweep_finds_a_witness_past_the_first_block():
    # the only passing bijection starts with 1, so its lexicographic rank is
    # past 7! = 5040 and past SWEEP_BLOCK
    zs = np.exp(1j * np.array([0.2, 0.9, 1.3, 2.9, 3.3, 4.0, 5.1, 5.5]))
    p = np.array([1, 0, 2, 3, 4, 5, 6, 7])
    ws = np.exp(0.7j) * zs[p]
    span_z, span_w = circle_span(zs), circle_span(ws)
    bijection, tried = bijection_sweep(span_z, span_w, zs, ws, 1e-8)
    assert (tried, bijection) == reference_sweep(span_z, span_w, zs, ws, 1e-8)
    assert bijection == p.tolist() and tried > SWEEP_BLOCK


def seeded_spans():
    """(name, span_a, span_b, values_a, values_b, tol) at m <= 7, all three routes' kinds."""
    rng = np.random.default_rng(34)
    for m in range(3, 8):
        a = rng.uniform(0, TWO_PI, m)
        for kind, b in (("rigid", a + rng.uniform(0, TWO_PI)), ("reflected", 1.0 - a),
                        ("generic", rng.uniform(0, TWO_PI, m))):
            zs, ws = np.exp(1j * a), np.exp(1j * b[rng.permutation(m)])
            yield f"circle-m{m}-{kind}", circle_span(zs), circle_span(ws), zs, ws, 1e-8
        z = cnormal(rng, m, 1)
        for kind, w in (("affine", (1 - 2j) * z + 3), ("conj", (0.5 + 1j) * z.conj() - 1),
                        ("generic", cnormal(rng, m, 1))):
            w = w[rng.permutation(m)]
            yield (f"dim1-m{m}-{kind}", monomials(z), monomials(w),
                   coords_and_products(z), coords_and_products(w), 1e-9)


def adversarial_spans():
    rng = np.random.default_rng(35)
    # two points 2e-8 apart, below the match radius: ambiguous candidate sets
    a = np.array([1.0, 1.0 + 2e-8, 1.4, 2.2, 3.9, 5.0, 5.6])
    zs = np.exp(1j * a)
    ws = np.exp(1.3j) * zs[rng.permutation(7)]
    yield "circle-close-pair", circle_span(zs), circle_span(ws), zs, ws, 1e-8
    # images off by 0.8 of the residual bound: predictions miss by about that
    zs = np.exp(1j * rng.uniform(0, TWO_PI, 8))
    noise = cnormal(rng, 8)
    ws = ((1.5 - 0.5j) * zs + 0.3j * zs.conj() + 0.2)[rng.permutation(8)]
    ws = ws + noise * (0.8e-8 * np.sqrt(8) / np.linalg.norm(noise))
    yield "circle-noisy-image", circle_span(zs), circle_span(ws), zs, ws, 1e-8
    z = cnormal(rng, 7, 1)
    noise = cnormal(rng, 7, 1)
    w = ((1 - 2j) * z + 3)[rng.permutation(7)] + noise * (0.8e-9 / np.linalg.norm(noise))
    yield ("dim1-noisy-affine", monomials(z), monomials(w),
           coords_and_products(z), coords_and_products(w), 1e-9)
    # a residual orthogonal to the span, 0.95 of the bound, aimed so that the
    # prediction of one off-frame row misses by sqrt(1 + ||P_i||^2) times it
    zs = np.exp(1j * rng.uniform(0, TWO_PI, 8))
    frame, ext, _ = linalg._frame(circle_span(zs))
    rest = np.delete(np.arange(8), frame)
    i = rest[np.argmax(np.linalg.norm(ext[rest], axis=1))]
    a = -np.conj(ext[i]) @ np.eye(8)[frame]
    a[i] += 1.0
    ws = (1.5 - 0.5j) * zs + 0.3j * zs.conj() + 0.2
    ws = ws + a * (0.95e-8 * np.linalg.norm(ws) / np.linalg.norm(a))
    yield "circle-worst-case-residual", circle_span(zs), circle_span(ws), zs, ws, 1e-8
    for m in (6, 7, 8):
        poly = np.exp(1j * (TWO_PI * np.arange(m) / m + 0.3))
        img = np.exp(0.4j) * poly.conj()
        yield f"polygon-m{m}", circle_span(poly), circle_span(img), poly, img, 1e-8
    hexagon = np.exp(1j * TWO_PI * np.arange(6) / 6).reshape(-1, 1)
    yield ("dim1-hexagon", monomials(hexagon), monomials(2 * hexagon + 1),
           coords_and_products(hexagon), coords_and_products(2 * hexagon + 1), 1e-9)
    concyclic = np.exp(1j * rng.uniform(0, TWO_PI, (7, 1)))
    for kind, w in (("affine", (2 - 1j) * concyclic.conj() + 1j), ("generic", cnormal(rng, 7, 1))):
        w = w[rng.permutation(7)]
        yield (f"dim1-concyclic-{kind}", monomials(concyclic), monomials(w),
               coords_and_products(concyclic), coords_and_products(w), 1e-9)
    for m in (5, 7):
        z = cnormal(rng, m, 2)
        w = cnormal(rng, m, 2)
        yield (f"dim2-full-rank-m{m}", monomials(z), monomials(w),
               coords_and_products(z), coords_and_products(w), 1e-9)


SEEDED_SPANS = list(seeded_spans())
ADVERSARIAL_SPANS = list(adversarial_spans())


@pytest.mark.parametrize("case", SEEDED_SPANS + ADVERSARIAL_SPANS,
                         ids=[c[0] for c in SEEDED_SPANS + ADVERSARIAL_SPANS])
def test_frame_candidates_hold_every_accepted_bijection(case, monkeypatch):
    _, span_a, span_b, values_a, values_b, tol = case
    monkeypatch.setattr(linalg, "FRAME_MIN_POINTS", 1)  # a live frame at every size
    cands = frame_candidates(span_a, values_b, tol)
    assert len(cands) == len(set(cands))
    # the candidates hold every bijection that passes even the forward test
    forward = reference_accepted(span_a, span_b, values_a, values_b, tol, forward_only=True)
    assert forward <= set(cands)
    bijection, tried = bijection_sweep(span_a, span_b, values_a, values_b, tol)
    assert (tried, bijection) == reference_sweep(span_a, span_b, values_a, values_b, tol)


def test_adversarial_cases_exercise_the_frame():
    cases = {c[0]: c for c in ADVERSARIAL_SPANS}
    frame = {name: linalg._frame(c[1])[0].size for name, c in cases.items()}
    assert frame["dim1-concyclic-affine"] == 3  # |z|^2 = 1 is the constant
    assert frame["dim2-full-rank-m7"] == 7  # r = m: every row is a frame row
    # the close pair (rows 0 and 1) lies off the frame, so both of its rows
    # have two targets in reach
    _, span_a, _, _, values_b, tol = cases["circle-close-pair"]
    rows = linalg._frame(span_a)[0]
    assert rows.size == 3 and {0, 1}.isdisjoint(rows.tolist())
    cands = frame_candidates(span_a, values_b, tol)
    assert len({tuple(np.array(p)[rows]) for p in cands}) < len(cands)
    for name in ("circle-noisy-image", "dim1-noisy-affine"):
        assert len(reference_accepted(*cases[name][1:])) == 1, name
    worst = reference_accepted(*cases["circle-worst-case-residual"][1:], forward_only=True)
    assert tuple(range(8)) in worst
    # a regular polygon passes under all 2m dihedral relabellings
    _, span_a, span_b, values_a, values_b, tol = cases["polygon-m7"]
    assert len(reference_accepted(span_a, span_b, values_a, values_b, tol)) == 14


def old_cap_cases():
    """Seeded pairs up to the caps of the m! sweep: oracle 9, dim 1 8, dim 2 6."""
    rng = np.random.default_rng(36)
    for m in range(3, 10):
        a = rng.uniform(0, TWO_PI, m)
        for kind, b in (("rigid", a + rng.uniform(0, TWO_PI)), ("reflected", 2.0 - a),
                        ("generic", rng.uniform(0, TWO_PI, m))):
            yield f"oracle-m{m}-{kind}", "oracle", a, b[rng.permutation(m)]
    for dim, sizes in ((1, range(3, 9)), (2, range(3, 7))):
        for m in sizes:
            z = cnormal(rng, m, dim)
            lin = cnormal(rng, dim, dim) + 2 * np.eye(dim)
            for kind, w in (("affine", z @ lin.T + 1), ("conj", z.conj() @ lin.T - 1j),
                            ("generic", cnormal(rng, m, dim))):
                yield f"dim{dim}-m{m}-{kind}", "deg1", z, w[rng.permutation(m)]


OLD_CAP_CASES = list(old_cap_cases())


@pytest.mark.parametrize("name,route,a,b", OLD_CAP_CASES, ids=[c[0] for c in OLD_CAP_CASES])
def test_matches_the_m_factorial_sweep_up_to_the_old_caps(name, route, a, b):
    if route == "oracle":
        check_oracle(np.diag(np.exp(1j * a)), np.diag(np.exp(1j * b)))
    else:
        check_degree_one(a, b)


def test_raised_caps_agree_with_theorem_and_construction():
    start = time.monotonic()
    rng = np.random.default_rng(37)
    for m in range(10, 21):
        a = rng.uniform(0, TWO_PI, m)
        u = np.diag(np.exp(1j * a))
        for b in (a + rng.uniform(0, TWO_PI), 0.5 - a, rng.uniform(0, TWO_PI, m)):
            v = np.diag(np.exp(1j * b[rng.permutation(m)]))
            orc = cois_unitary_oracle(u, v)
            assert orc.verdict == cois_unitary_theorem(u, v).verdict, m
            if orc.verdict == "NotIsomorphic":
                assert orc.certificate == {"failed_count": math.factorial(m)}
    for m in range(9, 13):
        z = cnormal(rng, m)
        for kind, w in (("affine", (1 - 2j) * z + 3), ("conj", (0.5 + 1j) * z.conj() - 1),
                        ("generic", cnormal(rng, m))):
            w = w[rng.permutation(m)]
            d, e = PointSet(1, z), PointSet(1, w)
            dec, via = degree_one_homeomorphic(d, e), deg1_via_opsys(d, e)
            assert dec.homeomorphic == via.homeomorphic == (kind != "generic"), (m, kind)
            assert dec.tried == via.tried
            if dec.homeomorphic:
                assert dec.witness["bijection"] == via.witness["bijection"]
                assert max(dec.witness["residuals"]) <= REPLAY_TOL
            else:
                assert dec.tried == math.factorial(m)
    assert time.monotonic() - start < 10.0


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
