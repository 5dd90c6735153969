"""The projector search for bijections against an independent m! reference.

The reference walks every bijection in lexicographic order, a block at a
time, and tests span membership with its own ``np.linalg.lstsq`` fits, so it
shares no code with ``osclass.linalg``.  Each of the three exact routes (the
unitary oracle and both degree-1 routes) must agree with it on the verdict, on
the first passing bijection in lexicographic order, and on ``tried``; and the
projector pruning must keep every bijection the reference accepts.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from osclass import linalg, unitary
from osclass.degree1 import (PointSet, deg1_via_opsys, degree_one_homeomorphic,
                              monomial_matrix)
from osclass.errors import CapacityError
from osclass.linalg import FactoredSpan
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
    """(offset, lexicographic block of bijections, two-sided mask) over all m!."""
    m = span_a.shape[0]
    values_a, values_b = values_a.reshape(m, -1), values_b.reshape(m, -1)
    perms_iter = itertools.permutations(range(m))
    offset = 0
    while chunk := list(itertools.islice(perms_iter, 4096)):
        perms = np.array(chunk)
        ok = (transported_in_span(span_a, values_b, perms, tol)
              & transported_in_span(span_b, values_a, np.argsort(perms, axis=1), tol))
        yield offset, perms, ok
        offset += len(chunk)


def reference_sweep(span_a, span_b, values_a, values_b, tol):
    """(tried, first passing bijection or None) by the lexicographic m! sweep."""
    for offset, perms, ok in passing_blocks(span_a, span_b, values_a, values_b, tol):
        if ok.any():
            i = int(np.flatnonzero(ok)[0])
            return offset + i + 1, perms[i].tolist()
    return math.factorial(span_a.shape[0]), None


def reference_accepted(span_a, span_b, values_a, values_b, tol):
    """Every bijection that passes both span tests."""
    return {tuple(p) for _, perms, ok in passing_blocks(span_a, span_b, values_a, values_b, tol)
            for p in perms[ok].tolist()}


def bijection_sweep(span_a, span_b, *rest):
    """The search on two spans given by their columns."""
    return linalg.bijection_sweep(FactoredSpan(span_a), FactoredSpan(span_b), *rest)


def pruning(span_a, span_b, values_a, values_b, tol):
    """Both projectors and the pruning radius of the search."""
    return linalg._pruning(FactoredSpan(span_a), FactoredSpan(span_b), tol)


def survivors(span_a, span_b, values_a, values_b, tol):
    """Every bijection the projector pruning keeps, in the order searched."""
    return [tuple(p) for p in linalg._survivors(*pruning(span_a, span_b, values_a, values_b,
                                                          tol))]


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
    # past the 7! = 5040 bijections that start with 0
    zs = np.exp(1j * np.array([0.2, 0.9, 1.3, 2.9, 3.3, 4.0, 5.1, 5.5]))
    p = np.array([1, 0, 2, 3, 4, 5, 6, 7])
    ws = np.exp(0.7j) * zs[p]
    span_z, span_w = circle_span(zs), circle_span(ws)
    bijection, tried = bijection_sweep(span_z, span_w, zs, ws, 1e-8)
    assert (tried, bijection) == reference_sweep(span_z, span_w, zs, ws, 1e-8)
    assert bijection == p.tolist() and tried > math.factorial(7)


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
    # a residual orthogonal to the span, 0.95 of the bound, all of it on the
    # point of least leverage, which moves the projector most
    zs = np.exp(1j * rng.uniform(0, TWO_PI, 8))
    q = np.linalg.qr(circle_span(zs))[0]
    lever = (np.abs(q) ** 2).sum(axis=1)
    i = int(np.argmin(lever))
    a = np.eye(8)[i] - q @ q[i].conj()
    ws = np.exp(0.9j) * zs
    ws = ws + a * (0.95e-8 * np.linalg.norm(ws) / np.linalg.norm(a))
    yield "circle-worst-case-residual", circle_span(zs), circle_span(ws), zs, ws, 1e-8
    # the same residual on a non-rigid image, whose two sides differ in
    # conditioning, so that the larger side's term sets the radius
    ws = (1.5 - 0.5j) * zs + 0.3j * zs.conj() + 0.2
    ws = ws + a * (0.95e-8 * np.linalg.norm(ws) / np.linalg.norm(a))
    yield "circle-worst-case-affine", circle_span(zs), circle_span(ws), zs, ws, 1e-8
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
def test_frame_candidates_hold_every_accepted_bijection(case):
    """The pruning keeps every bijection that passes both span tests.

    (The name is that of the frame search the projector search replaced, so
    that the case ids of the suite stay put.)
    """
    _, span_a, span_b, values_a, values_b, tol = case
    kept = survivors(span_a, span_b, values_a, values_b, tol)
    assert kept == sorted(set(kept))  # distinct, in lexicographic order
    assert reference_accepted(span_a, span_b, values_a, values_b, tol) <= set(kept)
    bijection, tried = bijection_sweep(span_a, span_b, values_a, values_b, tol)
    assert (tried, bijection) == reference_sweep(span_a, span_b, values_a, values_b, tol)


def projector_gap(span_a, span_b, values_a, values_b, tol, p):
    """Largest entry of ``Pi_A - P Pi_B P^T`` over the pruning radius."""
    proj_a, proj_b, radius = pruning(span_a, span_b, values_a, values_b, tol)
    return np.abs(proj_a - proj_b[np.ix_(p, p)]).max() / radius


def test_adversarial_cases_sit_at_the_pruning_radius():
    cases = {c[0]: c[1:] for c in ADVERSARIAL_SPANS}
    for name in ("circle-noisy-image", "dim1-noisy-affine", "circle-worst-case-residual",
                 "circle-worst-case-affine"):
        (accepted,) = reference_accepted(*cases[name])
        assert survivors(*cases[name]) == [accepted], name
    # the worst cases pass both tests and take up a large part of the radius
    for name, part in (("circle-worst-case-residual", 0.3), ("circle-worst-case-affine", 0.25)):
        assert reference_accepted(*cases[name]) == {tuple(range(8))}, name
        assert projector_gap(*cases[name], list(range(8))) > part, name
    # the two rows of the close pair match both of its targets: the pruning
    # keeps two maps and the span test at the leaves rejects one
    assert len(survivors(*cases["circle-close-pair"])) == 2
    assert len(reference_accepted(*cases["circle-close-pair"])) == 1
    # a regular polygon passes under all 2m dihedral relabellings, and the
    # pruning keeps those and no others
    assert len(survivors(*cases["polygon-m7"])) == 14
    assert len(reference_accepted(*cases["polygon-m7"])) == 14


@pytest.mark.parametrize("m", [5, 7])
def test_full_rank_spans_keep_every_bijection_and_take_the_identity(m):
    span_a, span_b, values_a, values_b, tol = {c[0]: c[1:] for c in ADVERSARIAL_SPANS}[
        f"dim2-full-rank-m{m}"]
    assert len(survivors(span_a, span_b, values_a, values_b, tol)) == math.factorial(m)
    assert bijection_sweep(span_a, span_b, values_a, values_b, tol) == (list(range(m)), 1)


def test_a_singular_value_at_the_cutoff_stops_the_pruning():
    # singular values of the equilibrated span up to 1e-13 times the largest
    # are cut; rounding may put one that close on either side, so nothing is
    # pruned.  The DFT factor gives the columns one norm, so the span, scaled
    # column by column, has these singular values once equilibrated.
    rng = np.random.default_rng(43)
    u = np.linalg.qr(cnormal(rng, 6, 4))[0]
    dft = np.exp(0.5j * np.pi * np.outer(range(4), range(4))) / 2  # unitary, |entries| 1/2
    def radius(last):
        span = u @ np.diag([1.0, 0.5, 0.3, last]) @ dft * [1.0, 1e6, 1e3, 1e9]
        return linalg._pruning(FactoredSpan(span), FactoredSpan(span), 1e-9)[2]

    assert radius(1.0001e-13) == radius(0.9999e-13) == math.inf
    assert radius(1e-3) < 1e-4


def test_node_budget_raises(monkeypatch):
    # the identity of a regular 12-gon is found at the 12th node, a leaf,
    # which counts _LEAF_NODES times
    poly = np.exp(1j * TWO_PI * np.arange(12) / 12)
    span = circle_span(poly)
    monkeypatch.setattr(linalg, "SEARCH_NODE_BUDGET", 11 + linalg._LEAF_NODES)
    assert bijection_sweep(span, span, poly, poly, 1e-8) == (list(range(12)), 1)
    monkeypatch.setattr(linalg, "SEARCH_NODE_BUDGET", 10 + linalg._LEAF_NODES)
    with pytest.raises(CapacityError):
        bijection_sweep(span, span, poly, poly, 1e-8)


def test_factorials_past_the_digit_limit_raise_before_searching():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        m = next(m for m in itertools.count(2) if math.factorial(m) >= 10**640)
        rng = np.random.default_rng(38)
        for size, fits in ((m - 1, True), (m, False)):
            z, w = cnormal(rng, size, 1), cnormal(rng, size, 1)
            args = (monomials(z), monomials(w), coords_and_products(z), coords_and_products(w))
            if fits:
                assert bijection_sweep(*args) == (None, math.factorial(size))
                assert len(str(math.factorial(size))) <= 640
            else:
                with pytest.raises(CapacityError, match="digits"):
                    bijection_sweep(*args)
    finally:
        sys.set_int_max_str_digits(limit)


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
    span = FactoredSpan(basis.T)
    coeffs, resid, ok = span.fit(np.column_stack([inside, outside]))
    assert ok.tolist() == [True, False]
    assert resid[0] <= 1e-12 < resid[1]
    single, _, single_ok = span.fit(inside)
    assert single_ok.tolist() == [True]
    assert np.allclose(coeffs[:, 0], single[:, 0], atol=1e-12)
    assert span.fit(outside)[2].tolist() == [False]


def test_pruning_keeps_near_tol_images():
    """Seeded images whose residual, orthogonal to the span, sits at 50% to
    99% of the bound on a random point: every accepted bijection survives."""
    rng = np.random.default_rng(39)
    found = 0
    for trial in range(24):
        m = 5 + trial % 3
        zs = np.exp(1j * rng.uniform(0, TWO_PI, m))
        q = np.linalg.qr(circle_span(zs))[0]
        ws = ((1.2 + 0.4j) * zs + (0.3 - 0.2j) * zs.conj() + 0.5)
        i = rng.integers(m)
        a = np.eye(m)[i] - q @ q[i].conj()  # e_i with the span projected out
        ws = ws + a * (rng.uniform(0.5, 0.99) * 1e-8 * np.linalg.norm(ws) / np.linalg.norm(a))
        ws = ws[rng.permutation(m)]
        case = (circle_span(zs), circle_span(ws), zs, ws, 1e-8)
        accepted = reference_accepted(*case)
        assert accepted <= set(survivors(*case)), trial
        assert bijection_sweep(*case)[::-1] == reference_sweep(*case), trial
        found += len(accepted)
    assert found >= 20  # nearly every image passes both tests


def test_oracle_decides_two_hundred_points():
    rng = np.random.default_rng(40)
    a = TWO_PI * np.arange(200) / 200 + 0.1
    u = np.diag(np.exp(1j * a))
    v = np.diag(np.exp(1j * (0.77 - a[rng.permutation(200)])))
    dec = cois_unitary_oracle(u, v)
    assert dec.verdict == "Isomorphic"
    zs, ws = spectrum(u).points(), spectrum(v).points()
    p = np.array(dec.certificate["bijection"])
    for (c0, c1, c2), src, dst in ((dec.certificate["forward_coeffs"], zs, ws[p]),
                                   (dec.certificate["backward_coeffs"], ws, zs[np.argsort(p)])):
        assert np.max(np.abs(c0 + c1 * src + c2 * src.conj() - dst)) <= REPLAY_TOL
    generic = np.diag(np.exp(1j * rng.uniform(0, TWO_PI, 200)))
    assert cois_unitary_oracle(u, generic).certificate == {"failed_count": math.factorial(200)}


def test_via_opsys_decides_two_hundred_generic_points():
    rng = np.random.default_rng(43)
    d, e = PointSet(1, cnormal(rng, 200)), PointSet(1, cnormal(rng, 200))
    start = time.monotonic()
    dec = deg1_via_opsys(d, e)
    assert time.monotonic() - start < 0.05  # spans of 200-vectors, not of 200 x 200 matrices
    assert not dec.homeomorphic and dec.witness is None
    assert dec.tried == math.factorial(200)


@pytest.mark.parametrize("m", [9, 12, 16])
def test_two_dimensional_affine_images_past_the_old_cap(m):
    rng = np.random.default_rng(41 + m)
    z = cnormal(rng, m, 2)
    w = (z @ (cnormal(rng, 2, 2) + 2 * np.eye(2)).T + 1)[rng.permutation(m)]
    d, e = PointSet(2, z), PointSet(2, w)
    dec, via = degree_one_homeomorphic(d, e), deg1_via_opsys(d, e)
    assert dec.homeomorphic and via.homeomorphic
    assert dec.witness["bijection"] == via.witness["bijection"] and dec.tried == via.tried
    p = np.array(dec.witness["bijection"])
    assert dec.tried == linalg._lex_rank(p.tolist())
    fwd, bwd = dec.witness["forward"], dec.witness["backward"]
    assert np.max(np.abs(monomials(z) @ fwd.coeffs.T - w[p])) <= REPLAY_TOL
    assert np.max(np.abs(monomials(w) @ bwd.coeffs.T - z[np.argsort(p)])) <= REPLAY_TOL


@pytest.mark.parametrize("m", [9, 10, 12])
def test_degree_one_at_pixel_scale(m, monkeypatch):
    """Coordinates of size 10^3 make the monomial spans badly conditioned
    (columns of norm 1, 10^3 and 10^6); the radius must still prune, so that
    each pair is decided within a budget of a few leaves per point."""
    monkeypatch.setattr(linalg, "SEARCH_NODE_BUDGET", 4 * m * linalg._LEAF_NODES)
    rng = np.random.default_rng(42 + m)
    z = 1e3 * (rng.uniform(0, 1, m) + 1j * rng.uniform(0, 1, m))
    perm = rng.permutation(m)
    d = PointSet(1, z)
    for kind, w in (("affine", ((1 - 2j) * z + 3)[perm]), ("conj", (0.5 + 1j) * z.conj()[perm] - 7),
                    ("generic", 1e3 * (rng.uniform(0, 1, m) + 1j * rng.uniform(0, 1, m)))):
        e = PointSet(1, w)
        dec, via = degree_one_homeomorphic(d, e), deg1_via_opsys(d, e)
        if kind == "generic":
            assert not dec.homeomorphic and not via.homeomorphic
            assert dec.tried == via.tried == math.factorial(m)
            continue
        p = np.argsort(perm).tolist()
        assert dec.witness["bijection"] == via.witness["bijection"] == p, kind
        assert dec.tried == via.tried == linalg._lex_rank(p)
        assert max(dec.witness["residuals"]) <= REPLAY_TOL * 1e3


def positive_decisions():
    """(name, decide) for a positive oracle decision on two given spectra and
    positive degree-1 decisions in dims 1 and 2, all at 7 points."""
    rng = np.random.default_rng(44)
    a = rng.uniform(0, TWO_PI, 7)
    ss = spectrum(np.diag(np.exp(1j * a)))
    tt = spectrum(np.diag(np.exp(1j * (0.4 - a[rng.permutation(7)]))))
    yield "oracle", lambda: unitary._bijection_decision(ss, tt, 1e-9)
    for dim in (1, 2):
        z = cnormal(rng, 7, dim)
        w = (z @ (cnormal(rng, dim, dim) + 2 * np.eye(dim)).T + 1)[rng.permutation(7)]
        d, e = PointSet(dim, z), PointSet(dim, w)
        yield f"deg1-dim{dim}", lambda d=d, e=e: degree_one_homeomorphic(d, e)


POSITIVE_DECISIONS = list(positive_decisions())


@pytest.mark.parametrize("name,decide", POSITIVE_DECISIONS, ids=[c[0] for c in POSITIVE_DECISIONS])
def test_a_positive_decision_factors_each_span_once(name, decide, monkeypatch):
    """The pruning projectors, every span test at the leaves and the
    certificate fits share one SVD per span, and no pseudoinverse is taken."""
    calls = {"svd": 0, "pinv": 0}
    for fn in calls:
        def counted(*args, _fn=fn, _real=getattr(np.linalg, fn), **kwargs):
            calls[_fn] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, counted)
    dec = decide()
    assert dec.verdict == "Isomorphic" if name == "oracle" else dec.homeomorphic
    assert calls == {"svd": 2, "pinv": 0}


@pytest.mark.parametrize("m", [5, 7, 9])
def test_certificates_have_the_bits_of_one_shot_fits(m):
    rng = np.random.default_rng(45 + m)
    a = rng.uniform(0, TWO_PI, m)
    u, v = np.diag(np.exp(1j * a)), np.diag(np.exp(1j * (a + 0.9)[rng.permutation(m)]))
    cert = cois_unitary_oracle(u, v).certificate
    zs, ws = spectrum(u).points(), spectrum(v).points()
    p = np.array(cert["bijection"])
    for key, src, dst in (("forward_coeffs", zs, ws[p]),
                          ("backward_coeffs", ws, zs[np.argsort(p)])):
        coeffs, _, ok = FactoredSpan(circle_span(src)).fit(dst[:, None], 1e-8)
        assert ok.all() and np.array_equal(cert[key], coeffs[:, 0]), key
    for dim in (1, 2):
        z = cnormal(rng, m, dim)
        w = (z.conj() @ (cnormal(rng, dim, dim) + 2 * np.eye(dim)).T - 1j)[rng.permutation(m)]
        d, e = PointSet(dim, z), PointSet(dim, w)
        wit = degree_one_homeomorphic(d, e).witness
        p = np.array(wit["bijection"])
        for key, src, dst in (("forward", d, w[p]), ("backward", e, z[np.argsort(p)])):
            coeffs, _, ok = FactoredSpan(monomial_matrix(src)).fit(dst, 1e-9)
            assert ok.all() and np.array_equal(wit[key].coeffs, coeffs.T), (dim, key)
