import itertools

import numpy as np
import pytest

from osclass import degree1, opsys
from osclass.errors import CapacityError, DimensionError
from osclass.degree1 import (DegreeOneMap, PointSet, deg1_via_opsys,
                             degree_one_homeomorphic, is_degree_one_assignment,
                             monomial_matrix, normal_system)


def lstsq_assignment_oracle(points, values, tol=1e-9):
    """Independent normal-equations oracle for the degree-1 assignment test
    (one complex dimension): solve for coefficients of 1, conj z, z, z conj z
    and check both the coordinate and the squared-modulus residuals."""
    z = np.asarray(points, dtype=complex).ravel()
    w = np.asarray(values, dtype=complex).ravel()
    m = np.column_stack([np.ones_like(z), z.conj(), z, z * z.conj()])
    ok = True
    for target in (w, w * w.conj()):
        c, *_ = np.linalg.lstsq(m, target, rcond=None)
        if np.linalg.norm(m @ c - target) > tol * (1 + np.linalg.norm(target)):
            ok = False
    return ok


def random_points(rng, m, n=1):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestMonomialMatrix:
    def test_dim1_column_order(self):
        z = np.array([2.0 + 1j, -1.0])
        mat = monomial_matrix(PointSet(1, z))
        expected = np.column_stack([np.ones(2), z.conj(), z, np.abs(z) ** 2])
        assert np.allclose(mat, expected)

    def test_dim2_shape(self):
        d = PointSet(2, np.array([[1.0, 2.0], [3.0, 1j], [0.0, 1.0]]))
        assert monomial_matrix(d).shape == (3, 9)


class TestPointSet:
    def test_rejects_duplicate_points(self):
        with pytest.raises(DimensionError):
            PointSet(1, np.array([1.0, 1.0 + 1e-12]))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            PointSet(2, np.array([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("m,n", [(7, 1), (300, 2), (2000, 1)])
    def test_names_the_first_coincident_pair(self, m, n):
        # three planted pairs on distinct points; the blocked check names the
        # one a row-major loop over i < j meets first
        rng = np.random.default_rng(m)
        pts = random_points(rng, m, n)
        pairs = np.sort(rng.choice(m, 6, replace=False).reshape(3, 2), axis=1)
        pts[pairs[:, 1]] = pts[pairs[:, 0]] + 0.5e-9
        i, j = min(map(tuple, pairs.tolist()))
        with pytest.raises(DimensionError, match=f"points {i} and {j} coincide"):
            PointSet(n, pts)
        assert PointSet(n, random_points(rng, m, n)).size == m

class TestAssignment:
    def test_affine_image_is_degree_one(self):
        rng = np.random.default_rng(0)
        z = random_points(rng, 6).ravel()
        w = (2 - 1j) * z + 0.5
        fit = is_degree_one_assignment(PointSet(1, z), w)
        assert fit is not None
        assert np.allclose(fit.coeffs[0], [0.5, 0.0, 2 - 1j, 0.0], atol=1e-8)
        assert lstsq_assignment_oracle(z, w)

    def test_conjugation_is_degree_one(self):
        rng = np.random.default_rng(1)
        z = random_points(rng, 6).ravel()
        fit = is_degree_one_assignment(PointSet(1, z), z.conj())
        assert fit is not None

    def test_agrees_with_oracle_on_random_assignments(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = int(rng.integers(5, 8))
            z = random_points(rng, m).ravel()
            w = random_points(rng, m).ravel()
            got = is_degree_one_assignment(PointSet(1, z), w) is not None
            assert got == lstsq_assignment_oracle(z, w)

    def test_small_sets_always_pass(self):
        # with at most 4 points in C the four monomials already exhaust C^m
        rng = np.random.default_rng(3)
        z = random_points(rng, 4).ravel()
        w = random_points(rng, 4).ravel()
        assert is_degree_one_assignment(PointSet(1, z), w) is not None

    def test_apply_replays_values(self):
        rng = np.random.default_rng(4)
        z = random_points(rng, 5).ravel()
        w = 1j * z.conj() - 2.0
        fit = is_degree_one_assignment(PointSet(1, z), w)
        assert np.max(np.abs(fit.apply(PointSet(1, z)).ravel() - w)) < 1e-9


class TestHomeomorphismDecision:
    def test_affine_and_conjugate_images(self):
        rng = np.random.default_rng(5)
        z = random_points(rng, 6).ravel()
        d = PointSet(1, z)
        for w in ((1 + 2j) * z - 3.0, z.conj(), (0.5 - 1j) * z.conj() + 2j):
            dec = degree_one_homeomorphic(d, PointSet(1, w))
            assert dec.homeomorphic
            assert max(dec.witness["residuals"]) < 1e-8

    def test_generic_pairs_of_five_points_fail(self):
        rng = np.random.default_rng(6)
        found = []
        for _ in range(10):
            d = PointSet(1, random_points(rng, 5))
            e = PointSet(1, random_points(rng, 5))
            dec = degree_one_homeomorphic(d, e)
            # exhaustive double-check with the independent oracle
            oracle = any(
                lstsq_assignment_oracle(d.points.ravel(), e.points.ravel()[list(p)])
                and lstsq_assignment_oracle(e.points.ravel()[list(p)], d.points.ravel())
                for p in itertools.permutations(range(5))
            )
            assert dec.homeomorphic == oracle
            found.append(dec.homeomorphic)
        assert not any(found)  # random pairs should be inequivalent

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        d = PointSet(1, random_points(rng, 5))
        e = PointSet(1, 2.0 * d.points.conj() + 1.5j)
        assert degree_one_homeomorphic(d, e).homeomorphic
        assert degree_one_homeomorphic(e, d).homeomorphic

    def test_size_mismatch_is_negative(self):
        d = PointSet(1, np.array([0.0, 1.0]))
        e = PointSet(1, np.array([0.0, 1.0, 2.0]))
        assert not degree_one_homeomorphic(d, e).homeomorphic

    def test_cap(self):
        # there is no default cap; an explicit one bounds the point count
        rng = np.random.default_rng(8)
        d = PointSet(1, random_points(rng, 13))
        for decide in (degree_one_homeomorphic, deg1_via_opsys):
            with pytest.raises(CapacityError):
                decide(d, d, cap=12)
            assert decide(d, d, cap=13).tried == 1
            assert decide(d, d).tried == 1

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            degree_one_homeomorphic(PointSet(1, np.array([0.0, 1.0])),
                                    PointSet(2, np.array([[0.0, 1.0], [1.0, 0.0]])))


class TestOpsysRoute:
    def test_normal_system_contains_products(self):
        rng = np.random.default_rng(9)
        d = PointSet(1, random_points(rng, 5))
        sys_d = normal_system(d)
        assert sys_d.ambient_dim == 5
        # function span = span{1, z, conj z, |z|^2} on five generic points
        assert sys_d.dim == 4

    def test_agrees_with_direct_decision(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = int(rng.integers(4, 7))
            z = random_points(rng, m).ravel()
            d = PointSet(1, z)
            if rng.uniform() < 0.5:
                w = (rng.standard_normal() + 1j * rng.standard_normal()) * z + 1.0
                e = PointSet(1, w)
            else:
                e = PointSet(1, random_points(rng, m))
            a = degree_one_homeomorphic(d, e)
            b = deg1_via_opsys(d, e)
            assert a.homeomorphic == b.homeomorphic

    def test_two_dimensional_points(self):
        rng = np.random.default_rng(11)
        d = PointSet(2, random_points(rng, 4, 2))
        scale = np.array([1.5 - 1j, 0.5j])
        e = PointSet(2, d.points * scale + np.array([1.0, -2.0]))
        assert degree_one_homeomorphic(d, e).homeomorphic
        assert deg1_via_opsys(d, e).homeomorphic


def rank_dropping_sets():
    """Point sets whose candidate functions are dependent, with the expected span dimension."""
    rng = np.random.default_rng(12)
    z = random_points(rng, 7).ravel()
    yield "concyclic", np.exp(1j * rng.uniform(0, 2 * np.pi, 7)) * 1.5 + (0.5 - 1j), 3
    yield "collinear", (0.6 + 0.8j) * rng.standard_normal(7) + 1j, 3
    yield "real-line", rng.standard_normal(7) + 0j, 3
    yield "dim2-conjugate", np.column_stack([z, z.conj()]), 6
    yield "dim2-affine", np.column_stack([z, 2 * z + 1]), 4


RANK_DROPPING = list(rank_dropping_sets())


class TestFunctionSpan:
    @pytest.mark.parametrize("name,z,rank", RANK_DROPPING, ids=[c[0] for c in RANK_DROPPING])
    def test_matches_the_diagonal_operator_system(self, name, z, rank):
        d = PointSet(1 if z.ndim == 1 else z.shape[1], z)
        system = normal_system(d)
        diagonals = np.diagonal(system.basis, axis1=1, axis2=2)
        # the m x m construction: build_system on the diagonal coordinate matrices
        vs = [np.diag(v) for v in d.points.T]
        products = [a @ b.conj().T for a in vs for b in vs]
        reference = opsys.build_system(vs + products)
        assert system.dim == reference.dim == rank
        assert np.allclose(diagonals, np.diagonal(reference.basis, axis1=1, axis2=2),
                           rtol=0, atol=1e-14 * np.abs(diagonals).max())
        assert np.count_nonzero(system.basis) == np.count_nonzero(diagonals)
        assert np.array_equal(system.unit(), np.eye(d.size))
        assert np.allclose(reference.unit_coeffs, system.unit_coeffs, atol=1e-12)

    @pytest.mark.parametrize("name,z,rank", RANK_DROPPING, ids=[c[0] for c in RANK_DROPPING])
    def test_both_routes_agree(self, name, z, rank):
        rng = np.random.default_rng(13)
        z = z.reshape(z.shape[0], -1)
        n = z.shape[1]
        d = PointSet(n, z)
        perm = rng.permutation(z.shape[0])
        a = random_points(rng, n, n) + 2 * np.eye(n)
        images = [(z @ a.T + 1)[perm], (z.conj() @ a.T - 1j)[perm], random_points(rng, z.shape[0], n)]
        for w in images:
            e = PointSet(n, w)
            dec, via = degree_one_homeomorphic(d, e), deg1_via_opsys(d, e)
            assert (dec.homeomorphic, dec.tried) == (via.homeomorphic, via.tried)
            if dec.homeomorphic:
                assert dec.witness["bijection"] == via.witness["bijection"]
        assert deg1_via_opsys(d, PointSet(n, images[0])).homeomorphic
        assert not deg1_via_opsys(d, PointSet(n, images[2])).homeomorphic


NON_FINITE = [
    ("nan-point", np.array([0, 1, 1j, complex(np.nan, 0)])),
    ("overflowing-monomial", np.array([0, 1, 1j, 1e160])),
]


@pytest.mark.parametrize("name,z", NON_FINITE, ids=[c[0] for c in NON_FINITE])
@pytest.mark.parametrize("decide", [degree_one_homeomorphic, deg1_via_opsys])
def test_non_finite_or_overflowing_points_raise(name, z, decide):
    e = PointSet(1, np.array([0, 1 + 1j, 3, 5j]))
    with pytest.raises(DimensionError):
        decide(PointSet(1, z), e)
    with pytest.raises(DimensionError):
        decide(e, PointSet(1, z))


def test_point_set_rejects_non_finite_coordinates():
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        with pytest.raises(DimensionError):
            PointSet(2, np.array([[0, 1], [bad, 2]]))


def test_monomial_matrix_rejects_overflow():
    with pytest.raises(DimensionError):
        monomial_matrix(PointSet(1, np.array([0, 1e155])))


def test_degree_one_map_shape_validation():
    with pytest.raises(DimensionError):
        DegreeOneMap(ambient=1, coeffs=np.zeros((1, 3)))


def test_opsys_route_decides_different_sizes_without_a_search(monkeypatch):
    monkeypatch.setattr(degree1, "bijection_sweep", lambda *args: pytest.fail("searched"))
    d = PointSet(1, np.array([0.0, 1.0, 2j]))
    e = PointSet(1, np.array([0.0, 1.0]))
    for a, b in ((d, e), (e, d)):
        dec = deg1_via_opsys(a, b)
        assert not dec.homeomorphic and dec.witness is None and dec.tried == 0
