import itertools

import numpy as np
import pytest

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


def test_degree_one_map_shape_validation():
    with pytest.raises(DimensionError):
        DegreeOneMap(ambient=1, coeffs=np.zeros((1, 3)))
