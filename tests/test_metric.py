import itertools

import numpy as np
import pytest

from osclass import metric
from osclass.errors import CapacityError, DimensionError
from osclass.metric import (FiniteStructure, RelationSymbol, Signature, dgh_structures,
                            dk_bruteforce)

PATH3 = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.0],
                  [2.0, 1.0, 0.0]])

TWO_D1 = FiniteStructure(np.array([[0.0, 1.0], [1.0, 0.0]]))
TWO_D2 = FiniteStructure(np.array([[0.0, 2.0], [2.0, 0.0]]))


def exact_isometry_exists(m, n):
    """Permutation oracle: some relabeling equates the metric tables."""
    if m.size != n.size:
        return False
    for p in itertools.permutations(range(m.size)):
        q = np.array(p)
        if np.allclose(m.metric[np.ix_(q, q)], n.metric, atol=1e-12):
            return True
    return False


class TestFiniteStructure:
    def test_accepts_valid_metric(self):
        s = FiniteStructure(PATH3)
        assert s.size == 3
        assert s.domain(1) == (0, 1, 2)

    def test_rejects_triangle_violation(self):
        bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(DimensionError):
            FiniteStructure(bad)

    def test_rejects_asymmetry_and_diagonal(self):
        with pytest.raises(DimensionError):
            FiniteStructure(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(DimensionError):
            FiniteStructure(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_non_finite_entries(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(DimensionError):
                FiniteStructure(np.array([[0.0, bad], [bad, 0.0]]))
            with pytest.raises(DimensionError):
                FiniteStructure(TWO_D1.metric, relations={"R": np.array([0.0, bad])})

    def test_nested_domains(self):
        s = FiniteStructure(PATH3, domains=((0,), (0, 1), (0, 1, 2)))
        assert s.domain(2) == (0, 1)
        assert s.domain(7) == (0, 1, 2)  # clamps at the last level
        with pytest.raises(DimensionError):
            FiniteStructure(PATH3, domains=((0, 1), (0, 2)))  # not nested

    def test_relation_table_shape(self):
        r = np.zeros((3, 3, 3))
        s = FiniteStructure(PATH3, relations={"B": r})
        assert s.table("B").shape == (3, 3, 3)
        with pytest.raises(DimensionError):
            FiniteStructure(PATH3, relations={"B": np.zeros((2, 2))})

    def test_arity_past_the_lift_is_refused(self):
        # d_k lifts an arity-r table over 2r + 1 axes; 32 used to fail in dk_bruteforce
        point = np.zeros((1, 1))
        top = FiniteStructure(point, relations={"R": np.zeros((1,) * metric.MAX_ARITY)})
        assert dk_bruteforce(top, top) == 0.0
        past = metric.MAX_ARITY + 1
        with pytest.raises(DimensionError, match=f"arity {past}, past the largest supported "
                                                 f"arity {past - 1}"):
            FiniteStructure(point, relations={"R": np.zeros((1,) * past)})

    def test_signature_bound_enforced(self):
        sig = Signature(relations=(RelationSymbol("R", 1, bound=1.0),),
                        sublanguages=(frozenset({"d", "R"}),))
        with pytest.raises(DimensionError):
            FiniteStructure(PATH3, relations={"R": np.array([0.0, 2.0, 0.0])},
                            signature=sig)

    def test_relabel_roundtrip(self):
        s = FiniteStructure(PATH3, relations={"R": np.array([1.0, 2.0, 3.0])})
        p = [2, 0, 1]
        t = s.relabel(p)
        # point i of s is point p[i] of t
        for i, j in itertools.product(range(3), repeat=2):
            assert t.metric[p[i], p[j]] == s.metric[i, j]
        assert t.table("R")[p[0]] == s.table("R")[0]
        inv = np.argsort(p)
        back = t.relabel(list(inv))
        assert np.allclose(back.metric, s.metric)


class TestDk:
    def test_identical_structures(self):
        s = FiniteStructure(PATH3)
        assert dk_bruteforce(s, s) == 0.0

    def test_relabeled_structures(self):
        s = FiniteStructure(PATH3, relations={"R": np.array([0.0, 0.5, 1.0])})
        t = s.relabel([1, 2, 0])
        assert dk_bruteforce(s, t) <= 1e-12

    def test_two_point_spaces_hand_value(self):
        # spaces {0,1} at distance 1 vs distance 2: every correspondence has
        # to match the pair (0,1) to a pair of points, and the distance gap
        # |1 - 2| = 1 (or |1 - 0| = 1 against a degenerate pair) is
        # unavoidable, so the critical epsilon is exactly 1
        assert dk_bruteforce(TWO_D1, TWO_D2) == pytest.approx(1.0)

    def test_symmetry(self):
        s = FiniteStructure(PATH3)
        t = FiniteStructure(np.array([[0.0, 1.5, 1.5], [1.5, 0.0, 1.5], [1.5, 1.5, 0.0]]))
        assert dk_bruteforce(s, t) == pytest.approx(dk_bruteforce(t, s), abs=1e-12)

    def test_relation_mismatch_costs(self):
        r0 = FiniteStructure(TWO_D1.metric, relations={"R": np.array([0.0, 0.0])})
        r1 = FiniteStructure(TWO_D1.metric, relations={"R": np.array([1.0, 1.0])})
        assert dk_bruteforce(r0, r0) == 0.0
        assert dk_bruteforce(r0, r1) >= 1.0  # every matching sees the gap

    def test_capacity(self):
        big = FiniteStructure(np.ones((7, 7)) - np.eye(7))
        with pytest.raises(CapacityError):
            dk_bruteforce(big, big, cap=6)

    def test_domain_restriction(self):
        # at level 1 only the first domain is compared
        s = FiniteStructure(PATH3, domains=((0, 1), (0, 1, 2)))
        t = FiniteStructure(2 * PATH3, domains=((0, 1), (0, 1, 2)))
        lvl1 = dk_bruteforce(s, t, k=1)
        lvl2 = dk_bruteforce(s, t, k=2)
        assert lvl1 <= lvl2  # the bigger domain exposes the distance-2 pair

    def test_relation_of_one_side_only_is_rejected_in_both_orders(self):
        # without a signature the symbols are those of both structures; the
        # symbols used to come from the first alone, so (plain, marked) gave 0
        plain = TWO_D1
        marked = FiniteStructure(TWO_D1.metric, relations={"T": np.array([0.0, 1.0])})
        for a, b in ((plain, marked), (marked, plain)):
            with pytest.raises(DimensionError, match="relation 'T' is missing"):
                dk_bruteforce(a, b)

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_levels_below_one_rejected(self, k):
        s = FiniteStructure(PATH3, domains=((0, 1), (0, 1, 2)))
        with pytest.raises(DimensionError):
            dk_bruteforce(s, s, k=k)
        sig = Signature(sublanguages=({"d"}, {"d"}))
        with pytest.raises(DimensionError):
            sig.sublanguage(k)


class TestDgh:
    def test_zero_for_relabelings(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (4, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        s = FiniteStructure(d)
        t = s.relabel([3, 1, 0, 2])
        assert dgh_structures(s, t) <= 1e-12

    def test_zero_iff_isometric_on_triangles(self):
        tri_a = FiniteStructure(PATH3)
        tri_b = tri_a.relabel([2, 1, 0])
        tri_c = FiniteStructure(np.array([[0.0, 1.0, 2.0],
                                          [1.0, 0.0, 2.0],
                                          [2.0, 2.0, 0.0]]))
        assert exact_isometry_exists(tri_a, tri_b)
        assert dgh_structures(tri_a, tri_b) <= 1e-12
        assert not exact_isometry_exists(tri_a, tri_c)
        assert dgh_structures(tri_a, tri_c) > 1e-9

    def test_weighted_sum_formula(self):
        s = FiniteStructure(PATH3)
        t = FiniteStructure(1.5 * PATH3)
        total = dgh_structures(s, t, k_max=3)
        parts = [dk_bruteforce(s, t, k) for k in (1, 2, 3)]
        assert total == pytest.approx(sum(2.0 ** (-k) * p for k, p in zip((1, 2, 3), parts)))

    @pytest.mark.parametrize("domains,searches", [((), 1), (((0, 1), (0, 1, 2)), 2)])
    def test_levels_with_equal_domains_share_one_search(self, monkeypatch, domains, searches):
        s = FiniteStructure(PATH3, domains=domains)
        t = FiniteStructure(1.5 * PATH3, domains=domains)
        expected = sum(2.0 ** (-k) * dk_bruteforce(s, t, k) for k in (1, 2, 3))
        calls = []

        def counted(*args):
            calls.append(args)
            return dk_bruteforce(*args)

        monkeypatch.setattr(metric, "dk_bruteforce", counted)
        assert dgh_structures(s, t, k_max=3) == expected
        assert len(calls) == searches
