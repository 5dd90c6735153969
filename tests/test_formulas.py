import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from osclass import formulas, linalg
from osclass.errors import CapacityError, DimensionError
from osclass.formulas import (AddConst, Atom, Formula, Inf, Max, Min, Scale,
                              Sup, close_universally, enumerate_universal_terms,
                              eval_formula, universal_fingerprint)
from osclass.metric import FiniteStructure, RelationSymbol, Signature

PATH3 = FiniteStructure(np.array([[0.0, 1.0, 2.0],
                                  [1.0, 0.0, 1.0],
                                  [2.0, 1.0, 0.0]]))


class TestEval:
    def test_atom_lookup(self):
        phi = Atom("d", ("x", "y"))
        assert eval_formula(phi, PATH3, {"x": 0, "y": 2}) == 2.0

    def test_connectives(self):
        d = Atom("d", ("x", "y"))
        env = {"x": 0, "y": 1}
        assert eval_formula(Max(d, AddConst(Fraction(1), d)), PATH3, env) == 2.0
        assert eval_formula(Min(d, Scale(Fraction(1, 2), d)), PATH3, env) == 0.5

    def test_clipping(self):
        d = Atom("d", ("x", "y"))
        phi = AddConst(Fraction(100), d)
        assert eval_formula(phi, PATH3, {"x": 0, "y": 1}) == 16.0  # clipped

    def test_quantifiers_are_max_min_over_domains(self):
        d = Atom("d", ("x", "y"))
        sup_phi = Sup("x", 1, Sup("y", 1, d))
        inf_phi = Inf("x", 1, Inf("y", 1, d))
        assert eval_formula(sup_phi, PATH3) == 2.0  # the diameter
        assert eval_formula(inf_phi, PATH3) == 0.0

    def test_sup_respects_restricted_domain(self):
        s = FiniteStructure(PATH3.metric, domains=((0, 1), (0, 1, 2)))
        phi = Sup("x", 1, Sup("y", 1, Atom("d", ("x", "y"))))
        assert eval_formula(phi, s) == 1.0  # the far point is outside level 1

    def test_unbound_variable_raises(self):
        with pytest.raises(DimensionError):
            eval_formula(Atom("d", ("x", "y")), PATH3, {"x": 0})

    def test_missing_relation_raises(self):
        with pytest.raises(DimensionError):
            eval_formula(Atom("R", ("x",)), PATH3, {"x": 0})


class TestEnumeration:
    def test_depth_nesting_prefix_property(self):
        t2 = enumerate_universal_terms(None, 2, PATH3)
        t3 = enumerate_universal_terms(None, 3, PATH3)
        assert len(t3) > len(t2)
        assert [t.key() for t in t3[:len(t2)]] == [t.key() for t in t2]

    def test_deterministic(self):
        a = enumerate_universal_terms(None, 3, PATH3)
        b = enumerate_universal_terms(None, 3, PATH3)
        assert [t.key() for t in a] == [t.key() for t in b]

    def test_atoms_use_normalized_variable_tuples(self):
        terms = enumerate_universal_terms(None, 1, PATH3)
        for t in terms:
            assert isinstance(t, Atom)
            # first occurrence order: x1 before x2
            names = [v for v in t.variables]
            assert names[0] == "x1"

    def test_depth_zero_rejected(self):
        with pytest.raises(DimensionError):
            enumerate_universal_terms(None, 0, PATH3)


class TestCloseUniversally:
    def test_all_variables_bound(self):
        phi = close_universally(Atom("d", ("x1", "x2")))
        assert phi.free_vars() == ()
        assert isinstance(phi, Sup)
        assert eval_formula(phi, PATH3) == 2.0


class TestFingerprint:
    def test_relabeling_invariance(self):
        t = FiniteStructure(PATH3.metric).relabel([2, 0, 1])
        fa = universal_fingerprint(PATH3, depth=3)
        fb = universal_fingerprint(t, depth=3)
        assert np.allclose(fa, fb, atol=0)

    def test_separates_two_point_spaces(self):
        d1 = FiniteStructure(np.array([[0.0, 1.0], [1.0, 0.0]]))
        d2 = FiniteStructure(np.array([[0.0, 2.0], [2.0, 0.0]]))
        f1 = universal_fingerprint(d1, depth=3)
        f2 = universal_fingerprint(d2, depth=3)
        assert f1.shape == f2.shape
        assert np.max(np.abs(f1 - f2)) > 0.5

    def test_prefix_property_across_depths(self):
        f2 = universal_fingerprint(PATH3, depth=2)
        f3 = universal_fingerprint(PATH3, depth=3)
        assert np.allclose(f3[:f2.size], f2)


#: Relation values with ties across the sign of zero and below zero.
SIGNED_VALUES = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


def panel_structure(seed, size, arities, domains=(), signed_metric=False):
    """Points on a line with random relation tables of the given arities.

    With ``signed_metric`` the zero distances (the diagonal and coincident
    points) are stored as -0.0.
    """
    rng = np.random.default_rng(seed)
    line = rng.integers(0, 3, size).astype(float)
    d = np.abs(line[:, None] - line[None, :])
    if signed_metric:
        d[d == 0] = -0.0
    rels = {f"R{a}": rng.choice(SIGNED_VALUES[:5 if signed_metric else 6], (size,) * a)
            for a in arities}
    return FiniteStructure(d, rels, domains=domains)


def reference_fingerprint(m, depth):
    terms = enumerate_universal_terms(m.signature, depth, m)
    return np.array([eval_formula(close_universally(t), m) for t in terms])


FINGERPRINT_PANEL = {
    # the first domain is a proper subset of the points
    "nested": (panel_structure(1, 4, (1, 2), domains=((0, 2), (0, 1, 2, 3))), 5),
    "signed": (panel_structure(5, 4, (1, 2), signed_metric=True), 5),
    # arity 4 exceeds the three variables of an atom, so its atoms repeat variables
    "arity3-4": (panel_structure(2, 3, (3, 4)), 3),
    "one-point": (panel_structure(3, 1, (1, 2, 3, 4), signed_metric=True), 3),
    "one-point-deep": (panel_structure(4, 1, (1, 2)), 5),
}


@pytest.mark.parametrize("name", sorted(FINGERPRINT_PANEL))
def test_fingerprint_bytes_match_eval_formula(name):
    m, max_depth = FINGERPRINT_PANEL[name]
    for depth in range(1, max_depth + 1):
        want = reference_fingerprint(m, depth)
        assert universal_fingerprint(m, depth).tobytes() == want.tobytes(), depth


def test_fingerprint_panel_has_zeros_of_both_signs():
    # the byte comparison above only tells signed zeros apart if some occur
    fps = np.concatenate([universal_fingerprint(m, d) for m, d in FINGERPRINT_PANEL.values()])
    zeros = fps[fps == 0]
    assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))


@pytest.mark.parametrize("values", [[-0.0, 0.0], [0.0, -0.0]])
def test_fingerprint_keeps_the_first_of_tied_zeros(values):
    m = FiniteStructure(np.array([[0.0, 1.0], [1.0, 0.0]]), {"R": np.array(values)})
    keys = [t.key() for t in enumerate_universal_terms(None, 1, m)]
    value = universal_fingerprint(m, 1)[keys.index(("atom", "R", ("x1",)))]
    assert value == 0 and np.signbit(value) == np.signbit(values[0])


def test_fingerprint_bytes_match_with_one_assignment_per_block(monkeypatch):
    # the running first-wins maximum across blocks keeps the sign of zero too
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 1)
    for name in ("nested", "signed"):
        m, _ = FINGERPRINT_PANEL[name]
        assert universal_fingerprint(m, 4).tobytes() == reference_fingerprint(m, 4).tobytes()


def test_fingerprint_rejects_an_empty_first_domain():
    m = FiniteStructure(PATH3.metric, domains=((), (0, 1, 2)))
    with pytest.raises(DimensionError):
        universal_fingerprint(m, 2)
    with pytest.raises(DimensionError):
        eval_formula(close_universally(Atom("d", ("x1", "x2"))), m)


A, B = Atom("d", ("x1", "x2")), Atom("d", ("x2", "x1"))
ONE_OF_EACH = [A, Max(A, B), Min(A, B), AddConst(Fraction(1), A), Scale(Fraction(1), A),
               Sup("x1", 1, A), Inf("x1", 1, A)]


@pytest.mark.parametrize("one,other", [(1, 2), (3, 4), (5, 6)])
def test_connectives_of_one_shape_with_equal_fields_are_unequal(one, other):
    one, other = ONE_OF_EACH[one], ONE_OF_EACH[other]
    assert vars(one) == vars(other) and one != other and one.key() != other.key()
    assert one == type(one)(*vars(one).values())
    assert repr(other).startswith(type(other).__name__ + "(")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(other, next(iter(vars(other))), A)


def test_each_tag_is_the_first_entry_of_its_key_and_the_seven_are_distinct():
    tags = [type(phi).tag for phi in ONE_OF_EACH]
    assert [phi.key()[0] for phi in ONE_OF_EACH] == tags
    assert len(set(tags)) == 7


def test_formula_base_class_is_abstract():
    with pytest.raises(NotImplementedError):
        Formula().free_vars()


def recursive_levels(signature, m, depth):
    """The terms of each size 1..depth as enumerated by recursion over Formula
    trees: atoms from every variable tuple in first-occurrence normal form,
    pairs kept when ``a.key() <= b.key()``, and each size sorted by ``key()``."""
    names = formulas._relation_names(signature, m)
    atoms = []
    for name, arity in names:
        for tup in itertools.product(range(1, min(arity, 3) + 1), repeat=arity):
            seen = []
            for v in tup:
                if v not in seen:
                    if v != len(seen) + 1:
                        break
                    seen.append(v)
            else:
                atoms.append(Atom(name, tuple(f"x{v}" for v in tup)))
    levels = [sorted(atoms, key=lambda a: a.key())]
    for s in range(2, depth + 1):
        terms = []
        for t in levels[-1]:
            terms += [AddConst(Fraction(1), t), Scale(Fraction(1, 2), t)]
        for ls in range(1, s - 1):
            for a in levels[ls - 1]:
                for b in levels[s - 2 - ls]:
                    if a.key() <= b.key():
                        terms += [Max(a, b), Min(a, b)]
        levels.append(sorted(terms, key=lambda t: t.key()))
    return levels


#: The signature of the benchmark's relational structures: a unary and a binary relation.
REL4 = Signature(relations=(RelationSymbol("R", 1), RelationSymbol("B", 2)),
                 sublanguages=({"d"}, {"d", "R"}, {"d", "R", "B"}))

#: Depth-6 enumerations within MAX_TERMS; the others have 260 000 and more terms.
KEY_CASES = [(name, m.signature, m, 6 if name in ("nested", "signed", "one-point-deep") else 5)
             for name, (m, _) in sorted(FINGERPRINT_PANEL.items())] + [("rel4", REL4, None, 6)]


@pytest.mark.parametrize("name,signature,m,depth", KEY_CASES, ids=[c[0] for c in KEY_CASES])
def test_enumeration_matches_the_recursive_reference_key_for_key(name, signature, m, depth,
                                                                   monkeypatch):
    levels = recursive_levels(signature, m, depth)
    for d in range(1, depth + 1):
        want = [t.key() for level in levels[:d] for t in level]
        terms = enumerate_universal_terms(signature, d, m)
        assert [t.key() for t in terms] == want, d
        # the closed-form count is exact: the budget admits the enumeration at
        # its own size and refuses it one term below
        monkeypatch.setattr(formulas, "MAX_TERMS", len(want))
        assert len(enumerate_universal_terms(signature, d, m)) == len(want)
        monkeypatch.setattr(formulas, "MAX_TERMS", len(want) - 1)
        with pytest.raises(CapacityError):
            enumerate_universal_terms(signature, d, m)
        monkeypatch.undo()
    if depth < 6:
        with pytest.raises(CapacityError):
            enumerate_universal_terms(signature, 6, m)


@pytest.mark.parametrize("arity", range(9))
def test_tuple_count_is_the_number_of_canonical_tuples(arity):
    assert formulas._tuple_count(arity) == len(formulas._canonical_tuples(arity))


@pytest.mark.parametrize("arity,depth", [(31, 1), (12, 1), (2, 10 ** 9)])
def test_enumeration_past_the_budget_raises_before_building(arity, depth):
    # 6e14 variable tuples at arity 31: counted in closed form, never walked
    m = FiniteStructure(np.zeros((1, 1)), {"R": np.zeros((1,) * arity)})
    with pytest.raises(CapacityError):
        universal_fingerprint(m, depth)
