"""Restricted formulas over finite metric structures and theory fingerprints.

Formulas are syntax trees over atomic relation applications, a lattice family
of connectives (max, min, truncated addition of rationals, rational scaling),
and sup/inf quantifiers tagged with a domain index.  On finite structures the
quantifiers evaluate as max/min over the domain, so every sentence has an
exact value; the canonically enumerated universal sentences give a theory
fingerprint that separates non-isomorphic structures.

:func:`eval_formula` evaluates one formula by recursion over assignments and
is the reference.  :func:`universal_fingerprint` gets the same floats another
way: it evaluates each distinct quantifier-free term once, as a numpy array
over all assignments of the variables to the first domain, built from its
children's arrays, and takes each sentence's value as the first maximal
entry of its term's array.  The assignments go in blocks of a fixed number of
term values (``_BLOCK_ENTRIES``, 2^16, so 512 KiB of values plus a few times
that in temporaries), so memory stays flat however large the domain is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError
from .metric import FiniteStructure, Signature

#: Clipping bound for the truncated connectives.
CONNECTIVE_BOUND = 16.0


class Formula:
    def free_vars(self) -> tuple:
        raise NotImplementedError

    def key(self):
        """Canonical tuple used for deterministic enumeration order."""
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(Formula):
    relation: str
    variables: tuple

    def free_vars(self):
        out = []
        for v in self.variables:
            if v not in out:
                out.append(v)
        return tuple(out)

    def key(self):
        return ("atom", self.relation, self.variables)


@dataclass(frozen=True)
class Max(Formula):
    left: Formula
    right: Formula

    def free_vars(self):
        out = list(self.left.free_vars())
        return tuple(out + [v for v in self.right.free_vars() if v not in out])

    def key(self):
        return ("max", self.left.key(), self.right.key())


@dataclass(frozen=True)
class Min(Formula):
    left: Formula
    right: Formula

    def free_vars(self):
        out = list(self.left.free_vars())
        return tuple(out + [v for v in self.right.free_vars() if v not in out])

    def key(self):
        return ("min", self.left.key(), self.right.key())


@dataclass(frozen=True)
class AddConst(Formula):
    """x -> clip(x + q, -bound, bound) for a rational q."""

    const: Fraction
    arg: Formula

    def free_vars(self):
        return self.arg.free_vars()

    def key(self):
        return ("add", str(self.const), self.arg.key())


@dataclass(frozen=True)
class Scale(Formula):
    """x -> clip(q x, -bound, bound) for a rational q."""

    const: Fraction
    arg: Formula

    def free_vars(self):
        return self.arg.free_vars()

    def key(self):
        return ("scale", str(self.const), self.arg.key())


@dataclass(frozen=True)
class Sup(Formula):
    variable: str
    domain: int
    body: Formula

    def free_vars(self):
        return tuple(v for v in self.body.free_vars() if v != self.variable)

    def key(self):
        return ("sup", self.variable, self.domain, self.body.key())


@dataclass(frozen=True)
class Inf(Formula):
    variable: str
    domain: int
    body: Formula

    def free_vars(self):
        return tuple(v for v in self.body.free_vars() if v != self.variable)

    def key(self):
        return ("inf", self.variable, self.domain, self.body.key())


def _clip(v: float) -> float:
    return float(np.clip(v, -CONNECTIVE_BOUND, CONNECTIVE_BOUND))


def eval_formula(phi: Formula, m: FiniteStructure, assignment: dict | None = None) -> float:
    """Compositional evaluation of a formula on a finite structure.

    Quantifiers range over the tagged domain; free variables must be covered
    by the assignment (variable name to point index).
    """
    env = dict(assignment or {})

    def ev(node: Formula, env: dict) -> float:
        if isinstance(node, Atom):
            idx = []
            for v in node.variables:
                if v not in env:
                    raise DimensionError(f"unbound variable {v!r}")
                idx.append(env[v])
            return float(m.table(node.relation)[tuple(idx)])
        if isinstance(node, Max):
            return max(ev(node.left, env), ev(node.right, env))
        if isinstance(node, Min):
            return min(ev(node.left, env), ev(node.right, env))
        if isinstance(node, AddConst):
            return _clip(ev(node.arg, env) + float(node.const))
        if isinstance(node, Scale):
            return _clip(float(node.const) * ev(node.arg, env))
        if isinstance(node, (Sup, Inf)):
            dom = m.domain(node.domain)
            if not dom:
                raise DimensionError(f"quantifier over the empty domain {node.domain}")
            agg = max if isinstance(node, Sup) else min
            return agg(ev(node.body, {**env, node.variable: i}) for i in dom)
        raise DimensionError(f"unknown formula node {type(node).__name__}")

    return ev(phi, env)


def _canonical_tuples(arity: int, max_vars: int):
    """Variable tuples in first-occurrence normal form (x1 appears before x2, ...)."""
    out = []
    for tup in itertools.product(range(1, min(arity, max_vars) + 1), repeat=arity):
        seen: list[int] = []
        ok = True
        for v in tup:
            if v not in seen:
                if v != len(seen) + 1:
                    ok = False
                    break
                seen.append(v)
        if ok:
            out.append(tuple(f"x{v}" for v in tup))
    return out


def _relation_names(signature: Signature | None, m: FiniteStructure | None) -> list:
    if signature is not None:
        names = {"d"} | {r.name for r in signature.relations}
        arities = {r.name: r.arity for r in signature.relations}
    elif m is not None:
        names = {"d"} | set(m.relations)
        arities = {k: t.ndim for k, t in m.relations.items()}
    else:
        names, arities = {"d"}, {}
    arities["d"] = 2
    return sorted((n, arities[n]) for n in names)


def enumerate_universal_terms(signature: Signature | None, depth: int,
                              m: FiniteStructure | None = None,
                              max_vars: int = 3) -> list:
    """Quantifier-free lattice terms up to the given syntactic size.

    Deterministic and nested: the size-d list is a prefix of the size-(d+1)
    list.  Atoms have size 1; each connective adds one.
    """
    if depth < 1:
        raise DimensionError("depth must be at least 1")
    names = _relation_names(signature, m)
    by_size: dict[int, list] = {}
    atoms = []
    for name, arity in names:
        for tup in _canonical_tuples(arity, max_vars):
            atoms.append(Atom(name, tup))
    atoms.sort(key=lambda a: a.key())
    by_size[1] = atoms
    for s in range(2, depth + 1):
        terms: list[Formula] = []
        for t in by_size[s - 1]:
            terms.append(AddConst(Fraction(1), t))
            terms.append(Scale(Fraction(1, 2), t))
        for ls in range(1, s - 1):
            rs = s - 1 - ls
            for a in by_size[ls]:
                for b in by_size[rs]:
                    if a.key() <= b.key():
                        terms.append(Max(a, b))
                        terms.append(Min(a, b))
        terms.sort(key=lambda t: t.key())
        by_size[s] = terms
    out = []
    for s in range(1, depth + 1):
        out.extend(by_size[s])
    return out


def close_universally(term: Formula, domain: int = 1) -> Formula:
    """Sup-quantify every free variable of a term (innermost-last order)."""
    phi = term
    for v in reversed(term.free_vars()):
        phi = Sup(v, domain, phi)
    return phi


#: Term values held at once by :func:`universal_fingerprint`: the assignments
#: are walked in blocks of ``_BLOCK_ENTRIES // len(terms)``, so memory stays
#: flat however many assignments the first domain has.
_BLOCK_ENTRIES = 1 << 16


def _term_plan(terms: list):
    """Bottom-up evaluation plan of an enumerated term list.

    Returns the atoms as ``(row, atom)`` pairs and the other terms as groups
    ``(kind, rows, left, right, consts)`` (row index arrays, and a column of
    the ``AddConst``/``Scale`` constants), one group per connective and
    height, in increasing height.  Every child is lower than its parent, so
    a group is one numpy pass over rows computed before it.  Children are
    found by object identity: the enumeration builds every term once and
    reuses that object wherever it is a child.
    """
    row = {id(t): i for i, t in enumerate(terms)}
    height, atoms, groups = [], [], {}
    for i, t in enumerate(terms):
        kind = type(t)
        if kind is Atom:
            height.append(0)
            atoms.append((i, t))
            continue
        if kind is Max or kind is Min:
            left, right, const = row[id(t.left)], row[id(t.right)], 0.0
        else:
            left = right = row[id(t.arg)]
            const = float(t.const)
        height.append(1 + max(height[left], height[right]))
        groups.setdefault((height[i], kind), []).append((i, left, right, const))
    plan = []
    for (_, kind), records in sorted(groups.items(), key=lambda g: g[0][0]):
        rows, left, right, consts = zip(*records)
        plan.append((kind, np.array(rows), np.array(left), np.array(right),
                     np.array(consts)[:, None]))
    return atoms, plan


def universal_fingerprint(m: FiniteStructure, depth: int = 3) -> np.ndarray:
    """Evaluations of the canonically enumerated restricted universal sentences.

    The enumeration is nested in ``depth``, so a depth-d fingerprint is a
    prefix of the depth-(d+1) one; isomorphic structures have identical
    fingerprints at every depth.  The entry of each term ``t`` of
    :func:`enumerate_universal_terms` is bit for bit
    ``eval_formula(close_universally(t), m)``, signed zeros included.

    Each distinct term is evaluated once, as an array over all assignments of
    x1..xV to the points of ``m.domain(1)`` (V the most variables of an
    atom), built from its children's arrays: an atom is one fancy index into
    its table, ``AddConst`` and ``Scale`` clip ``a + q`` and ``q * a``, and
    ``Max`` and ``Min`` keep the left value unless the right one is strictly
    larger or smaller, as Python's ``max`` and ``min`` do.  The sentence
    value is the first maximal entry in C order of the assignments.

    That equals the nested ``Sup`` of :func:`close_universally`.  The atoms'
    variable tuples are in first-occurrence normal form, so an atom's free
    variables are x1..xj in that order, and the free variables of
    ``Max(a, b)`` and ``Min(a, b)`` (those of a, then the new ones of b) are
    again a prefix x1..xj in order.  So the closure quantifies x1 outermost
    through xj innermost, over the domain in increasing order.  Python's
    ``max`` keeps the first of equal values, so the inner ``Sup`` returns, for
    each prefix, the value at the first xj attaining the maximum, and by
    induction the nested value is the value at the lexicographically first
    (x1..xj) attaining the maximum.  The term's array does not depend on
    x(j+1)..xV, so the first maximal V-assignment in C order starts with that
    same prefix, and equal values are the same floats up to the sign of zero,
    which is exactly what the choice of the first one settles.

    The assignments are walked in C-order blocks of ``_BLOCK_ENTRIES //
    len(terms)``, with a running first-wins maximum, so at most about
    ``_BLOCK_ENTRIES`` term values (a few times that in temporaries) are held
    at once.
    """
    dom = np.asarray(m.domain(1), dtype=np.intp)
    if dom.size == 0:
        raise DimensionError("the first domain is empty, so universal sentences have no value")
    terms = enumerate_universal_terms(m.signature, depth, m)
    atoms, plan = _term_plan(terms)
    nvars = max(len(a.free_vars()) for _, a in atoms)
    tables = [(r, m.table(a.relation), [int(v[1:]) - 1 for v in a.variables]) for r, a in atoms]
    total = dom.size ** nvars
    block = max(1, _BLOCK_ENTRIES // len(terms))
    values = np.empty((len(terms), min(block, total)))
    rows = np.arange(len(terms))
    best = None
    for start in range(0, total, block):
        stop = min(start + block, total)
        points = dom[np.array(np.unravel_index(np.arange(start, stop), (dom.size,) * nvars))]
        v = values[:, :stop - start]
        for r, table, slots in tables:
            v[r] = table[tuple(points[s] for s in slots)]
        for kind, out, left, right, q in plan:
            a = v[left]
            if kind is AddConst:
                v[out] = np.clip(a + q, -CONNECTIVE_BOUND, CONNECTIVE_BOUND)
            elif kind is Scale:
                v[out] = np.clip(q * a, -CONNECTIVE_BOUND, CONNECTIVE_BOUND)
            else:
                b = v[right]
                v[out] = np.where(b > a if kind is Max else b < a, b, a)
        top = v[rows, v.argmax(axis=1)]
        best = top if best is None else np.where(top > best, top, best)
    return best
