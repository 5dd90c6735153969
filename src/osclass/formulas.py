"""Restricted formulas over finite metric structures and theory fingerprints.

Formulas are syntax trees over atomic relation applications, a lattice family
of connectives (max, min, truncated addition of rationals, rational scaling),
and sup/inf quantifiers tagged with a domain index.  On finite structures the
quantifiers evaluate as max/min over the domain, so every sentence has an
exact value; the canonically enumerated universal sentences give a theory
fingerprint that separates non-isomorphic structures.

:func:`eval_formula` evaluates one formula by recursion over assignments and
is the reference.  :func:`universal_fingerprint` gets the same floats from
the enumeration's term table, one row per term: it evaluates each row once,
as a numpy array over all assignments of the variables to the first domain
built from its children's arrays, and takes each sentence's value as the
first maximal entry of its term's array.  The assignments go in blocks of
``_BLOCK_ENTRIES`` (2^16) term values, so memory stays flat however large
the domain is, and ``MAX_TERMS`` bounds the table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DimensionError
from .metric import FiniteStructure, Signature

#: Clipping bound for the truncated connectives.
CONNECTIVE_BOUND = 16.0


class Formula:
    tag: str  # the connective's name, spelled once: the first entry of its key()

    def free_vars(self) -> tuple:
        raise NotImplementedError

    def key(self):
        """Canonical tuple used for deterministic enumeration order."""
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(Formula):
    tag = "atom"
    relation: str
    variables: tuple

    def free_vars(self):
        return tuple(dict.fromkeys(self.variables))

    def key(self):
        return (self.tag, self.relation, self.variables)


@dataclass(frozen=True)
class _Lattice(Formula):
    """The shape of ``Max`` and ``Min``."""

    left: Formula
    right: Formula

    def free_vars(self):
        return tuple(dict.fromkeys(self.left.free_vars() + self.right.free_vars()))

    def key(self):
        return (self.tag, self.left.key(), self.right.key())


@dataclass(frozen=True)
class _Affine(Formula):
    """The shape of ``AddConst``, x -> clip(x + q, -bound, bound), and of
    ``Scale``, x -> clip(q x, -bound, bound), for a rational q."""

    const: Fraction
    arg: Formula

    def free_vars(self):
        return self.arg.free_vars()

    def key(self):
        return (self.tag, str(self.const), self.arg.key())


@dataclass(frozen=True)
class _Quantifier(Formula):
    """The shape of ``Sup`` and ``Inf`` over the points of one domain."""

    variable: str
    domain: int
    body: Formula

    def free_vars(self):
        return tuple(v for v in self.body.free_vars() if v != self.variable)

    def key(self):
        return (self.tag, self.variable, self.domain, self.body.key())


class Max(_Lattice):
    tag = "max"


class Min(_Lattice):
    tag = "min"


class AddConst(_Affine):
    tag = "add"


class Scale(_Affine):
    tag = "scale"


class Sup(_Quantifier):
    tag = "sup"


class Inf(_Quantifier):
    tag = "inf"


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


#: Most terms an enumeration may hold: the term table counts its rows in
#: closed form before it builds any, and a larger one raises CapacityError.
MAX_TERMS = 1 << 16


def _canonical_tuples(arity: int) -> list:
    """Variable tuples in first-occurrence normal form (x1 appears before x2,
    ...) with at most three variables."""
    tuples = [()]
    for _ in range(arity):
        tuples = [t + (v,) for t in tuples for v in range(1, min(max(t, default=0) + 1, 3) + 1)]
    return [tuple(f"x{v}" for v in t) for t in tuples]


def _tuple_count(arity: int) -> int:
    """``len(_canonical_tuples(arity))``, the partitions of ``arity`` slots into
    at most three blocks: S(r, 0) + ... + S(r, 3), Stirling numbers of the 2nd kind."""
    return 1 if arity == 0 else 2 ** (arity - 1) + (3 ** arity - 3 * 2 ** arity + 3) // 6


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


#: The unary connectives of the enumeration: Formula class, constant.
_UNARY = ((AddConst, Fraction(1)), (Scale, Fraction(1, 2)))


def _term_table(names: list, depth: int) -> list:
    """The enumeration up to size ``depth`` as rows ``(key, kind, children, const, size)``.

    ``kind`` is the Formula class, ``children`` the rows of its arguments,
    ``const`` the ``AddConst``/``Scale`` constant (else None), and the key its
    ``key()``, built from the children's stored keys.  Size s holds ``+1`` and
    ``*1/2`` of each size-(s-1) term and max and min of each pair (a, b) of
    sizes summing to s - 1 with key(a) <= key(b), sorted by key after the
    smaller sizes.  Keys are distinct, so the pairs number n_i n_j over both
    orders of sizes i != j and n_i (n_i + 1) / 2 for i = j; so the rows are
    counted before any is built, and more than ``MAX_TERMS`` raise CapacityError.
    """
    if depth < 1:
        raise DimensionError("depth must be at least 1")
    n = [sum(_tuple_count(arity) for _, arity in names)]  # n[s - 1] terms of size s
    while len(n) < depth and sum(n) <= MAX_TERMS:
        s = len(n) + 1
        n.append(2 * n[-1] + sum(n[i] * n[s - 3 - i] for i in range(s - 2))
                 + (n[(s - 3) // 2] if s % 2 else 0))
    if sum(n) > MAX_TERMS:
        raise CapacityError(f"the depth-{depth} enumeration has more than {MAX_TERMS} terms")
    rows = sorted((((Atom.tag, name, tup), Atom, (), None, 1)
                   for name, arity in names for tup in _canonical_tuples(arity)),
                  key=lambda r: r[0])
    start = [0, 0, len(rows)]  # the rows of size s are rows[start[s]:start[s + 1]]
    for s in range(2, depth + 1):
        level = [((kind.tag, str(q), rows[c][0]), kind, (c,), q, s)
                 for c in range(start[s - 1], start[s]) for kind, q in _UNARY]
        for ls in range(1, s - 1):
            lo, hi = start[s - 1 - ls], start[s - ls]
            right = [r[0] for r in rows[lo:hi]]
            level += [((kind.tag, rows[a][0], rows[b][0]), kind, (a, b), None, s)
                      for a in range(start[ls], start[ls + 1])
                      for b in range(lo + bisect.bisect_left(right, rows[a][0]), hi)
                      for kind in (Max, Min)]
        level.sort(key=lambda r: r[0])
        rows += level
        start.append(len(rows))
    return rows


def enumerate_universal_terms(signature: Signature | None, depth: int,
                              m: FiniteStructure | None = None) -> list:
    """Quantifier-free lattice terms up to the given syntactic size.

    Deterministic and nested: the size-d list is a prefix of the size-(d+1)
    list.  Atoms have size 1; each connective adds one.  One Formula per row
    of the term table; a child is the object built for its row.
    """
    terms: list[Formula] = []
    for key, kind, children, const, _ in _term_table(_relation_names(signature, m), depth):
        args = [terms[c] for c in children]
        terms.append(Atom(*key[1:]) if kind is Atom
                     else kind(*args) if const is None else kind(const, *args))
    return terms


def close_universally(term: Formula, domain: int = 1) -> Formula:
    """Sup-quantify every free variable of a term (innermost-last order)."""
    phi = term
    for v in reversed(term.free_vars()):
        phi = Sup(v, domain, phi)
    return phi


#: Term values :func:`universal_fingerprint` holds at once, whatever the domain.
_BLOCK_ENTRIES = 1 << 16


def universal_fingerprint(m: FiniteStructure, depth: int = 3) -> np.ndarray:
    """Evaluations of the canonically enumerated restricted universal sentences.

    The enumeration is nested in ``depth``, so a depth-d fingerprint is a
    prefix of the depth-(d+1) one; isomorphic structures have identical
    fingerprints at every depth.  The entry of each term ``t`` of
    :func:`enumerate_universal_terms` is bit for bit
    ``eval_formula(close_universally(t), m)``, signed zeros included.

    Each row of :func:`_term_table` is evaluated once, as an array over all
    assignments of x1..xV to the points of ``m.domain(1)`` (V the most
    variables of an atom), built from its children's arrays in one numpy pass
    per size and connective, as every child is smaller than its parent: the
    atoms of a relation are one fancy index into its table, ``AddConst`` and
    ``Scale`` clip ``a + q`` and ``q * a``, and ``Max`` and ``Min`` keep the
    left value unless the right one is strictly larger or smaller, as
    Python's ``max`` and ``min`` do.  The sentence value is the first maximal
    entry in C order of the assignments.

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
    terms = _term_table(_relation_names(m.signature, m), depth)
    atoms, groups = {}, {}
    for i, (key, kind, children, const, size) in enumerate(terms):
        if kind is Atom:  # its row, then the variable each slot reads
            atoms.setdefault(key[1], []).append([i] + [int(v[1:]) - 1 for v in key[2]])
        else:
            groups.setdefault((size, kind), []).append(
                (i, children[0], children[-1], float(const or 0)))
    nvars = max(len(set(key[2])) for key, kind, *_ in terms if kind is Atom)
    tables = [(m.table(name), np.array(recs, dtype=np.intp).T) for name, recs in atoms.items()]
    plan = [(kind, *(np.array(c) for c in zip(*recs))) for (_, kind), recs in groups.items()]
    total = dom.size ** nvars
    block = max(1, _BLOCK_ENTRIES // len(terms))
    values = np.empty((len(terms), min(block, total)))
    rows = np.arange(len(terms))
    best = None
    for start in range(0, total, block):
        stop = min(start + block, total)
        points = dom[np.array(np.unravel_index(np.arange(start, stop), (dom.size,) * nvars))]
        v = values[:, :stop - start]
        for table, (out, *slots) in tables:
            v[out] = table[tuple(points[s] for s in slots)]
        for kind, out, left, right, q in plan:
            a = v[left]
            if kind is AddConst:
                v[out] = np.clip(a + q[:, None], -CONNECTIVE_BOUND, CONNECTIVE_BOUND)
            elif kind is Scale:
                v[out] = np.clip(q[:, None] * a, -CONNECTIVE_BOUND, CONNECTIVE_BOUND)
            else:
                b = v[right]
                v[out] = np.where(b > a if kind is Max else b < a, b, a)
        top = v[rows, v.argmax(axis=1)]
        best = top if best is None else np.where(top > best, top, best)
    return best
