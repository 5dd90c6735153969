"""The batched d_k search and the vectorised structure code against per-entry loops.

The loops below are the per-correspondence enumeration and the per-entry
tables the package used before its numpy versions; every comparison is exact
(``==``), because the numpy code performs the same float operations.
"""

import itertools

import numpy as np
import pytest

from osclass import metric
from osclass.errors import DimensionError
from osclass.metric import (EXHAUSTIVE_PAIR_LIMIT, ApproxIsometry, FiniteStructure,
                            RelationSymbol, Signature, _gap_table,
                            correspondence_extension, dgh_structures, dk_bruteforce,
                            lift_relation)

# --- per-entry reference ------------------------------------------------------


def ref_gap_table(m, n, pairs):
    out = np.full((m.size, n.size), np.inf)
    for x in range(m.size):
        for y in range(n.size):
            out[x, y] = min(m.metric[x, xp] + n.metric[yp, y] for xp, yp in pairs)
    return out


def ref_eps_of_correspondence(m, n, pairs, dom_m, dom_n, names, slack=1e-9):
    g = ref_gap_table(m, n, pairs)
    eps = 0.0
    for x, xt in itertools.product(dom_m, repeat=2):
        for y in dom_n:
            eps = max(eps, (m.metric[x, xt] - g[x, y] - g[xt, y]) / 2.0)
    for y, yt in itertools.product(dom_n, repeat=2):
        for x in dom_m:
            eps = max(eps, (n.metric[y, yt] - g[x, y] - g[x, yt]) / 2.0)
    matched = {x: [y for y in dom_n if g[x, y] <= slack] for x in dom_m}
    matched_rev = {y: [x for x in dom_m if g[x, y] <= slack] for y in dom_n}
    for name in sorted(names):
        tm, tn = m.table(name), n.table(name)
        arity = tm.ndim
        for xb in itertools.product(dom_m, repeat=arity):
            cands = itertools.product(*(matched[x] for x in xb))
            eps = max(eps, min(abs(tm[xb] - tn[yb]) for yb in cands))
        for yb in itertools.product(dom_n, repeat=arity):
            cands = itertools.product(*(matched_rev[y] for y in yb))
            eps = max(eps, min(abs(tm[xb] - tn[yb]) for xb in cands))
    return max(eps, 0.0)


def ref_full_correspondences(dom_m, dom_n):
    cells = list(itertools.product(dom_m, dom_n))
    for mask in range(1, 1 << len(cells)):
        pairs = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if {p[0] for p in pairs} == set(dom_m) and {p[1] for p in pairs} == set(dom_n):
            yield pairs


def ref_surjection_graphs(dom_m, dom_n):
    if len(dom_m) >= len(dom_n):
        big, small, flip = dom_m, dom_n, False
    else:
        big, small, flip = dom_n, dom_m, True
    for img in itertools.product(small, repeat=len(big)):
        if set(img) != set(small):
            continue
        pairs = [(b, i) for b, i in zip(big, img)]
        if flip:
            pairs = [(i, b) for b, i in pairs]
        yield pairs


def ref_dk(m, n, k=1):
    dom_m, dom_n = m.domain(k), n.domain(k)
    sig = m.signature or n.signature
    names = (set(sig.sublanguage(k)) | {"d"}) if sig is not None else {"d"} | set(m.relations)
    if len(dom_m) * len(dom_n) <= EXHAUSTIVE_PAIR_LIMIT:
        candidates = ref_full_correspondences(dom_m, dom_n)
    else:
        candidates = ref_surjection_graphs(dom_m, dom_n)
    best = np.inf
    for pairs in candidates:
        best = min(best, ref_eps_of_correspondence(m, n, pairs, dom_m, dom_n, names))
        if best == 0.0:
            break
    return float(best)


def ref_graph_metric(structure, name):
    t = structure.table(name)
    arity = t.ndim
    pts = list(itertools.product(range(structure.size), repeat=arity))
    g = np.zeros((len(pts), len(pts)))
    for a in range(len(pts)):
        for b in range(len(pts)):
            coord = max(structure.metric[pts[a][i], pts[b][i]] for i in range(arity))
            g[a, b] = max(coord, abs(t[pts[a]] - t[pts[b]]))
    return pts, g


def ref_lift_table(psi, name, m, n):
    tm, tn = m.table(name), n.table(name)
    pts_m, _ = ref_graph_metric(m, name)
    pts_n, _ = ref_graph_metric(n, name)
    table = np.zeros((len(pts_m), len(pts_n)))
    for a, xb in enumerate(pts_m):
        for b, yb in enumerate(pts_n):
            coord = max(psi[xb[i], yb[i]] for i in range(tm.ndim))
            table[a, b] = max(coord, abs(tm[xb] - tn[yb]))
    return table


def ref_triangle_violation(d):
    m = d.shape[0]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if d[i, j] > d[i, k] + d[k, j] + 1e-12:
                    return f"triangle inequality fails at ({i},{j},{k})"
    return None


# --- inputs ---------------------------------------------------------------------


def euclidean(rng, size):
    pts = rng.uniform(0, 2, (size, 2))
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=2)


SIG = Signature(relations=(RelationSymbol("R", 1), RelationSymbol("B", 2)),
                sublanguages=({"d"}, {"d", "R"}, {"d", "R", "B"}))


def relational(rng, size, domains=()):
    rels = {"R": rng.uniform(0, 1, size), "B": rng.uniform(0, 1, (size, size))}
    return FiniteStructure(euclidean(rng, size), rels, domains, signature=SIG)


# --- the d_k search ---------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (3, 4), (4, 3), (4, 6), (6, 4), (5, 5)])
def test_both_regimes_match_reference(p, q):
    rng = np.random.default_rng([p, q])
    m = FiniteStructure(euclidean(rng, p))
    n = FiniteStructure(euclidean(rng, q))
    assert dk_bruteforce(m, n) == ref_dk(m, n)
    assert dk_bruteforce(n, m) == ref_dk(n, m)


@pytest.mark.parametrize("p,q", [(3, 4), (4, 6)])
def test_tiny_blocks_match_reference(monkeypatch, p, q):
    # many decode chunks and many scoring blocks per chunk, ragged last ones
    monkeypatch.setattr(metric, "DK_BLOCK_ENTRIES", 97)
    rng = np.random.default_rng([p, q, 1])
    m, n = relational(rng, p), relational(rng, q)
    assert dk_bruteforce(m, n, 3) == ref_dk(m, n, 3)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_unary_and_binary_relations_per_level(seed, k):
    rng = np.random.default_rng([seed, k])
    m, n = relational(rng, 3), relational(rng, 2 + seed)
    assert dk_bruteforce(m, n, k) == ref_dk(m, n, k)


def test_relabeled_relations_reach_zero():
    rng = np.random.default_rng(5)
    s = relational(rng, 3)
    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    t = FiniteStructure(s.metric[np.ix_(inv, inv)],
                        {k: v[np.ix_(*[inv] * v.ndim)] for k, v in s.relations.items()},
                        signature=SIG)
    for k in (1, 2, 3):
        assert dk_bruteforce(s, t, k) == ref_dk(s, t, k) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nested_domains(k):
    rng = np.random.default_rng([7, k])
    m = relational(rng, 4, domains=((1,), (0, 1, 3), (0, 1, 2, 3)))
    n = relational(rng, 3, domains=((0, 2), (0, 2), (0, 1, 2)))
    assert dk_bruteforce(m, n, k) == ref_dk(m, n, k)


def test_ternary_relation_without_signature():
    rng = np.random.default_rng(11)
    m = FiniteStructure(euclidean(rng, 2), {"T": rng.uniform(0, 1, (2, 2, 2))})
    n = FiniteStructure(euclidean(rng, 3), {"T": rng.uniform(0, 1, (3, 3, 3))})
    assert dk_bruteforce(m, n) == ref_dk(m, n)


def test_weighted_sum_matches_reference():
    rng = np.random.default_rng(13)
    m = relational(rng, 3, domains=((0, 1), (0, 1, 2)))
    n = relational(rng, 3, domains=((2,), (0, 2), (0, 1, 2)))
    expected = float(sum(2.0 ** (-k) * ref_dk(m, n, k) for k in (1, 2, 3)))
    assert dgh_structures(m, n) == expected


def test_empty_domain_has_no_correspondence():
    m = FiniteStructure(np.zeros((1, 1)), domains=((), (0,)))
    with pytest.raises(DimensionError, match="no full correspondence"):
        dk_bruteforce(m, m, 1)


# --- structure checks and tables ----------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_triangle_check_names_the_first_violation(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 8))
    d = euclidean(rng, size)
    bump = np.triu(rng.uniform(-0.5, 1.5, (size, size)) * (rng.random((size, size)) < 0.3), 1)
    d = np.maximum(d + bump + bump.T, 0.0)
    expected = ref_triangle_violation(d)
    if expected is None:
        FiniteStructure(d)
    else:
        with pytest.raises(DimensionError) as err:
            FiniteStructure(d)
        assert str(err.value) == expected


@pytest.mark.parametrize("seed", range(5))
def test_gap_table_and_lift_match_reference(seed):
    rng = np.random.default_rng([seed, 99])
    m = FiniteStructure(euclidean(rng, 3), {"R": rng.uniform(0, 1, 3),
                                            "B": rng.uniform(0, 1, (3, 3))})
    n = FiniteStructure(euclidean(rng, 4), {"R": rng.uniform(0, 1, 4),
                                            "B": rng.uniform(0, 1, (4, 4))})
    cells = list(itertools.product(range(3), range(4)))
    pairs = [cells[i] for i in rng.choice(len(cells), 5, replace=False)]
    assert np.array_equal(_gap_table(m, n, pairs), ref_gap_table(m, n, pairs))
    psi = correspondence_extension(m, n, pairs, 2.0)
    ai = ApproxIsometry(psi=psi, dx=m.metric, dy=n.metric)
    for name in ("d", "R", "B"):
        lifted = lift_relation(ai, name, m, n)
        assert np.array_equal(lifted.psi, ref_lift_table(psi, name, m, n))
        assert np.array_equal(lifted.dx, ref_graph_metric(m, name)[1])
        assert np.array_equal(lifted.dy, ref_graph_metric(n, name)[1])
