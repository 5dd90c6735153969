"""The batched d_k search and the vectorised structure code against per-entry loops.

The loops below are the per-correspondence enumeration and the per-entry
tables the package used before its numpy versions; every comparison is exact
(``==``), because the numpy code performs the same float operations.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclass import linalg, metric
from osclass.errors import DimensionError
from osclass.metric import (EXHAUSTIVE_PAIR_LIMIT, FiniteStructure, RelationSymbol,
                            Signature, dgh_structures, dk_bruteforce)

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
    if sig is not None:
        names = set(sig.sublanguage(k)) | {"d"}
    else:
        names = {"d"} | set(m.relations) | set(n.relations)
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


def grid_duplicates(rng, size):
    """``relational`` on a 3 x 3 grid with values in {0, 1/2, 1}, points 0 and
    1 equal: a cell matches pairs beyond itself, so the cells are not
    separated."""
    pts = rng.integers(0, 3, (size, 2))
    pts[1] = pts[0]
    rels = {"R": rng.integers(0, 3, size) / 2, "B": rng.integers(0, 3, (size, size)) / 2}
    return FiniteStructure(grid_metric(pts), rels, signature=SIG)


@pytest.mark.parametrize("p,q,duplicates", [(3, 4, False), (4, 6, False), (5, 5, True)],
                         ids=["3-4", "4-6", "grid-duplicates5x5"])
def test_tiny_blocks_match_reference(monkeypatch, p, q, duplicates):
    # many decode chunks and many scoring blocks per chunk, ragged last ones;
    # the 5x5 grid pair is past 20 cells and not separated, so the graph
    # search runs on the Katetov bound alone
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 97)
    rng = np.random.default_rng([p, q, 1])
    build = grid_duplicates if duplicates else relational
    m, n = build(rng, p), build(rng, q)
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


#: (|D|, |E|) domain sizes of the property test: the exhaustive regime at
#: up to 9 cells, then beyond it, where the reference scores up to 1806 graphs.
SMALL_SIZES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]
SIZES = SMALL_SIZES + [(5, 5), (4, 6), (7, 3)]


@st.composite
def structure_pairs(draw, top):
    """Two structures on the same symbols, and the number of levels to compare.

    The largest domains have sizes drawn from ``top``.
    Points lie on a 3 x 3 grid (duplicates and tied distances) or anywhere
    in a square; relation values lie in {0, 1/2, 1} or anywhere in [0, 1].
    Nested domains take their sizes from ``SIZES`` too; a ternary relation
    comes only with at most 25 cells.
    """
    p, q = draw(st.sampled_from(top))
    levels = [(p, q)] * 2
    if draw(st.booleans()):
        first = draw(st.sampled_from([(a, b) for a, b in SIZES if a <= p and b <= q]))
        levels = [first, draw(st.sampled_from([(a, b) for a, b in SIZES
                                               if first[0] <= a <= p and first[1] <= b <= q]))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    arities = draw(st.lists(st.integers(1, 3 if p * q <= 25 else 2), max_size=2))
    names = [f"R{i}" for i in range(len(arities))]
    sig = None
    if draw(st.booleans()):
        syms = tuple(RelationSymbol(nm, r) for nm, r in zip(names, arities))
        sig = Signature(relations=syms, sublanguages=({"d"}, {"d", *names[:1]}, {"d", *names}))

    def structure(size, side):
        pts = rng.integers(0, 3, (size, 2)) if grid else rng.uniform(0, 2, (size, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)

        def values(shape):
            return rng.integers(0, 3, shape) / 2 if grid else rng.uniform(0, 1, shape)

        rels = {nm: values((size,) * r) for nm, r in zip(names, arities)}
        order = rng.permutation(size)
        doms = tuple(tuple(order[:sizes[side]]) for sizes in levels) + (tuple(range(size)),)
        return FiniteStructure(dist, rels, doms, signature=sig)

    return structure(p, 0), structure(q, 1), draw(st.integers(1, 3))


@pytest.mark.parametrize("top,examples", [(SMALL_SIZES, 60), ([(5, 5)], 20), ([(4, 6)], 8),
                                          ([(7, 3)], 8)], ids=["exhaustive", "5x5", "4x6", "7x3"])
def test_search_and_weighted_sum_match_reference(top, examples):
    settings(max_examples=examples)(given(structure_pairs(top))(check_against_reference))()


def check_against_reference(pair):
    m, n, k_max = pair
    sig = m.signature
    searched, levels = {}, []
    for k in range(1, k_max + 1):
        key = (m.domain(k), n.domain(k), sig.sublanguage(k) if sig is not None else None)
        if key not in searched:
            searched[key] = ref_dk(m, n, k)
        levels.append(searched[key])
        assert dk_bruteforce(m, n, k) == levels[-1]
    assert dgh_structures(m, n, k_max) == float(sum(2.0 ** (-k) * v
                                                    for k, v in enumerate(levels, start=1)))


def count_scored(monkeypatch):
    """Counts the cell sets that ``_critical_eps`` scores."""
    scored = []
    critical_eps = metric._critical_eps
    monkeypatch.setattr(metric, "_critical_eps",
                        lambda g, *a: scored.append(len(g)) or critical_eps(g, *a))
    return scored


def test_pruning_skips_most_surjections(monkeypatch):
    # the graphs of the 1800 maps from 6 points onto 5 are the whole candidate set
    rng = np.random.default_rng([6, 5])
    m, n = FiniteStructure(euclidean(rng, 6)), FiniteStructure(euclidean(rng, 5))
    scored = count_scored(monkeypatch)
    assert dk_bruteforce(m, n) == ref_dk(m, n) > 0.0
    assert 0 < sum(scored) < 1800


def test_relabeling_exits_after_the_graphs(monkeypatch):
    # a 4x4 pair is in the exhaustive regime, but a relabeling reaches 0 on a
    # bijection's graph and the search over all 2^16 cell sets never runs
    rng = np.random.default_rng(17)
    s = relational(rng, 4)
    t = s.relabel([3, 0, 2, 1])
    monkeypatch.setattr(metric, "_cover_search", lambda *a: pytest.fail("the cover search ran"))
    scored = count_scored(monkeypatch)
    for k in (1, 2, 3):
        assert dk_bruteforce(s, t, k) == 0.0
    assert sum(scored) <= 3 * 24


#: 3x the slowest of ten runs of the test below (2.57 s on 2 cores, Python
#: 3.11, numpy 2.4), most of it in the two 8x7 searches.
EIGHT_POINT_BUDGET_S = 7.7


def near_equilateral(rng, size):
    d = np.triu(1.0 + 0.1 * rng.uniform(0, 1, (size, size)), 1)
    return d + d.T


def test_eight_points_within_the_default_cap():
    # the cap is 8: a near-equilateral 8x8 pair and an 8x7 pair, each against
    # relabelings and the diameter bound
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    m, n8, n7 = (FiniteStructure(near_equilateral(rng, size)) for size in (8, 8, 7))
    perm = rng.permutation(8)
    for n in (n8, n7):
        value = dk_bruteforce(m, n)
        assert value >= abs(m.metric.max() - n.metric.max()) / 2.0
        assert dk_bruteforce(m.relabel(perm), n) == value
    for s in (m, n8):
        assert dk_bruteforce(s, s.relabel(perm)) == 0.0
    assert dk_bruteforce(n7, n7.relabel(perm[perm < 7])) == 0.0
    assert time.perf_counter() - start < EIGHT_POINT_BUDGET_S


#: 3x the slowest of ten runs of the test below (0.023 s on 2 cores, Python
#: 3.11, numpy 2.4); the sweep over every cell set that the cover search
#: replaced took about 1 s per pair.
FOUR_BY_FIVE_BUDGET_S = 0.07


def test_four_by_five_within_the_budget():
    # two Euclidean 4x5 pairs and their transposes, 20 cells each: the
    # largest exhaustive searches
    start = time.perf_counter()
    for seed in (0, 1):
        rng = np.random.default_rng([4, 5, seed])
        m, n = FiniteStructure(euclidean(rng, 4)), FiniteStructure(euclidean(rng, 5))
        for a, b in ((m, n), (n, m)):
            assert dk_bruteforce(a, b) >= abs(a.metric.max() - b.metric.max()) / 2.0
    assert time.perf_counter() - start < FOUR_BY_FIVE_BUDGET_S


def test_empty_domain_has_no_correspondence():
    m = FiniteStructure(np.zeros((1, 1)), domains=((), (0,)))
    with pytest.raises(DimensionError, match="no full correspondence"):
        dk_bruteforce(m, m, 1)


# --- the cover search in the exhaustive regime, past the property test's sizes -----


def grid_metric(points):
    pts = np.asarray(points, dtype=float)
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=2)


def exhaustive_case(name):
    """Two structures and a level whose domains have 12 to 20 cells."""
    if name == "euclidean4x5":
        rng = np.random.default_rng([4, 5, 21])
        return FiniteStructure(euclidean(rng, 4)), FiniteStructure(euclidean(rng, 5)), 1
    if name == "euclidean5x4":
        rng = np.random.default_rng([5, 4, 21])
        return FiniteStructure(euclidean(rng, 5)), FiniteStructure(euclidean(rng, 4)), 1
    if name == "near-equilateral4x5":
        rng = np.random.default_rng([4, 5, 22])
        return (FiniteStructure(near_equilateral(rng, 4)),
                FiniteStructure(near_equilateral(rng, 5)), 1)
    if name == "grid-duplicates3x4":
        # grid points with m's points 0, 1 and n's points 1, 2 equal: a cell
        # matches pairs beyond itself, so the cells are not separated
        rng = np.random.default_rng([3, 4, 1])
        pm, pn = rng.integers(0, 3, (3, 2)), rng.integers(0, 3, (4, 2))
        pm[1], pn[2] = pm[0], pn[1]
        m, n = (FiniteStructure(grid_metric(pts), {"R": rng.integers(0, 3, len(pts)) / 2,
                                                   "B": rng.integers(0, 3, (len(pts),) * 2) / 2},
                                signature=SIG) for pts in (pm, pn))
        return m, n, 2
    if name == "ternary3x4":
        rng = np.random.default_rng([3, 4, 23])
        return (FiniteStructure(euclidean(rng, 3), {"T": rng.uniform(0, 1, (3, 3, 3))}),
                FiniteStructure(euclidean(rng, 4), {"T": rng.uniform(0, 1, (4, 4, 4))}), 1)
    if name == "nested4x5":
        # level 2 takes 4 of m's 5 points and all 5 of n's, with d and R
        rng = np.random.default_rng([4, 5, 27])
        m = relational(rng, 5, domains=((1, 3), (0, 1, 3, 4), (0, 1, 2, 3, 4)))
        n = relational(rng, 5, domains=((0, 2, 4), (0, 1, 2, 3, 4)))
        return m, n, 2
    raise ValueError(name)


#: ref_dk of the 20-cell cases, as float.hex.  Each took ref_dk 4.5 to 6.5
#: minutes (about 700k covers, scored one at a time), so it was run once and
#: kept; the 12-cell cases are compared with ref_dk as they run.
SLOW_REFERENCE = {"euclidean4x5": "0x1.b1f534b4687aap-2", "euclidean5x4": "0x1.9ced022731f58p-1",
                  "near-equilateral4x5": "0x1.02bfbf398f220p-1",
                  "nested4x5": "0x1.55a8e694e1163p-2"}

EXHAUSTIVE_CASES = ["euclidean4x5", "euclidean5x4", "near-equilateral4x5", "grid-duplicates3x4",
                    "ternary3x4", "nested4x5"]


@pytest.mark.parametrize("block", [linalg.BLOCK_ENTRIES, 97], ids=["default", "97"])
@pytest.mark.parametrize("name", EXHAUSTIVE_CASES)
def test_cover_search_matches_reference(monkeypatch, name, block):
    m, n, k = exhaustive_case(name)
    cells = len(m.domain(k)) * len(n.domain(k))
    assert 12 <= cells <= EXHAUSTIVE_PAIR_LIMIT
    expected = float.fromhex(SLOW_REFERENCE[name]) if name in SLOW_REFERENCE else ref_dk(m, n, k)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
    assert dk_bruteforce(m, n, k) == expected


def near_duplicates(p, q, seed):
    """Euclidean p x q, seed s, then on each side one point moved to 1e-10 to
    9e-10 from another: within ``MATCH_SLACK``, so a cell set that leaves out
    one of the two still matches it and scores finite, below some full
    correspondences."""
    rng = np.random.default_rng(seed)
    sides = rng.uniform(0, 1, (p, 2)), rng.uniform(0, 1, (q, 2))
    for pts in sides:
        i, j = rng.choice(len(pts), 2, replace=False)
        angle = rng.uniform(0, 2 * np.pi)
        pts[j] = pts[i] + rng.uniform(1e-10, 9e-10) * np.array([np.cos(angle), np.sin(angle)])
    return tuple(FiniteStructure(grid_metric(pts)) for pts in sides)


@pytest.mark.parametrize("block", [linalg.BLOCK_ENTRIES, 97], ids=["default", "97"])
@pytest.mark.parametrize("p,q,seed", [(3, 4, 34), (3, 4, 367), (4, 3, 147), (4, 3, 163)])
def test_cover_condition_on_near_duplicates(monkeypatch, p, q, seed, block):
    # on these pairs a cell set that misses a row or column scores up to
    # 4e-10 below the least full correspondence, so a search that checks
    # coverage one cell late returns that lower value
    m, n = near_duplicates(p, q, seed)
    expected = ref_dk(m, n)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
    assert dk_bruteforce(m, n) == expected


def test_root_bound_ends_the_search_without_a_leaf(monkeypatch):
    # sides {1, 2, 2} against {2, 2, 3}: the value sets {0, 1, 2} and
    # {0, 2, 3} of d are 1 apart, and 1 is the value, so after the graphs
    # the cover search drops its root: every scored set is a graph's
    m = FiniteStructure(np.array([[0.0, 1, 2], [1, 0, 2], [2, 2, 0]]))
    n = FiniteStructure(np.array([[0.0, 2, 3], [2, 0, 2], [3, 2, 0]]))
    phase = ["graphs"]
    cover_search = metric._cover_search
    monkeypatch.setattr(metric, "_cover_search",
                        lambda *a: phase.append("cover") or cover_search(*a))
    scored = []
    critical_eps = metric._critical_eps
    monkeypatch.setattr(metric, "_critical_eps",
                        lambda g, *a: scored.append(phase[-1]) or critical_eps(g, *a))
    assert dk_bruteforce(m, n) == ref_dk(m, n) == 1.0
    assert phase == ["graphs", "cover"]
    assert scored and set(scored) == {"graphs"}


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


@pytest.mark.parametrize("block", [linalg.BLOCK_ENTRIES, 97], ids=["default", "97"])
@pytest.mark.parametrize("row", ["first", "last"])
@pytest.mark.parametrize("size", [40, 60, 90, 120])
def test_triangle_check_names_the_first_violation_past_one_block(monkeypatch, size, row, block):
    # rows are checked block // (4 size^2) at a time; lengthen one side (i, size - 1)
    # past the sum of any two others, with i the first or the last row of the
    # second block, so rows i and size - 1 are the only ones that fail
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
    rows = max(1, block // (4 * size**2))
    i = rows if row == "first" else 2 * rows - 1
    assert i < size - 1
    d = euclidean(np.random.default_rng([size, i]), size)
    d[i, -1] = d[-1, i] = d[i, -1] + 6.0
    expected = ref_triangle_violation(d)
    assert expected.startswith(f"triangle inequality fails at ({i},")
    with pytest.raises(DimensionError) as err:
        FiniteStructure(d)
    assert str(err.value) == expected


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 9])
def test_triangle_check_names_the_same_first_triple_in_small_blocks(monkeypatch, rows):
    # sides (4, 8) and (6, 8) lengthened past any two others; a budget of
    # `rows` rows a block (4 size^2 entries a row) crosses several blocks
    # whenever rows < 9, and the scan still names row 4's first triple
    size = 9
    d = euclidean(np.random.default_rng(5), size)
    for i in (4, 6):
        d[i, -1] = d[-1, i] = d[i, -1] + 6.0
    expected = ref_triangle_violation(d)
    assert expected.startswith("triangle inequality fails at (4,")
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", rows * 4 * size**2)
    assert linalg.block_size(4 * size**2) == rows
    with pytest.raises(DimensionError) as err:
        FiniteStructure(d)
    assert str(err.value) == expected


@pytest.mark.parametrize("seed", range(5))
def test_gap_table_matches_reference(seed):
    rng = np.random.default_rng([seed, 99])
    m = FiniteStructure(euclidean(rng, 3), {"R": rng.uniform(0, 1, 3),
                                            "B": rng.uniform(0, 1, (3, 3))})
    n = FiniteStructure(euclidean(rng, 4), {"R": rng.uniform(0, 1, 4),
                                            "B": rng.uniform(0, 1, (4, 4))})
    cells = list(itertools.product(range(3), range(4)))
    chosen = rng.choice(len(cells), 5, replace=False)
    pairs = [cells[i] for i in chosen]
    # the searches' gap table of a cell set: the min of its cells' tables,
    # and cell c = x * 4 + y is cells[c]
    g = metric._cell_gaps(m.metric, n.metric)[chosen].min(axis=0, initial=np.inf)
    assert np.array_equal(g, ref_gap_table(m, n, pairs))
