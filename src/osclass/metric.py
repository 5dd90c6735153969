"""Finite metric structures and the structure distance d_k.

A finite structure is a metric table with relation tables and nested domains
of quantification.  A correspondence between two level-k domains extends to
the Katetov table ``eps + min over its pairs (x', y') of d(x, x') + d(y', y)``;
its critical epsilon (:func:`_critical_eps`) is the least eps at which that
table is Katetov on both sides and an epsilon-bijection through the metric and
every relation of the level-k sublanguage, lifted coordinatewise.  d_k is the
least critical epsilon over the full correspondences (:func:`dk_bruteforce`),
and :func:`dgh_structures` sums ``2^-k d_k``.  The triangle check and the
d_k search are blocked by ``linalg.block_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
try:  # the most axes a numpy array holds: 64 since numpy 2.0
    from numpy._core.multiarray import MAXDIMS as _NUMPY_MAXDIMS
except ImportError:  # numpy 1.x holds 32
    _NUMPY_MAXDIMS = 32

from .errors import CapacityError, DimensionError
from .linalg import block_size, first_violation

#: Slack used for the metric-axiom and relation-bound checks.
METRIC_SLACK = 1e-12

#: Largest extension gap at which :func:`_relation_eps` counts a pair as matched.
MATCH_SLACK = 1e-9

#: Default cap on domain sizes for the brute-force correspondence search.
DEFAULT_DK_CAP = 8

#: Exhaustive correspondence enumeration is used while |D| * |E| stays below this.
EXHAUSTIVE_PAIR_LIMIT = 20

#: Largest relation arity: :func:`_relation_eps` lifts a relation of arity r
#: over 2r + 1 array axes, at most numpy's ``MAXDIMS``.
MAX_ARITY = (_NUMPY_MAXDIMS - 1) // 2

#: Most entries of a dense table built from a relation: a keyed relation
#: table in a JSON input, and a relation's value-gap table in the d_k search.
#: A larger one raises CapacityError before it is allocated.
MAX_TABLE_ENTRIES = 1 << 20

#: Most levels of the weighted d_k sum: ``2.0 ** -1075`` is 0.0, so no level
#: past this one can change the sum.
MAX_LEVELS = 1074


@dataclass(frozen=True)
class RelationSymbol:
    name: str
    arity: int
    bound: float = 16.0


@dataclass(frozen=True)
class Signature:
    """Relation symbols with an increasing chain of finite sublanguages.

    ``sublanguages[k-1]`` is the symbol set of level k; the metric symbol "d"
    always belongs to level 1.
    """

    relations: tuple = ()
    sublanguages: tuple = (frozenset({"d"}),)

    def __post_init__(self):
        subs = tuple(frozenset(s) for s in self.sublanguages)
        if not subs or "d" not in subs[0]:
            raise DimensionError('the metric symbol "d" must belong to the first sublanguage')
        for a, b in zip(subs, subs[1:]):
            if not a <= b:
                raise DimensionError("sublanguages must be increasing")
        object.__setattr__(self, "sublanguages", subs)
        object.__setattr__(self, "relations", tuple(self.relations))

    def sublanguage(self, k: int) -> frozenset:
        if k < 1:
            raise DimensionError(f"levels start at 1, got {k}")
        return self.sublanguages[min(k, len(self.sublanguages)) - 1]

    def relation(self, name: str) -> RelationSymbol:
        for r in self.relations:
            if r.name == name:
                return r
        if name == "d":
            return RelationSymbol("d", 2)
        raise DimensionError(f"unknown relation symbol {name!r}")


@dataclass(frozen=True)
class FiniteStructure:
    """A finite metric structure with relation tables and nested domains."""

    metric: np.ndarray
    relations: dict = field(default_factory=dict)
    domains: tuple = ()
    signature: Signature | None = None

    def __post_init__(self):
        d = np.asarray(self.metric, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
            raise DimensionError(f"metric must be a nonempty square table, got {d.shape}")
        m = d.shape[0]
        if not np.all(np.isfinite(d)):
            raise DimensionError("metric has non-finite entries")
        if np.any(np.abs(np.diag(d)) > METRIC_SLACK):
            raise DimensionError("metric diagonal must be zero")
        if np.any(np.abs(d - d.T) > METRIC_SLACK):
            raise DimensionError("metric must be symmetric")
        if np.any(d < -METRIC_SLACK):
            raise DimensionError("metric must be nonnegative")
        # entry (i, j, k): d(i, j) > d(i, k) + d(k, j); a row i counts 4 m^2
        # entries, so its two float temporaries take half of its share
        bad = first_violation(m, 4 * m * m, lambda lo, hi: d[lo:hi, :, None]
                              > d[lo:hi, None, :] + d.T + METRIC_SLACK)
        if bad is not None:
            raise DimensionError("triangle inequality fails at ({},{},{})".format(*bad))
        rels = {}
        for name, table in self.relations.items():
            t = np.asarray(table, dtype=np.float64)
            if t.ndim > MAX_ARITY:
                raise DimensionError(f"relation {name!r} has arity {t.ndim}, past the "
                                     f"largest supported arity {MAX_ARITY}")
            if t.shape != (m,) * t.ndim:
                raise DimensionError(f"relation {name!r} table must be cubical in size {m}")
            if not np.all(np.isfinite(t)):
                raise DimensionError(f"relation {name!r} has non-finite entries")
            if self.signature is not None:
                sym = self.signature.relation(name)
                if t.ndim != sym.arity:
                    raise DimensionError(f"relation {name!r} has arity {sym.arity}, table rank {t.ndim}")
                if np.any(np.abs(t) > sym.bound + METRIC_SLACK):
                    raise DimensionError(f"relation {name!r} exceeds its declared bound")
            rels[name] = t
        doms = tuple(tuple(sorted(dd)) for dd in self.domains) or ((tuple(range(m)),))
        prev: set = set()
        for dd in doms:
            cur = set(dd)
            if not prev <= cur:
                raise DimensionError("domains must be nested")
            if any(i < 0 or i >= m for i in cur):
                raise DimensionError("domain indices out of range")
            prev = cur
        if prev != set(range(m)):
            raise DimensionError("the largest domain must exhaust the structure")
        object.__setattr__(self, "metric", d)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "domains", doms)

    @property
    def size(self) -> int:
        return int(self.metric.shape[0])

    def domain(self, k: int) -> tuple:
        if k < 1:
            raise DimensionError(f"levels start at 1, got {k}")
        return self.domains[min(k, len(self.domains)) - 1]

    def table(self, name: str) -> np.ndarray:
        if name == "d":
            return self.metric
        if name not in self.relations:
            raise DimensionError(f"relation {name!r} is missing from the structure")
        return self.relations[name]

    def relabel(self, perm) -> "FiniteStructure":
        """The structure with points renamed by the permutation ``perm``."""
        p = np.asarray(perm, dtype=int)
        inv = np.empty_like(p)
        inv[p] = np.arange(p.size)
        rels = {}
        for name, t in self.relations.items():
            rels[name] = t[np.ix_(*([inv] * t.ndim))]
        doms = tuple(tuple(sorted(int(p[i]) for i in dd)) for dd in self.domains)
        return FiniteStructure(self.metric[np.ix_(inv, inv)], rels, doms, self.signature)


def _on_axes(a: np.ndarray, i: int, r: int) -> np.ndarray:
    """The last two axes of ``a`` spread over axes i and r + i of 2r broadcast axes."""
    shape = [1] * (2 * r)
    shape[i], shape[r + i] = a.shape[-2:]
    return a.reshape(a.shape[:-2] + tuple(shape))


def _cell_gaps(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Per cell c = x' * q + y', the gap table ``dx[x, x'] + dy[y', y]`` of {c} alone.

    A cell set's gap table is the min of its cells' tables; min is exact,
    so taking it in any order gives the same bits.
    """
    p, q = len(dx), len(dy)
    sums = dx[:, None, :, None] + dy.T[None, :, None, :]
    return sums.reshape(p * q, p * q).T.reshape(p * q, p, q)


def _katetov_eps(g: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Per gap table g, the least eps at which its extension is Katetov.

    That is the largest ``(d(x, x~) - g(x, y) - g(x~, y)) / 2`` over both
    sides: ``d(x, x~) <= 2 eps + g(x, y) + g(x~, y)``, and likewise on y.
    The maximum is halved once, not every entry: rounded halving is monotone
    (x <= y gives fl(x / 2) <= fl(y / 2)), so the half of the largest entry
    is the largest of the halves, bit for bit, NaN and infinities included.
    """
    return np.maximum(
        (dx[None, :, :, None] - g[:, :, None, :] - g[:, None, :, :]).max(axis=(1, 2, 3)),
        (dy[None, None] - g[:, :, :, None] - g[:, :, None, :]).max(axis=(1, 2, 3))) / 2.0


def _relation_eps(g: np.ndarray, value_gaps, eps: np.ndarray) -> np.ndarray:
    """``eps`` raised, per gap table g, to the epsilon-bijection term of every lifted relation.

    Lifted matching is only possible along pairs at zero gap (up to
    ``MATCH_SLACK``): a tuple's partners are the tuples matched to it
    coordinatewise, and the term is the largest over tuples on either side
    of the least value gap to a partner (inf with none).
    ``value_gaps`` holds, per relation, its arity r and the table of
    ``|R(x-tuple) - R(y-tuple)|`` over the domain tuples.
    """
    matched = g <= MATCH_SLACK
    for r, gaps in value_gaps:
        joint = np.ones((len(g),) + (1,) * (2 * r), dtype=bool)
        for i in range(r):
            joint = joint & _on_axes(matched, i, r)
        cost = np.where(joint.reshape(len(g), *gaps.shape), gaps, np.inf)
        eps = np.maximum(eps, np.maximum(cost.min(axis=2).max(axis=1),
                                         cost.min(axis=1).max(axis=1)))
    return eps


def _critical_eps(g: np.ndarray, kat: np.ndarray, value_gaps) -> np.ndarray:
    """Critical epsilon of each complete cell set, from its gap table g, its
    Katetov term ``kat`` and the lifted relations (:func:`_relation_eps`)."""
    return np.maximum(_relation_eps(g, value_gaps, kat), 0.0)


def _score_by_bound(g: np.ndarray, kat: np.ndarray, bound: np.ndarray, best: float,
                    value_gaps, batch: int) -> float:
    """``min(best, least _critical_eps)`` of complete cell sets, given a lower bound per set.

    Sets are scored in increasing order of bound, one at first, then twice
    as many each time up to ``batch``, and the rest are skipped once their
    bound reaches the best value: every value is at least its bound, so the
    minimum is unchanged.  Both searches hand over complete sets whose
    bounds are near or at their values, so the first set is often the best.
    """
    order = np.argsort(bound, kind="stable")
    start, size = 0, 1
    while start < len(order) and bound[order[start]] < best:
        idx = order[start:start + size]
        best = min(best, float(_critical_eps(g[idx], kat[idx], value_gaps).min()))
        if best == 0.0:
            break
        start, size = start + size, min(2 * size, batch)
    return best


def _branch_and_bound(expand, root: tuple, levels: int, best: float, value_gaps,
                      batch: int, nodes: int) -> float:
    """``min(best, least _critical_eps)`` over the leaves of a search tree, depth first.

    A block is a tuple of arrays over its nodes: gap tables g, Katetov terms
    K = ``_katetov_eps(g)``, lower bounds, then what ``expand(t, best,
    *block)`` keeps to make the block of children at depth t + 1; those at
    depth ``levels`` are leaves, complete cell sets.  The loop pops a block,
    keeps the nodes whose bound is below the best value, expands them and
    scores the leaves (:func:`_score_by_bound`).  Other children are sorted
    by bound and pushed in blocks of ``nodes``, best on top, so the search
    dives to a good value before it backtracks.  It stops at 0.

    Leaf values: a node's g is the min of its cells' tables from
    :func:`_cell_gaps`, taken one cell at a time; min is exact, so a leaf's
    g and K have the bits of its set's gap table and Katetov term, and its
    ``_critical_eps`` is that of scoring the set alone.

    Bounds: each is at most the value of every leaf below, float for float,
    so the minimum is unchanged.  K is part of each: a leaf holds every cell
    of its ancestors, so its gap table is entrywise at most theirs, and
    ``(d - g - g~) / 2`` does not fall as g and g~ fall (rounded subtraction
    is monotone in each argument, and so is halving).

    Memory: with at most f children per node, an expansion pushes at most f
    blocks, all popped before the next block of its parent's depth, so the
    stack holds at most f blocks per depth.
    """
    stack = [(0, root)]
    while stack:
        t, block = stack.pop()
        keep = block[2] < best
        if not keep.any():
            continue
        children = expand(t, best, *(a[keep] for a in block))
        g, kat, bound = children[:3]
        if t + 1 == levels:
            best = _score_by_bound(g, kat, bound, best, value_gaps, batch)
            if best == 0.0:
                break
            continue
        order = np.argsort(bound, kind="stable")
        order = order[bound[order] < best]
        for start in range((len(order) - 1) // nodes * nodes, -1, -nodes):
            idx = order[start:start + nodes]
            stack.append((t + 1, tuple(a[idx] for a in children)))
    return best


def _cover_search(dx: np.ndarray, dy: np.ndarray, value_gaps, best: float, batch: int) -> float:
    """``min(best, least _critical_eps)`` over every cell set covering all rows and columns.

    The search decides the cells c = a * q + b in turn, in or out.  A node
    holds its IN cells' gap table g_IN and K, the rows and columns they
    cover, and R = ``_relation_eps`` (from -inf) of ``min(g_IN, suffix)``,
    the gap table of IN and the undecided cells together.  Its bound is
    ``max(K, R)``.  No OUT child is made when a row or column would have no
    IN or undecided cell left, or when K is at least the best value.  An IN
    child keeps its parent's R (the same union), an OUT child its g_IN and K.

    R is at most the same term of any set S the node can reach (S holds IN
    and lies within IN and the undecided cells), float for float: S's gap
    table is entrywise at least ``min(g_IN, suffix)``, a min over more
    cells.  So every pair matched for S is matched here, each tuple has at
    least its lifted partners for S, and ``where``, min and max give each
    cost entry, least gap and largest term at most S's.  This needs no
    separated cells.  At the root every gap is 0 and every pair matches, so
    R is the value-set bound of Memoli ("Some properties of Gromov-Hausdorff
    distances", DCG 48, 2012): the largest Hausdorff distance between the
    value sets of a relation over the domain tuples.  Where the incumbent
    meets it, no set is scored.

    Blocks: ``batch // 2`` nodes per expansion, two children each, so each
    array of an expansion takes at most half of ``linalg.BLOCK_ENTRIES`` entries.
    """
    p, q = len(dx), len(dy)
    size = p * q
    cols = _cell_gaps(dx, dy)
    # suffix[t]: the gap table of the cells t .. pq - 1, undecided at depth t
    suffix = np.concatenate([np.minimum.accumulate(cols[::-1])[::-1],
                             np.full((1, p, q), np.inf)])
    # lines are the rows a and the columns p + b; lines[c]: those of cell c;
    # open_lines[t]: those with a cell undecided at depth t
    lines = np.concatenate([np.repeat(np.eye(p, dtype=bool), q, axis=0),
                            np.tile(np.eye(q, dtype=bool), (p, 1))], axis=1)
    last = np.concatenate([np.arange(p) * q + q - 1, (p - 1) * q + np.arange(q)])
    open_lines = np.arange(size + 1)[:, None] <= last

    def expand(t, best, g, kat, bound, covered, rel):
        # IN: cell t joins the cells, and the union (so R) stays the parent's
        g_in = np.minimum(g, cols[t])
        # OUT: cell t leaves the union; drop those that can no longer cover
        out = (covered | open_lines[t + 1]).all(axis=1) & (kat < best)
        rel_out = _relation_eps(np.minimum(g[out], suffix[t + 1]), value_gaps,
                                np.full(np.count_nonzero(out), -np.inf))
        kat = np.concatenate([_katetov_eps(g_in, dx, dy), kat[out]])
        rel = np.concatenate([rel, rel_out])
        return (np.concatenate([g_in, g[out]]), kat, np.maximum(kat, rel),
                np.concatenate([covered | lines[t], covered[out]]), rel)

    rel = _relation_eps(suffix[:1], value_gaps, np.full(1, -np.inf))
    root = (np.full((1, p, q), np.inf), np.full(1, -np.inf), rel,
            np.zeros((1, p + q), dtype=bool), rel)
    return _branch_and_bound(expand, root, size, best, value_gaps, batch, max(1, batch // 2))


def _graph_search(dx: np.ndarray, dy: np.ndarray, value_gaps, batch: int) -> float:
    """Least ``_critical_eps`` over the graphs of the onto maps, by branch and bound.

    The maps go from the larger domain to the smaller (the first on ties).
    The search assigns the larger side's points in turn.  A node is a
    partial map: its cells, their gap table (in the original orientation)
    and K, the images it covers and D below.  No child is made that can no
    longer be onto.  The bound is K, raised to D from depth 2 on when the
    cells are separated.

    D is the largest ``|dx[x, x~] - dy[y, y~]|`` over pairs of assigned
    cells (x, y), (x~, y~).  Cells are separated when the entries of the sum
    table ``dx[x, x'] + dy[y', y]`` at most ``MATCH_SLACK`` are exactly those
    at (x, y) = (x', y').  A gap table entry is at most ``MATCH_SLACK`` iff
    one of its cells' sums is (min returns one of its arguments), so the
    pairs ``_critical_eps`` matches for a graph are then exactly its cells.
    Each point of the larger side has one matched partner, each pair of
    them one matched pair, and the lifted metric's epsilon-bijection term on
    that side is the max of the value gaps over all pairs of cells, the
    same floats as D, which takes some of them.  With near-duplicate points
    a pair can match more than its cells, and D need not bound the value.

    Blocks: ``nodes`` partial maps per expansion, each with at most (smaller
    side) children; their gap tables and the widest array of one
    expansion's bounds take at most half of ``linalg.BLOCK_ENTRIES`` entries.
    """
    p, q = len(dx), len(dy)
    big, small = max(p, q), min(p, q)
    cols = _cell_gaps(dx, dy)
    separated = np.array_equal(cols.reshape(p * q, p * q) <= MATCH_SLACK,
                               np.eye(p * q, dtype=bool))
    # pair[c, c~]: the lifted metric's value gap between cells c and c~
    pair = np.abs(dx[:, None, :, None] - dy[None, :, None, :]).reshape(p * q, p * q)
    # cell[a, b]: the cell of larger-side point a sent to smaller-side point b
    if p >= q:
        cell = np.arange(p)[:, None] * q + np.arange(q)
    else:
        cell = np.arange(p)[None, :] * q + np.arange(q)[:, None]

    def expand(depth, best, g, kat, bound, cells, dist, cover, count):
        fresh = (cover[:, None] >> np.arange(small) & 1) == 0
        # onto: the points left can still reach every uncovered image
        rows, img = np.nonzero(small - count[:, None] - fresh <= big - depth - 1)
        new = cell[depth, img]
        g = np.minimum(g[rows], cols[new])
        kat = bound = _katetov_eps(g, dx, dy)
        dist = dist[rows]
        if separated and depth:
            dist = np.maximum(dist, pair[cells[rows], new[:, None]].max(axis=1))
            bound = np.maximum(kat, dist)
        return (g, kat, bound, np.concatenate([cells[rows], new[:, None]], axis=1), dist,
                cover[rows] | 1 << img, count[rows] + fresh[rows, img])

    nodes = block_size(2 * small * p * q * big)
    zero = np.zeros(1, dtype=np.intp)
    root = (np.full((1, p, q), np.inf), np.full(1, -np.inf), np.full(1, -np.inf),
            np.zeros((1, 0), dtype=np.intp), np.zeros(1), zero, zero)
    return _branch_and_bound(expand, root, big, np.inf, value_gaps, batch, nodes)


def dk_bruteforce(m: FiniteStructure, n: FiniteStructure, k: int = 1,
                  cap: int = DEFAULT_DK_CAP) -> float:
    """Brute-force level-k distance between two finite structures.

    The least critical epsilon (:func:`_critical_eps`) over the full
    correspondences between the level-k domains; exhaustive while the domain
    product is at most ``EXHAUSTIVE_PAIR_LIMIT``, restricted to surjection
    graphs beyond that.  The graphs of the onto maps are searched first
    (:func:`_graph_search`).  Beyond the exhaustive regime they are the whole
    candidate set; within it, they are some of the candidates, and their
    least value is the incumbent of the search over all of them
    (:func:`_cover_search`).  Both run one branch and bound
    (:func:`_branch_and_bound`), which stops as soon as it reaches 0.
    Without a signature the symbols are d and every relation of either
    structure.
    """
    if cap < 0:
        raise DimensionError(f"cap must be >= 0, got {cap}")
    dom_m, dom_n = m.domain(k), n.domain(k)
    if len(dom_m) > cap or len(dom_n) > cap:
        raise CapacityError(
            f"domain sizes {len(dom_m)}, {len(dom_n)} exceed cap {cap}"
        )
    sig = m.signature or n.signature
    if sig is not None:
        names = set(sig.sublanguage(k)) | {"d"}
    else:
        names = {"d"} | set(m.relations) | set(n.relations)
    p, q = len(dom_m), len(dom_n)
    value_gaps = []
    for name in sorted(names):
        tm, tn = m.table(name), n.table(name)
        if tm.ndim != tn.ndim:
            raise DimensionError(f"relation {name!r} has mismatched arities")
        if (p * q) ** tm.ndim > MAX_TABLE_ENTRIES:
            raise CapacityError(f"relation {name!r} has a value-gap table of {p}^{tm.ndim} x "
                                f"{q}^{tm.ndim} entries, past {MAX_TABLE_ENTRIES}")
        tm, tn = tm[np.ix_(*[dom_m] * tm.ndim)], tn[np.ix_(*[dom_n] * tn.ndim)]
        value_gaps.append((tm.ndim, np.abs(tm.reshape(-1, 1) - tn.reshape(1, -1))))
    if not (p and q):
        raise DimensionError("no full correspondence exists between the domains")
    # a candidate's widest array: the gap sums (pq)^2 or a relation's gap table
    batch = block_size(max([(p * q) ** 2] + [t.size for _, t in value_gaps]))
    dx, dy = m.metric[np.ix_(dom_m, dom_m)], n.metric[np.ix_(dom_n, dom_n)]
    best = _graph_search(dx, dy, value_gaps, batch)
    if best > 0.0 and p * q <= EXHAUSTIVE_PAIR_LIMIT:
        best = _cover_search(dx, dy, value_gaps, best, batch)
    return best


def _weighted_dk(m: FiniteStructure, n: FiniteStructure, k_max: int,
                 cap: int) -> tuple[float, list]:
    """``sum_{k <= k_max} 2^-k d_k(m, n)`` and the per-level values d_1 .. d_kmax.

    d_k depends on k only through the two level-k domains and the level-k
    sublanguage, so levels that share all three share one search.
    """
    if k_max < 1:
        raise DimensionError(f"the weighted sum needs at least 1 level, got {k_max}")
    if k_max > MAX_LEVELS:
        raise CapacityError(f"the weighted sum would take {k_max} levels, past MAX_LEVELS = "
                            f"{MAX_LEVELS}, beyond which a level's weight 2^-k is 0")
    sig = m.signature or n.signature
    searched: dict = {}
    levels = []
    for k in range(1, k_max + 1):
        key = (m.domain(k), n.domain(k), sig.sublanguage(k) if sig is not None else None)
        if key not in searched:
            searched[key] = dk_bruteforce(m, n, k, cap)
        levels.append(searched[key])
    return sum(2.0 ** (-k) * v for k, v in enumerate(levels, start=1)), levels


def dgh_structures(m: FiniteStructure, n: FiniteStructure, k_max: int = 3,
                   cap: int = DEFAULT_DK_CAP) -> float:
    """Truncated weighted sum ``sum_{k <= k_max} 2^-k d_k(m, n)``."""
    return float(_weighted_dk(m, n, k_max, cap)[0])
