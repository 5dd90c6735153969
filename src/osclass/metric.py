"""Finite metric structures, approximate isometries, and brute-force distances.

A finite structure is a metric table with relation tables and nested domains
of quantification.  Approximate isometries are two-variable Katetov functions;
lifting them through relations and measuring the least epsilon at which they
become epsilon-bijections yields the per-sublanguage distance d_k and its
weighted Gromov-Hausdorff sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError

#: Slack used for metric-axiom and Katetov checks.
METRIC_SLACK = 1e-12

#: Largest extension gap at which :func:`_critical_eps` counts a pair as matched.
MATCH_SLACK = 1e-9

#: Default cap on domain sizes for the brute-force correspondence search.
DEFAULT_DK_CAP = 6

#: Exhaustive correspondence enumeration is used while |D| * |E| stays below this.
EXHAUSTIVE_PAIR_LIMIT = 20


@dataclass(frozen=True)
class RelationSymbol:
    name: str
    arity: int
    bound: float = 16.0
    modulus: str = "1-lipschitz"


@dataclass(frozen=True)
class Signature:
    """Relation symbols with an increasing chain of finite sublanguages.

    ``sublanguages[k-1]`` is the symbol set of level k; the metric symbol "d"
    always belongs to level 1.  ``domains`` counts the nested domain symbols.
    """

    relations: tuple = ()
    sublanguages: tuple = (frozenset({"d"}),)
    domains: int = 1

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
        for i in range(m):
            # entry (j, k): d(i, j) > d(i, k) + d(k, j), one row i at a time
            bad = np.argwhere(d[i, :, None] > d[i, None, :] + d.T + METRIC_SLACK)
            if bad.size:
                j, k = bad[0]
                raise DimensionError(f"triangle inequality fails at ({i},{j},{k})")
        rels = {}
        for name, table in self.relations.items():
            t = np.asarray(table, dtype=np.float64)
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


def katetov_check(f, x: FiniteStructure) -> bool:
    """Whether ``|f(a) - f(b)| <= d(a, b) <= f(a) + f(b)`` for all pairs, up
    to ``METRIC_SLACK``."""
    v = np.asarray(f, dtype=np.float64).ravel()
    if v.size != x.size:
        raise DimensionError(f"expected {x.size} values, got {v.size}")
    return _katetov_table(v, x.metric)


@dataclass(frozen=True)
class ApproxIsometry:
    """A separately-Katetov table psi between two finite metric spaces."""

    psi: np.ndarray
    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.psi, dtype=np.float64)
        dx = np.asarray(self.dx, dtype=np.float64)
        dy = np.asarray(self.dy, dtype=np.float64)
        if p.ndim != 2 or p.shape != (dx.shape[0], dy.shape[0]):
            raise DimensionError("psi shape must match the two metric tables")
        if np.any(p < -METRIC_SLACK):
            raise DimensionError("psi must be nonnegative")
        for j in range(p.shape[1]):
            col = p[:, j]
            if not _katetov_table(col, dx):
                raise DimensionError(f"psi column {j} is not Katetov on the source")
        for i in range(p.shape[0]):
            row = p[i, :]
            if not _katetov_table(row, dy):
                raise DimensionError(f"psi row {i} is not Katetov on the target")
        object.__setattr__(self, "psi", p)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)


def _katetov_table(v: np.ndarray, d: np.ndarray) -> bool:
    diff = np.abs(v[:, None] - v[None, :])
    total = v[:, None] + v[None, :]
    return bool(np.all(diff <= d + METRIC_SLACK) and np.all(d <= total + METRIC_SLACK))


def eps_of_bijection(psi: ApproxIsometry) -> float:
    """The least epsilon making psi an epsilon-bijection.

    Every source point needs a partner below every r > epsilon and vice versa,
    so the value is the max over rows and columns of the minimum entry.
    """
    p = psi.psi
    return max(float(np.max(np.min(p, axis=1))), float(np.max(np.min(p, axis=0))))


def _on_axes(a: np.ndarray, i: int, r: int) -> np.ndarray:
    """The last two axes of ``a`` spread over axes i and r + i of 2r broadcast axes."""
    shape = [1] * (2 * r)
    shape[i], shape[r + i] = a.shape[-2:]
    return a.reshape(a.shape[:-2] + tuple(shape))


def _lift_table(psi: np.ndarray, tm: np.ndarray, tn: np.ndarray) -> np.ndarray:
    """Entry (x-tuple, y-tuple): max of ``psi`` on matched coordinates and the value gap.

    Tuples run over all index tuples of the two relation tables in
    ``itertools.product`` order.
    """
    r = tm.ndim
    table = np.abs(tm.reshape(tm.shape + (1,) * r) - tn.reshape((1,) * r + tn.shape))
    for i in range(r):
        table = np.maximum(table, _on_axes(psi, i, r))
    return table.reshape(tm.size, tn.size)


def lift_relation(psi: ApproxIsometry, name: str, m: FiniteStructure,
                  n: FiniteStructure) -> ApproxIsometry:
    """The lifted approximate isometry between the graphs of a relation.

    Entry at (x-tuple, y-tuple) is the max of the psi values of the matched
    coordinates and the gap between the two relation values; each graph
    carries the max-metric of its coordinates and values.
    """
    tm, tn = m.table(name), n.table(name)
    if tm.ndim != tn.ndim:
        raise DimensionError(f"relation {name!r} has mismatched arities")
    return ApproxIsometry(psi=_lift_table(psi.psi, tm, tn),
                          dx=_lift_table(m.metric, tm, tm), dy=_lift_table(n.metric, tn, tn))


def correspondence_extension(m: FiniteStructure, n: FiniteStructure, pairs,
                             eps: float) -> np.ndarray:
    """Smallest Katetov-valid majorant of the value eps on the given pairs.

    The table ``psi(x, y) = eps + min over (x', y') in pairs of
    (d(x, x') + d(y', y))`` is the standard metric amalgamation extension.
    """
    return eps + _gap_table(m, n, pairs)


def _gap_tables(dx: np.ndarray, dy: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per mask, the min over its cells (x', y') of ``dx[x, x'] + dy[y', y]``."""
    sums = dx[:, None, :, None] + dy.T[None, :, None, :]
    return np.where(masks[:, None, None], sums, np.inf).min(axis=(3, 4))


def _gap_table(m: FiniteStructure, n: FiniteStructure, pairs) -> np.ndarray:
    """min over pairs of d(x, x') + d(y', y); the eps-free part of the extension."""
    mask = np.zeros((m.size, n.size), dtype=bool)
    mask[tuple(np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T)] = True
    return _gap_tables(m.metric, n.metric, mask[None])[0]


#: Entries in the widest array of one block of the d_k sweep: candidate masks
#: are decoded this many cells at a time and scored this many table entries
#: at a time, so the sweep's memory stays flat however many candidates it has.
DK_BLOCK_ENTRIES = 1 << 16


def _correspondence_blocks(p: int, q: int):
    """Full correspondences between p and q points, as boolean (B, p, q) masks.

    While ``p * q <= EXHAUSTIVE_PAIR_LIMIT`` these are all cell sets covering
    every row and column: bit ``a * q + b`` of each integer 1 .. 2^(pq) - 1
    marks cell (a, b).  Beyond that they are the graphs of the onto maps from
    the larger side to the smaller (the first side when sizes tie): the
    base-s digits of 0 .. s^L - 1, most significant first, are the images of
    the L larger-side points.  ``DK_BLOCK_ENTRIES // (p * q)`` integers are
    decoded at a time.
    """
    chunk = max(1, DK_BLOCK_ENTRIES // max(1, p * q))
    if p * q <= EXHAUSTIVE_PAIR_LIMIT:
        cells = 1 << np.arange(p * q).reshape(p, q)
        lines = np.concatenate([cells.sum(axis=1), cells.sum(axis=0)])
        stop = 1 << (p * q)
        for start in range(1, stop, chunk):
            ints = np.arange(start, min(start + chunk, stop))
            ints = ints[(ints[:, None] & lines != 0).all(axis=1)]
            yield (ints[:, None] >> np.arange(p * q) & 1).astype(bool).reshape(-1, p, q)
        return
    big, small = max(p, q), min(p, q)
    powers, stop = small ** np.arange(big - 1, -1, -1), small ** big
    for start in range(0, stop, chunk):
        images = np.arange(start, min(start + chunk, stop))[:, None] // powers % small
        images = images[np.bitwise_or.reduce(1 << images, axis=1) == (1 << small) - 1]
        masks = images[:, :, None] == np.arange(small)
        yield masks if p >= q else masks.transpose(0, 2, 1)


def _critical_eps(masks: np.ndarray, dx: np.ndarray, dy: np.ndarray, value_gaps) -> np.ndarray:
    """Critical epsilon at which the extension of each full correspondence passes.

    Combines the Katetov-validity threshold of the extension with the
    epsilon-bijection thresholds of every lifted relation in the sublanguage,
    where lifted matching is only possible along pairs at zero gap (up to
    ``MATCH_SLACK``).
    ``value_gaps`` holds, per relation, its arity r and the table of
    ``|R(x-tuple) - R(y-tuple)|`` over the domain tuples.
    """
    g = _gap_tables(dx, dy, masks)
    # Katetov validity: d(x, x~) <= 2 eps + g(x, y) + g(x~, y), both sides.
    eps = np.maximum(
        ((dx[None, :, :, None] - g[:, :, None, :] - g[:, None, :, :]) / 2.0).max(axis=(1, 2, 3)),
        ((dy[None, None] - g[:, :, :, None] - g[:, :, None, :]) / 2.0).max(axis=(1, 2, 3)))
    matched = g <= MATCH_SLACK
    for r, gaps in value_gaps:
        joint = np.ones((len(g),) + (1,) * (2 * r), dtype=bool)
        for i in range(r):
            joint = joint & _on_axes(matched, i, r)
        cost = np.where(joint.reshape(len(g), *gaps.shape), gaps, np.inf)
        eps = np.maximum(eps, np.maximum(cost.min(axis=2).max(axis=1),
                                         cost.min(axis=1).max(axis=1)))
    return np.maximum(eps, 0.0)


def dk_bruteforce(m: FiniteStructure, n: FiniteStructure, k: int = 1,
                  cap: int = DEFAULT_DK_CAP) -> float:
    """Brute-force level-k distance between two finite structures.

    Minimizes the critical epsilon of the Katetov extension over full
    correspondences between the level-k domains; exhaustive while the domain
    product is small, restricted to surjection graphs beyond that.  The
    correspondences are scored a numpy block at a time, and the search stops
    after the first block that reaches 0.
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
        names = {"d"} | set(m.relations)
    p, q = len(dom_m), len(dom_n)
    value_gaps = []
    for name in sorted(names):
        tm, tn = m.table(name), n.table(name)
        if tm.ndim != tn.ndim:
            raise DimensionError(f"relation {name!r} has mismatched arities")
        tm, tn = tm[np.ix_(*[dom_m] * tm.ndim)], tn[np.ix_(*[dom_n] * tn.ndim)]
        value_gaps.append((tm.ndim, np.abs(tm.reshape(-1, 1) - tn.reshape(1, -1))))
    # widest per-candidate array: the gap sums (pq)^2 or a relation's gap table
    width = max([1, (p * q) ** 2] + [t.size for _, t in value_gaps])
    dx, dy = m.metric[np.ix_(dom_m, dom_m)], n.metric[np.ix_(dom_n, dom_n)]
    block = max(1, DK_BLOCK_ENTRIES // width)
    best = np.inf
    for masks in _correspondence_blocks(p, q):
        for start in range(0, len(masks), block):
            eps = _critical_eps(masks[start:start + block], dx, dy, value_gaps)
            best = min(best, float(eps.min()))
            if best == 0.0:
                return best
    if not np.isfinite(best):
        raise DimensionError("no full correspondence exists between the domains")
    return best


def _weighted_dk(m: FiniteStructure, n: FiniteStructure, k_max: int,
                 cap: int) -> tuple[float, list]:
    """``sum_{k <= k_max} 2^-k d_k(m, n)`` and the per-level values d_1 .. d_kmax.

    d_k depends on k only through the two level-k domains and the level-k
    sublanguage, so levels that share all three share one search.
    """
    if k_max < 1:
        raise DimensionError(f"the weighted sum needs at least 1 level, got {k_max}")
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
