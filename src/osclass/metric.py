"""Finite metric structures, approximate isometries, and brute-force distances.

A finite structure is a metric table with relation tables and nested domains
of quantification.  Approximate isometries are two-variable Katetov functions;
lifting them through relations and measuring the least epsilon at which they
become epsilon-bijections yields the per-sublanguage distance d_k and its
weighted Gromov-Hausdorff sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError

#: Slack used for metric-axiom and Katetov checks.
METRIC_SLACK = 1e-12

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
        idx = min(k, len(self.sublanguages)) - 1
        return self.sublanguages[idx]

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
        if np.any(np.abs(np.diag(d)) > METRIC_SLACK):
            raise DimensionError("metric diagonal must be zero")
        if np.any(np.abs(d - d.T) > METRIC_SLACK):
            raise DimensionError("metric must be symmetric")
        if np.any(d < -METRIC_SLACK):
            raise DimensionError("metric must be nonnegative")
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if d[i, j] > d[i, k] + d[k, j] + METRIC_SLACK:
                        raise DimensionError(
                            f"triangle inequality fails at ({i},{j},{k})"
                        )
        rels = {}
        for name, table in self.relations.items():
            t = np.asarray(table, dtype=np.float64)
            if t.shape != (m,) * t.ndim:
                raise DimensionError(f"relation {name!r} table must be cubical in size {m}")
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
        idx = min(k, len(self.domains)) - 1
        return self.domains[idx]

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


def katetov_check(f, x: FiniteStructure, slack: float = METRIC_SLACK) -> bool:
    """Whether ``|f(a) - f(b)| <= d(a, b) <= f(a) + f(b)`` for all pairs."""
    v = np.asarray(f, dtype=np.float64).ravel()
    if v.size != x.size:
        raise DimensionError(f"expected {x.size} values, got {v.size}")
    diff = np.abs(v[:, None] - v[None, :])
    total = v[:, None] + v[None, :]
    return bool(np.all(diff <= x.metric + slack) and np.all(x.metric <= total + slack))


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


def _katetov_table(v: np.ndarray, d: np.ndarray, slack: float = 1e-9) -> bool:
    diff = np.abs(v[:, None] - v[None, :])
    total = v[:, None] + v[None, :]
    return bool(np.all(diff <= d + slack) and np.all(d <= total + slack))


def eps_of_bijection(psi: ApproxIsometry) -> float:
    """The least epsilon making psi an epsilon-bijection.

    Every source point needs a partner below every r > epsilon and vice versa,
    so the value is the max over rows and columns of the minimum entry.
    """
    p = psi.psi
    return max(float(np.max(np.min(p, axis=1))), float(np.max(np.min(p, axis=0))))


def _graph_metric(structure: FiniteStructure, name: str) -> tuple[list, np.ndarray]:
    """Tuples of the relation graph and the max-metric (including the value)."""
    t = structure.table(name)
    arity = t.ndim
    pts = list(itertools.product(range(structure.size), repeat=arity))
    n = len(pts)
    g = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            coord = max(structure.metric[pts[a][i], pts[b][i]] for i in range(arity))
            g[a, b] = max(coord, abs(t[pts[a]] - t[pts[b]]))
    return pts, g


def lift_relation(psi: ApproxIsometry, name: str, m: FiniteStructure,
                  n: FiniteStructure) -> ApproxIsometry:
    """The lifted approximate isometry between the graphs of a relation.

    Entry at (x-tuple, y-tuple) is the max of the psi values of the matched
    coordinates and the gap between the two relation values.
    """
    tm, tn = m.table(name), n.table(name)
    if tm.ndim != tn.ndim:
        raise DimensionError(f"relation {name!r} has mismatched arities")
    pts_m, gm = _graph_metric(m, name)
    pts_n, gn = _graph_metric(n, name)
    table = np.zeros((len(pts_m), len(pts_n)))
    for a, xb in enumerate(pts_m):
        for b, yb in enumerate(pts_n):
            coord = max(psi.psi[xb[i], yb[i]] for i in range(tm.ndim))
            table[a, b] = max(coord, abs(tm[xb] - tn[yb]))
    return ApproxIsometry(psi=table, dx=gm, dy=gn)


def correspondence_extension(m: FiniteStructure, n: FiniteStructure, pairs,
                             eps: float) -> np.ndarray:
    """Smallest Katetov-valid majorant of the value eps on the given pairs.

    The table ``psi(x, y) = eps + min over (x', y') in pairs of
    (d(x, x') + d(y', y))`` is the standard metric amalgamation extension.
    """
    return eps + _gap_table(m, n, pairs)


def _gap_table(m: FiniteStructure, n: FiniteStructure, pairs) -> np.ndarray:
    """min over pairs of d(x, x') + d(y', y); the eps-free part of the extension."""
    out = np.full((m.size, n.size), np.inf)
    for x in range(m.size):
        for y in range(n.size):
            out[x, y] = min(m.metric[x, xp] + n.metric[yp, y] for xp, yp in pairs)
    return out


def _eps_of_correspondence(m: FiniteStructure, n: FiniteStructure, pairs,
                           dom_m, dom_n, names, slack: float = 1e-9) -> float:
    """Critical epsilon at which the extension of a full correspondence passes.

    Combines the Katetov-validity threshold of the extension with the
    epsilon-bijection thresholds of every lifted relation in the sublanguage,
    where lifted matching is only possible along pairs at zero gap.
    """
    g = _gap_table(m, n, pairs)
    eps = 0.0
    # Katetov validity: d(x, x~) <= 2 eps + g(x, y) + g(x~, y), both sides.
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


def _full_correspondences(dom_m, dom_n):
    """All subsets of dom_m x dom_n covering every row and column."""
    cells = list(itertools.product(dom_m, dom_n))
    for mask in range(1, 1 << len(cells)):
        pairs = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if {p[0] for p in pairs} == set(dom_m) and {p[1] for p in pairs} == set(dom_n):
            yield pairs


def _surjection_graphs(dom_m, dom_n):
    """Graphs of surjections from the larger domain onto the smaller one."""
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


def dk_bruteforce(m: FiniteStructure, n: FiniteStructure, k: int = 1,
                  cap: int = DEFAULT_DK_CAP) -> float:
    """Brute-force level-k distance between two finite structures.

    Minimizes the critical epsilon of the Katetov extension over full
    correspondences between the level-k domains; exhaustive while the domain
    product is small, restricted to surjection graphs beyond that.
    """
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
    if len(dom_m) * len(dom_n) <= EXHAUSTIVE_PAIR_LIMIT:
        candidates = _full_correspondences(dom_m, dom_n)
    else:
        candidates = _surjection_graphs(dom_m, dom_n)
    best = np.inf
    for pairs in candidates:
        best = min(best, _eps_of_correspondence(m, n, pairs, dom_m, dom_n, names))
        if best == 0.0:
            break
    if not np.isfinite(best):
        raise DimensionError("no full correspondence exists between the domains")
    return float(best)


def dgh_structures(m: FiniteStructure, n: FiniteStructure, k_max: int = 3,
                   cap: int = DEFAULT_DK_CAP) -> float:
    """Truncated weighted sum ``sum_{k <= k_max} 2^-k d_k(m, n)``."""
    return float(sum(2.0 ** (-k) * dk_bruteforce(m, n, k, cap) for k in range(1, k_max + 1)))
