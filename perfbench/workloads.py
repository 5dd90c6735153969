"""Seeded workloads of the osclass benchmark.

Each workload is a fixed batch of ops built from ``--seed``: the composition
(which calls, at which sizes, how many) never changes, the values do.  Every
op carries its own check, and the expected verdict of every exact op is fixed
by how its input was made:

- rigid images of spectra and affine images of point sets are positive;
- relabelings of a structure are at distance 0;
- dim-1 point sets with at most 4 points are degree-1 homeomorphic by
  cardinality, and so are dim-2 sets with at most 9;
- generic draws are negative, cross-checked against the other exact route
  (fast path against oracle, 4-point obstruction for 4 points, and the two
  degree-1 routes on the same pair).

The estimator ops (d_n searches and inner ascents) run on a fixed panel of
problems.  The seed sets only the unitary frames the problems are presented
in, which leave the d_n objective and the amplified norms unchanged, so the
two quality metrics, and the cost of these ops, compare the estimator on the
same problems at every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from io import StringIO
from typing import Any, Callable

import numpy as np

from osclass import cli, degree1, formulas, metric, opsys, osdist, unitary
from osclass.metric import FiniteStructure, RelationSymbol, Signature

import checker

TWO_PI = 2.0 * np.pi

WORKLOADS = ("exact", "estimate", "structures", "cli")

#: Stream of the fixed estimator panel; independent of the workload seed.
PANEL_SEED = 14110512

#: Outer Nelder-Mead evaluations per d_n start (the library default is 120);
#: inner ascents keep the library defaults, so the ratio of outer to inner
#: work is the one every d_n search has.
OUTER_ITERS = 40

#: Few restarts for the 2x2 W_t search; none of 1500 random (t, s) pairs
#: needed more than 2 (one failed with 2), and 4 keeps each call under the
#: cost of one default amplified-norm ascent.
WT2_RESTARTS = 4


@dataclass
class Op:
    """One call into the program and the check of its output."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    #: "dn_zero" or "inner_norm" when the op feeds a quality metric.
    quality: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    #: Ops whose results define the quality metrics (part of ``ops`` for
    #: ``estimate``; run once, untimed, after the measurement otherwise).
    probe: list = field(default_factory=list)


def _fail_if(cond: bool, reason: str) -> str | None:
    return reason if cond else None


# --- shared generators --------------------------------------------------------

def haar_unitary(rng, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def circle_angles(rng, m: int) -> np.ndarray:
    """m sorted angles, pairwise at least 1e-3 apart on the circle."""
    while True:
        a = np.sort(rng.uniform(0.0, TWO_PI, m))
        if m == 1 or min(np.min(np.diff(a)), TWO_PI - a[-1] + a[0]) > 1e-3:
            return a


def unitary_with(rng, angles) -> np.ndarray:
    """A unitary with the given spectrum in a random frame."""
    q = haar_unitary(rng, len(angles))
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def rigid_image(rng, angles) -> np.ndarray:
    rot = rng.uniform(0.0, TWO_PI)
    base = -angles if rng.random() < 0.5 else angles
    return (base + rot) % TWO_PI


def affine_four_points(rng):
    """Two 4-point spectra related by a non-rigid real-affine map.

    The four intersections of the unit circle with the ellipse of semi-axes
    (ea, eb) are mapped onto the circle by ``z -> ((ea+eb)/2) z +
    ((ea-eb)/2) conj z``; rotating each side keeps the pair isomorphic.
    """
    ea, eb = rng.uniform(1.1, 1.5), rng.uniform(0.6, 0.9)
    x = math.sqrt((1 - 1 / eb**2) / (1 / ea**2 - 1 / eb**2))
    y = math.sqrt(1 - x**2)
    ws = np.array([x + 1j * y, -x + 1j * y, -x - 1j * y, x - 1j * y])
    zs = ws.real / ea + 1j * ws.imag / eb
    za = (np.angle(zs) + rng.uniform(0, TWO_PI)) % TWO_PI
    wa = (np.angle(ws) + rng.uniform(0, TWO_PI)) % TWO_PI
    return za, wa


def complex_normal(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def point_pair(rng, kind: str, m: int, dim: int = 1):
    """Source points and a shuffled target: affine, conjugate-affine, rigid or generic."""
    z = complex_normal(rng, m, dim)
    if kind == "generic":
        w = complex_normal(rng, m, dim)
    elif kind == "rigid":
        w = z * np.exp(1j * rng.uniform(0.0, TWO_PI)) + complex_normal(rng, 1, dim)
    else:
        src = z.conj() if kind == "conj" else z
        a = complex_normal(rng, dim, dim) + 2.0 * np.eye(dim)
        w = src @ a.T + complex_normal(rng, 1, dim)
    return z, w[rng.permutation(m)]


def euclidean_metric(rng, m: int) -> np.ndarray:
    p = rng.uniform(0.0, 1.0, (m, 2))
    return np.linalg.norm(p[:, None] - p[None, :], axis=2)


def relabel_table(table: np.ndarray, perm) -> np.ndarray:
    """Point i of the original is point perm[i] of the result."""
    inv = np.argsort(perm)
    return table[np.ix_(*([inv] * table.ndim))]


# --- exact --------------------------------------------------------------------

def _oracle_op(kind, u, v, s_angles, t_angles, positive: bool) -> Op:
    zs = np.exp(1j * checker.sorted_angles(s_angles))
    ws = np.exp(1j * checker.sorted_angles(t_angles))

    def check(dec):
        want = "Isomorphic" if positive else "NotIsomorphic"
        if dec.verdict != want or dec.method != "oracle":
            return f"oracle said {dec.verdict} ({dec.method}), expected {want}"
        if positive:
            c = dec.certificate
            return checker.replay_span_certificate(
                c["bijection"], c["forward_coeffs"], c["backward_coeffs"], zs, ws)
        if zs.size == 4:
            obs = unitary.four_point_obstruction(u, v)
            return _fail_if(not obs["all_nonzero"], "4-point obstruction has a zero determinant")
        fast = unitary.cois_unitary_theorem(u, v)
        return _fail_if(fast.verdict != "NotIsomorphic", f"fast path disagrees: {fast.verdict}")

    return Op(kind, lambda: unitary.cois_unitary_oracle(u, v), check)


def _deg1_ops(label: str, z, w, positive: bool) -> list:
    d, e = degree1.PointSet(z.shape[1], z), degree1.PointSet(w.shape[1], w)
    total = math.factorial(z.shape[0])

    def check(dec, via_opsys: bool):
        if dec.homeomorphic != positive:
            return f"homeomorphic={dec.homeomorphic}, expected {positive}"
        if not positive:
            return _fail_if(dec.tried != total, f"tried {dec.tried} of {total} bijections")
        wit = dec.witness
        if via_opsys:
            return checker.replay_degree_one(wit["bijection"], z, w)
        return checker.replay_degree_one(wit["bijection"], z, w,
                                         wit["forward"].coeffs, wit["backward"].coeffs)

    return [
        Op(f"deg1.{label}", lambda: degree1.degree_one_homeomorphic(d, e),
           lambda r: check(r, False)),
        Op(f"deg1_opsys.{label}", lambda: degree1.deg1_via_opsys(d, e),
           lambda r: check(r, True)),
    ]


def build_exact(rng, tiny: bool) -> Workload:
    ops = []
    # two draws at m=8, whose fixed-cost enumeration holds the tail of the batch
    for m in (4, 5, 6) if tiny else (4, 5, 6, 7, 8, 8, 9):
        a = circle_angles(rng, m)
        b = rigid_image(rng, a)
        ops.append(_oracle_op(f"oracle.m{m}.rigid", unitary_with(rng, a), unitary_with(rng, b),
                              a, b, True))
        g = circle_angles(rng, m)
        ops.append(_oracle_op(f"oracle.m{m}.generic", unitary_with(rng, a), unitary_with(rng, g),
                              a, g, False))
    for i in range(2):
        za, wa = affine_four_points(rng)
        ops.append(_oracle_op(f"oracle.m4.affine{i}", unitary_with(rng, za), unitary_with(rng, wa),
                              za, wa, True))
    for m in range(4, 6) if tiny else range(4, 8):
        for kind in ("affine", "generic") if m == 7 else ("affine", "conj", "generic"):
            z, w = point_pair(rng, kind, m)
            ops += _deg1_ops(f"d1.m{m}.{kind}", z, w, kind != "generic" or m <= 4)
    if not tiny:
        # at the cap one route per pair: an exhaustive negative, and a rigid
        # image whose bijection the distance-profile order puts first; both
        # cost what ordering the 8! bijections costs
        for kind, route in (("generic", 0), ("rigid", 1)):
            z, w = point_pair(rng, kind, 8)
            ops.append(_deg1_ops(f"d1.m8.{kind}", z, w, kind == "rigid")[route])
    for m, kind in ((5, "affine"), (6, "affine"), (6, "generic")):
        z, w = point_pair(rng, kind, m, dim=2)
        ops += _deg1_ops(f"d2.m{m}.{kind}", z, w, True)
    return Workload("exact", ops)


# --- estimate -----------------------------------------------------------------

def _system(gen) -> opsys.OperatorSystemSpan:
    return opsys.build_system([gen])


def _framed(rng, g: np.ndarray) -> np.ndarray:
    w = haar_unitary(rng, g.shape[0])
    return w @ g @ w.conj().T


def _dn_op(kind, x, y, quality=None, bound=None, **kwargs) -> Op:
    def check(rec):
        why = checker.finite_nonneg(rec["estimate"], "d_n estimate")
        if why or bound is None:
            return why
        return _fail_if(rec["estimate"] > bound,
                        f"zero pair estimate {rec['estimate']:.3e} > {bound}")

    return Op(kind, lambda: osdist.dn_search(x, y, **kwargs), check, quality)


def _amn_op(kind, x, y, u, level, quality=None, **kwargs) -> Op:
    floor = checker.unit_ratio(y.basis, u, x.unit_coeffs)

    def check(val):
        why = checker.finite_nonneg(val, "amplified norm")
        if why:
            return why
        return _fail_if(val < floor * (1 - 1e-9),
                        f"norm {val} below the unit-element ratio {floor}")

    return Op(kind, lambda: osdist.amplified_map_norm(x, y, u, level=level, **kwargs), check,
              quality)


def _wt2_op(kind, t: float, s: float, seed: int, restarts: int) -> Op:
    def check(dec):
        # the 2x2 family is mutually isomorphic, so every search must succeed
        if dec.verdict != "Isomorphic":
            return f"W_t 2x2 ({t}, {s}) said {dec.verdict}"
        c = dec.certificate
        if not c.get("spans_match"):
            return "spans_match is false"
        return checker.replay_wt2(t, s, c["unitary"], c["coefficients"])

    return Op(kind, lambda: osdist.wt_classify(t, s, "two_by_two", restarts=restarts, seed=seed),
              check)


def panel_triple(frames, pair: int, k: int = 3):
    """A fixed (system, system, map) triple of the panel, in seeded frames.

    ``frames`` presents both systems in random unitary frames, which leaves
    every ratio of an inner ascent, and every value of the d_n objective,
    unchanged: the problem is the same at every seed.
    """
    panel = np.random.default_rng([PANEL_SEED, pair])
    g, h = complex_normal(panel, k, k), complex_normal(panel, k, k)
    u = np.eye(3) + 0.4 * complex_normal(panel, 3, 3)
    return _system(_framed(frames, g)), _system(_framed(frames, h)), u


def panel_norm_ops(frames, pair: int, tiny: bool, quality=None) -> list:
    """Default-setting inner ascents at levels 1-3 on a fixed triple."""
    x, y, u = panel_triple(frames, pair)
    return [_amn_op(f"amn.panel{pair}.L{level}", x, y, u, level, quality,
                    starts=4 if tiny else 16, iters=20 if tiny else 200, seed=0)
            for level in (1, 2, 3)]


def quality_probe(seed: int, tiny: bool) -> list:
    """The fixed estimator panel in seeded unitary frames."""
    panel = np.random.default_rng(PANEL_SEED)
    g2 = complex_normal(panel, 2, 2)
    g3 = complex_normal(panel, 3, 3)
    a, b = 0.8 + 0.3j, 0.4 - 0.2j
    frames = np.random.default_rng([seed, len(WORKLOADS)])
    iters = {"outer_iters": 10, "inner_iters": 8} if tiny else {"outer_iters": OUTER_ITERS}
    ops = [
        _dn_op("dn.panel.2x2.gstar.L1", _system(_framed(frames, g2)),
               _system(_framed(frames, g2.conj().T)), "dn_zero",
               level=1, restarts=1, seed=0, **iters),
        _dn_op("dn.panel.3x3.affine.L1", _system(_framed(frames, g3)),
               _system(_framed(frames, a * g3 + b * np.eye(3))), "dn_zero",
               level=1, restarts=1, seed=0, **iters),
    ]
    return ops + panel_norm_ops(frames, 0, tiny, "inner_norm")


def build_estimate(rng, seed: int, tiny: bool) -> Workload:
    probe = quality_probe(seed, tiny)
    ops = list(probe)
    small = {"outer_iters": 10, "inner_iters": 8} if tiny else {"outer_iters": OUTER_ITERS}
    g = complex_normal(rng, 2, 2)
    x = _system(g)
    ops.append(_dn_op("dn.conj.2x2.L1", x, _system(_framed(rng, g)),
                      bound=checker.ZERO_PAIR_BOUND, level=1, restarts=2, seed=seed,
                      outer_iters=20, inner_starts=1, inner_iters=8))
    x3, y3, _ = panel_triple(rng, 20)

    def check_weighted(rep):
        for rec in rep.per_level:
            why = checker.finite_nonneg(rec["estimate"], f"level-{rec['level']} estimate")
            if why:
                return why
        total = sum(2.0 ** -rec["level"] * rec["estimate"] for rec in rep.per_level)
        return _fail_if(abs(total - rep.weighted) > 1e-12 * (1 + total), "weighted sum mismatch")

    ops.append(Op("dgh_weighted.3x3.distinct.n2",
                  lambda: osdist.dgh_weighted(x3, y3, n_max=2, restarts=1, seed=0, **small),
                  check_weighted))
    # the inner ascent at the settings the d_n objective calls it with
    for i in range(7):
        xs, ys, u = panel_triple(rng, 10 + i, 2 + i % 2)
        for level in (1, 2, 3):
            ops.append(_amn_op(f"amn.inner.L{level}", xs, ys, u, level, starts=2, iters=40,
                               seed=0))
    # the same ascent at its default settings on two more fixed triples, whose
    # steady cost holds the tail of the batch
    for pair in (1, 2):
        ops += panel_norm_ops(rng, pair, tiny)
    for i in range(5):
        t, s = (float(v) for v in np.round(rng.uniform(0.1, 1.0, 2), 6))
        ops.append(_wt2_op("wt.2x2", t, s, seed=seed + i, restarts=WT2_RESTARTS))
    return Workload("estimate", ops, probe)


# --- structures ---------------------------------------------------------------

def triangle_grid() -> list:
    return [(a, b, c) for a, b, c in itertools.combinations_with_replacement((1.0, 2.0, 3.0), 3)
            if c <= a + b]


def triangle(sides) -> np.ndarray:
    a, b, c = sides
    return np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])


def _dk_op(kind, m: FiniteStructure, n: FiniteStructure, zero: bool | None, k: int = 1,
           weighted: bool = False) -> Op:
    dom_m, dom_n = list(m.domain(k)), list(n.domain(k))
    floor = checker.diameter_bound(m.metric[np.ix_(dom_m, dom_m)], n.metric[np.ix_(dom_n, dom_n)])

    def check(val):
        why = checker.finite_nonneg(val, "distance")
        if why:
            return why
        if zero is True and val > 1e-12:
            return f"relabeled/isometric pair at distance {val:.3e}"
        if zero is False and val <= 1e-9:
            return f"non-isometric pair at distance {val:.3e}"
        return _fail_if(val < floor - 1e-12, f"distance {val} below the diameter bound {floor}")

    if weighted:
        return Op(kind, lambda: metric.dgh_structures(m, n), check)
    return Op(kind, lambda: metric.dk_bruteforce(m, n, k), check)


def relational_signature() -> Signature:
    return Signature(relations=(RelationSymbol("R", 1), RelationSymbol("B", 2)),
                     sublanguages=({"d"}, {"d", "R"}, {"d", "R", "B"}))


def relational_structure(rng, m: int):
    metric_table = euclidean_metric(rng, m)
    rels = {"R": rng.uniform(0, 1, m), "B": rng.uniform(0, 1, (m, m))}
    return metric_table, rels


def _fingerprint_ops(kind, s, t, depth, memo) -> list:
    key = (kind, depth)

    def first(fp):
        memo[key] = fp
        return _fail_if(fp.size == 0 or not np.all(np.isfinite(fp)),
                        "empty or non-finite fingerprint")

    def second(fp):
        return _fail_if(not np.array_equal(fp, memo.get(key)),
                        "fingerprint changed under relabeling")

    return [Op(f"fingerprint.{kind}.d{depth}",
               lambda: formulas.universal_fingerprint(s, depth), first),
            Op(f"fingerprint.{kind}.d{depth}.relabel",
               lambda: formulas.universal_fingerprint(t, depth), second)]


def build_structures(rng, tiny: bool) -> Workload:
    ops = []
    grid = triangle_grid()
    for i in range(6):
        first = grid[rng.integers(len(grid))]
        if i % 2 == 0:
            m = FiniteStructure(triangle(first))
            n = FiniteStructure(triangle(rng.permutation(first)))
            ops.append(_dk_op("dgh.triangle.iso", m, n, True, weighted=True))
            ops.append(_dk_op("dk.triangle.iso", m, n, True))
        else:
            other = grid[rng.integers(len(grid))]
            while checker.isometric(triangle(first), triangle(other)):
                other = grid[rng.integers(len(grid))]
            m, n = FiniteStructure(triangle(first)), FiniteStructure(triangle(other))
            ops.append(_dk_op("dk.triangle.distinct", m, n, False))
    # exhaustive masks: 2^12 correspondences per 3x4 pair
    for i in range(1 if tiny else 2):
        m = FiniteStructure(euclidean_metric(rng, 3))
        n = FiniteStructure(euclidean_metric(rng, 2 if tiny else 4))
        ops.append(_dk_op("dgh.3x4" if i == 0 else "dk.3x4", m, n, False, weighted=i == 0))
    # early exit: relabelings with unary and binary relations; the last point
    # goes to the first and the third to neither of the last two, so the
    # zero correspondence comes within the first 2^12 + 2^10 masks
    sig = relational_signature()
    table, rels = relational_structure(rng, 4)
    s = FiniteStructure(table, rels, signature=sig)
    perms = [p for p in itertools.permutations(range(4)) if p[3] == 0 and p[2] < 3]
    for p in perms[:2] if tiny else perms:
        t = FiniteStructure(relabel_table(table, p),
                            {k: relabel_table(v, p) for k, v in rels.items()}, signature=sig)
        ops.append(_dk_op("dk.relabel4.k3", s, t, True, k=3))
    # surjection regime: more than 20 cells
    sizes = ((5, 5),) if tiny else ((5, 5), (5, 5), (6, 5), (6, 6))
    for a, b in sizes:
        m, n = FiniteStructure(euclidean_metric(rng, a)), FiniteStructure(euclidean_metric(rng, b))
        ops.append(_dk_op(f"dk.surj.{a}x{b}", m, n, False))
    five = euclidean_metric(rng, 5)
    ops.append(_dk_op("dk.surj.relabel5", FiniteStructure(five),
                      FiniteStructure(relabel_table(five, rng.permutation(5))), True))
    memo: dict = {}
    p = rng.permutation(4)
    t = FiniteStructure(relabel_table(table, p), {k: relabel_table(v, p) for k, v in rels.items()},
                        signature=sig)
    for depth in (3,) if tiny else (3, 4):
        ops += _fingerprint_ops("rel4", s, t, depth, memo)
    tri = triangle(grid[rng.integers(len(grid))])
    ops += _fingerprint_ops("tri", FiniteStructure(tri),
                            FiniteStructure(relabel_table(tri, rng.permutation(3))), 4, memo)
    # construction cost is the same for every metric of a size (the triangle
    # check always runs in full), so these ops hold the median and the tail
    # of the batch steady
    inits = ((10, 3), (15, 7), (20, 7)) if tiny else ((30, 3), (45, 7), (60, 7))
    for size, count in inits:
        for _ in range(count):
            table_n = euclidean_metric(rng, size)

            def check_init(st, table_n=table_n):
                return _fail_if(not np.array_equal(st.metric, table_n), "metric table changed")

            ops.append(Op(f"structure.init.{size}", lambda t=table_n: FiniteStructure(t),
                          check_init))
    return Workload("structures", ops)


# --- cli ------------------------------------------------------------------------

def _render(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_json(m) -> dict:
    return {"rows": [[_render(z) for z in row] for row in np.asarray(m, dtype=complex)]}


class _Files:
    """Writes the JSON inputs of the cli workload under one directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def report_path(self, name: str) -> str:
        return os.path.join(self.workdir, f"report-{name}.json")


def _cli_op(kind, argv, check, save_to: str | None = None) -> Op:
    """Runs ``osclass.cli.run``; a report is saved once for a later verify op."""

    def call():
        buf = StringIO()
        code = cli.run(list(argv), stdout=buf)
        return code, buf.getvalue()

    def checked(res):
        code, text = res
        if code != 0:
            return f"exit code {code}"
        why = check(json.loads(text))
        if why is None and save_to and not os.path.exists(save_to):
            with open(save_to, "w", encoding="utf-8") as fh:
                fh.write(text)
        return why

    return Op(kind, call, checked)


def build_cli(rng, workdir: str, tiny: bool) -> Workload:
    f = _Files(workdir)
    ops, verify = [], []
    for m in (5, 10, 20) if tiny else (5, 10, 20, 40, 80):
        a = circle_angles(rng, m)
        b, g = rigid_image(rng, a), circle_angles(rng, m)
        fu = f.write(_matrix_json(unitary_with(rng, a)))
        fv = f.write(_matrix_json(unitary_with(rng, b)))
        fw = f.write(_matrix_json(unitary_with(rng, g)))
        want = checker.sorted_angles(a)

        def check_spectrum(rep, want=want):
            got = np.asarray(rep["angles"])
            return _fail_if(got.shape != want.shape or np.max(np.abs(got - want)) > 1e-8,
                            "spectrum angles differ from the true spectrum")

        def check_canon(rep, angles):
            got, want_gaps = np.asarray(rep["gaps"]), checker.canonical_gaps(angles)
            return _fail_if(got.shape != want_gaps.shape or np.max(np.abs(got - want_gaps)) > 1e-8,
                            "canonical gaps differ from the exact canonical necklace")

        def check_rigid(rep, a=a, b=b):
            if rep["verdict"] != "Isomorphic":
                return f"rigid image said {rep['verdict']}"
            mo = rep["certificate"]["motion"]
            return checker.replay_motion(mo["rotation"], mo["reflect"], a, b)

        def check_generic(rep):
            return _fail_if(rep["verdict"] != "NotIsomorphic",
                            f"generic pair said {rep['verdict']}")

        save = f.report_path(f"spectrum{m}") if m == 10 else None
        ops.append(_cli_op(f"cli.spectrum.m{m}", ["spectrum", fu], check_spectrum, save))
        if save:
            verify.append(save)
        ops.append(_cli_op(f"cli.canon.m{m}", ["canon", fu], lambda r, a=a: check_canon(r, a)))
        ops.append(_cli_op(f"cli.canon.m{m}", ["canon", fv], lambda r, b=b: check_canon(r, b)))
        save = f.report_path(f"cois{m}") if m == 20 else None
        ops.append(_cli_op(f"cli.unitary-cois.m{m}.rigid", ["unitary-cois", fu, fv], check_rigid,
                           save))
        if save:
            verify.append(save)
        ops.append(_cli_op(f"cli.unitary-cois.m{m}.generic", ["unitary-cois", fu, fw],
                           check_generic))
    za, wa = affine_four_points(rng)
    fu = f.write(_matrix_json(unitary_with(rng, za)))
    fv = f.write(_matrix_json(unitary_with(rng, wa)))
    zs, ws = np.exp(1j * checker.sorted_angles(za)), np.exp(1j * checker.sorted_angles(wa))

    def check_oracle(rep):
        if rep["verdict"] != "Isomorphic":
            return f"affine 4-point pair said {rep['verdict']}"
        c = rep["certificate"]
        return checker.replay_span_certificate(
            c["bijection"], checker.complex_array(c["forward_coeffs"]),
            checker.complex_array(c["backward_coeffs"]), zs, ws)

    verify.append(f.report_path("oracle"))
    ops.append(_cli_op("cli.unitary-cois.oracle.m4", ["unitary-cois", fu, fv, "--oracle"],
                       check_oracle, verify[-1]))
    for kind, flag in (("affine", []), ("affine", ["--via-opsys"]), ("generic", [])):
        z, w = point_pair(rng, kind, 5)
        fd = f.write({"dim": 1, "points": [[_render(c)] for c in z[:, 0]]})
        fe = f.write({"dim": 1, "points": [[_render(c)] for c in w[:, 0]]})

        def check_deg1(rep, z=z, w=w, positive=kind == "affine"):
            if rep["homeomorphic"] != positive:
                return f"deg1 said {rep['homeomorphic']}, expected {positive}"
            if not positive:
                return _fail_if(rep["tried"] != 120, f"tried {rep['tried']} of 120")
            wit = rep["witness"]
            fwd = checker.complex_array(wit["forward"]["coeffs"]) if "forward" in wit else None
            bwd = checker.complex_array(wit["backward"]["coeffs"]) if "backward" in wit else None
            return checker.replay_degree_one(wit["bijection"], z, w, fwd, bwd)

        save = f.report_path("deg1") if kind == "affine" and not flag else None
        ops.append(_cli_op(f"cli.deg1.m5.{kind}{''.join(flag)}", ["deg1", fd, fe, *flag],
                           check_deg1, save))
        if save:
            verify.append(save)
    for k, level in ((2, 1), (2, 2), (3, 2)):
        gen = complex_normal(rng, k, k)
        coeffs = complex_normal(rng, level, level, 3)
        fs = f.write({"generators": [_matrix_json(gen)]})
        fe = f.write({"level": level,
                      "coeffs": [[[_render(c) for c in v] for v in row] for row in coeffs]})
        basis = [np.eye(k), gen, gen.conj().T]
        big = np.block([[sum(c * b for c, b in zip(coeffs[i, j], basis)) for j in range(level)]
                        for i in range(level)])
        want_norm = float(np.linalg.svd(big, compute_uv=False)[0])

        def check_norm(rep, want_norm=want_norm):
            return _fail_if(abs(rep["norm"] - want_norm) > 1e-9 * (1 + want_norm),
                            f"norm {rep['norm']} differs from {want_norm}")

        ops.append(_cli_op(f"cli.norm.{k}x{k}.L{level}", ["norm", fs, "--element", fe], check_norm))
    t = float(np.round(rng.uniform(0.1, 1.0), 6))
    s = float(np.round(rng.uniform(0.1, 1.0), 6))
    # the 2x2 pair is equal, so its search ends at the first start: the draw
    # does not set its cost (estimate covers the search on unequal pairs)
    for variant, ss in (("3x3", t), ("3x3", s), ("2x2", t)):
        def check_family(rep, variant=variant, ss=ss):
            want = "Isomorphic" if variant == "2x2" or ss == t else "NotIsomorphic"
            if rep["verdict"] != want:
                return f"W_t {variant} ({t}, {ss}) said {rep['verdict']}, expected {want}"
            if variant == "3x3":
                return None
            c = rep["certificate"]
            return checker.replay_wt2(t, ss, checker.complex_array(c["unitary"]),
                                      checker.complex_array(c["coefficients"]))

        ops.append(_cli_op(f"cli.family.{variant}", ["family", "wt", "--variant", variant,
                                                     "--t", repr(t), "--s", repr(ss),
                                                     "--seed", str(int(rng.integers(1000))),
                                                     "--restarts", str(WT2_RESTARTS)],
                           check_family))
    table, rels = relational_structure(rng, 4)
    p = rng.permutation(4)
    fingerprints: dict = {}
    for name, (tb, rr) in (("orig", (table, rels)),
                           ("relabel", (relabel_table(table, p),
                                        {k: relabel_table(v, p) for k, v in rels.items()}))):
        fs = f.write({"metric": tb.tolist(),
                      "relations": {k: {"arity": v.ndim, "table": v.tolist()}
                                    for k, v in rr.items()}})

        def check_theory(rep, name=name):
            fingerprints[name] = rep["fingerprint"]
            if name == "orig":
                return _fail_if(rep["length"] != len(rep["fingerprint"]), "length mismatch")
            return _fail_if(rep["fingerprint"] != fingerprints.get("orig"),
                            "fingerprint changed under relabeling")

        ops.append(_cli_op(f"cli.gh-theory.{name}", ["gh-theory", fs, "--depth", "3"],
                           check_theory))

    def check_verify(rep):
        failed = [c["check"] for c in rep["certificate_checks"] if not c["pass"]]
        return _fail_if(not (rep["verified"] and rep["replay_identical"]) or failed,
                        f"verify failed: identical={rep['replay_identical']} checks={failed}")

    for path in verify:
        name = os.path.basename(path)[len("report-"):-len(".json")]
        ops.append(_cli_op(f"cli.verify.{name}", ["verify", path], check_verify))
    return Workload("cli", ops)


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """The workload's batch of ops, generated from ``seed`` alone."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "estimate":
        return build_estimate(rng, seed, tiny)
    if name == "exact":
        wl = build_exact(rng, tiny)
    elif name == "structures":
        wl = build_structures(rng, tiny)
    else:
        wl = build_cli(rng, workdir, tiny)
    wl.probe = quality_probe(seed, tiny)
    return wl
