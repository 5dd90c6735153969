"""Numerical distances between operator systems and the W_t families.

The level-n distance between two N-dimensional systems is the infimum over
invertible linear maps of the maximum of the unit displacement and the logs of
the amplified norms of the map and its inverse.  Neither the inner norm nor
the outer infimum is convex, so everything here is a seeded multi-start
estimator: inner norms are lower-biased ratio ascents, outer values are
best-found objectives.  Definitive non-isomorphism verdicts come from the
exact classifiers (unitary spectra, the 3x3 W_t trace/singular-value
argument), never from these estimates.

Both searches are Nelder-Mead, run by one private lockstep minimiser
(:func:`_nelder_mead`) that advances every start's simplex together and
reproduces scipy's ``minimize(method="Nelder-Mead")`` iterate for iterate.
Each simplex phase is one batched objective call: the outer search
evaluates all its restarts' maps at once, and each such call runs the
forward and backward inner ascents of all those maps as one lockstep
search, whose phases take their ratios from one :func:`_ratios` call each
(:class:`_Plan` holds what they share), every norm from ``opsys._norms``,
as ``amplified_norm``'s.  The iterates follow scipy's rules given these
values: estimates, maps and reports are those of one scipy run per start
whose norms are ``amplified_norm`` values, bit for bit.  The norm chunks are
blocked by ``linalg.block_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, NotComparableError
# op_norm stays importable from here: the benchmark's tracer test reads osdist.op_norm
from .linalg import (TOL_NUM, FactoredSpan, _replay_check, block_size, gram_rank,  # noqa: F401
                     op_norm, top_singular)
from .opsys import OperatorSystemSpan, _norms, _stack, build_system
from .unitary import CoisDecision

#: Condition-number bound past which a candidate map is treated as singular.
COND_BOUND = 1e12

#: Most initial-simplex vertices in one lockstep batch of inner ascents.  The
#: outer search evaluates its maps in batches of this size, which bounds the
#: memory of a many-restart search; larger batches save no time.
_BATCH_VERTICES = 1 << 13

#: Denominator norm below which :func:`_ratios` scores an element's ratio 0.
RATIO_FLOOR = 1e-14

#: Most floats of the initial simplices of one search: the outer d_n
#: search's, or one map's inner ascents'.  Checked before any is built.
MAX_SIMPLEX_FLOATS = 1 << 24


@dataclass(frozen=True)
class LinearMapCoords:
    """Coordinates of a linear map between two systems' bases."""

    matrix: np.ndarray  # N x N complex

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"map coordinates must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def condition(self) -> float:
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s[-1] == 0.0:
            return np.inf
        return float(s[0] / s[-1])


@dataclass(frozen=True)
class WtParams:
    """Parameters of the W_t family: t in (0, 1] and the ambient variant."""

    t: float
    variant: str = "three_by_three"  # or "two_by_two"

    def __post_init__(self):
        if not (0.0 < self.t <= 1.0):
            raise DimensionError(f"t must lie in (0, 1], got {self.t}")
        if self.variant not in ("three_by_three", "two_by_two"):
            raise DimensionError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class DistanceReport:
    """Per-level distance estimates and their truncated weighted sum."""

    per_level: tuple  # of dicts {level, estimate, map, restarts}
    weighted: float
    seed: int


def _check_args(search: str, counts: dict, budgets: dict) -> None:
    """Every count must be at least 1; every budget (the seed, or a number of
    evaluations, where 0 scores the starts only) at least 0."""
    for name, count in counts.items():
        if count < 1:
            raise DimensionError(f"{search} needs at least 1 {name}, got {count}")
    for name, budget in budgets.items():
        if budget < 0:
            raise DimensionError(f"{search} needs a nonnegative {name}, got {budget}")


def _check_simplices(search: str, dim: int, level: int, inner: int, outer: int = 0) -> None:
    """``inner`` starts of a level-n ascent, in d = 2 n^2 N real dimensions,
    and ``outer`` starts of a d_n search, in d = 2 N^2, hold
    ``starts * (d + 1) * d`` simplex floats each; neither may pass
    ``MAX_SIMPLEX_FLOATS``."""
    for name, count, d in (("inner", inner, 2 * level * level * dim),
                           ("outer", outer, 2 * dim * dim)):
        floats = count * (d + 1) * d
        if floats > MAX_SIMPLEX_FLOATS:
            raise CapacityError(f"{search} would open {floats} {name} simplex floats, "
                                f"past MAX_SIMPLEX_FLOATS = {MAX_SIMPLEX_FLOATS}")


class _Plan:
    """What every phase of one search's inner ascents reuses.

    Built once per ``amplified_map_norm`` or ``dn_search``: the two systems,
    the start template (the unit element ``I_n (x) e`` of each side, then
    ``starts - 1`` seeded random elements shared by every map), and
    ``step``, the most elements of a chunk, each counting its matrices on
    both sides and their Gram products.  The plan of a ``dn_search``
    (``share``) also holds ``start_den``: the denominators of the first
    phase of every ascent, which depend on its template's vertex alone, so
    every map's first phase takes only its numerators.
    """

    def __init__(self, x: OperatorSystemSpan, y: OperatorSystemSpan, level: int,
                 starts: int, iters: int, seed: int, share: bool = False):
        self.level, self.starts, self.iters, self.systems = level, starts, iters, (x, y)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        noise = [rng.standard_normal(2 * level * level * x.dim) for _ in range(starts - 1)]
        self.template = [np.array([_complex_to_real(np.eye(level)[:, :, None] * s.unit_coeffs),
                                   *noise]) for s in (x, y)]
        self.step = block_size(2 * level ** 2 * (x.ambient_dim ** 2 + y.ambient_dim ** 2))
        self.start_den = self._start_norms() if share else None

    def _start_norms(self) -> tuple:
        """The first-phase denominators of the ascents from each side's
        template: one per start and vertex of its initial simplex that the
        phase evaluates (only the start itself when ``iters`` is 0),
        start-major, ``step`` vertices a side at a time."""
        (x, y), n, step, d = self.systems, self.level, self.step, self.template[0].shape[1]
        first = min(d + 1, self.iters) or 1
        cx, cy = (_real_to_complex(_initial_simplex(t)[:, :first].reshape(-1, d))
                  .reshape(-1, n * n, x.dim) for t in self.template)
        chunks = [_norms([(cx[i:i + step], x), (cy[i:i + step], y)], n)
                  for i in range(0, len(cx), step)]
        return (np.concatenate([r[:len(r) // 2] for r in chunks]),
                np.concatenate([r[len(r) // 2:] for r in chunks]))


def _quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and 0 where ``den`` is below ``RATIO_FLOOR``."""
    small = den < RATIO_FLOOR
    if np.count_nonzero(small):
        return np.where(small, 0.0, num / np.where(small, 1.0, den))
    return num / den


def _ratios(plan: _Plan, c: np.ndarray, maps: np.ndarray, cut: int,
            den: np.ndarray | None = None) -> np.ndarray:
    """The ratios of one phase's elements under their maps.

    ``c`` is an (m, n, n, N) stack of elements and ``maps`` the (m, N, N)
    stack of their maps: rows before ``cut`` are elements of M_n(X) under
    maps from X to Y, with ratio ||assemble_Y(c_i u_i^T)|| / ||assemble_X(c_i)||,
    and the rest elements of M_n(Y) under maps from Y to X, the other way
    round.  ``den``, when given, holds the denominators already (the plan's
    ``start_den``).  The images take one product per row, and each chunk of
    ``plan.step`` elements one :func:`opsys._norms` call.  An element whose
    denominator is below ``RATIO_FLOOR`` has ratio 0.  Each ratio is the
    quotient of two ``amplified_norm`` values, bit for bit.
    """
    (x, y), m, n = plan.systems, len(c), plan.level
    img = (c @ maps.swapaxes(-1, -2)[:, None]).reshape(m, n * n, -1)
    c = c.reshape(m, n * n, -1)

    def chunk(i: int, j: int) -> np.ndarray:
        t = min(max(cut, i), j)
        num = [(img[i:t], y), (img[t:j], x)]
        if den is not None:
            return _quotients(_norms(num, n), den[i:j])
        r = _norms([(c[i:t], x), (c[t:j], y), *num], n)
        return _quotients(r[j - i:], r[:j - i])

    if m <= plan.step:
        return chunk(0, m)
    return np.concatenate([chunk(i, min(i + plan.step, m)) for i in range(0, m, plan.step)])


def _real_to_complex(v: np.ndarray) -> np.ndarray:
    h = v.shape[-1] // 2
    return v[..., :h] + 1j * v[..., h:]


def _complex_to_real(c: np.ndarray) -> np.ndarray:
    f = c.reshape(-1)
    return np.concatenate([f.real, f.imag])


# scipy's Nelder-Mead coefficients with ``adaptive`` off: reflection,
# expansion, contraction, shrink; and its initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# An iteration's trial points are A xbar - B x_w, one (A, B) pair each:
# reflection, expansion, outside contraction, inside contraction.  scipy
# writes the last (1 - psi) xbar + psi x_w; (-psi) x_w is -(psi x_w) and
# a - (-b) is a + b exactly, so every point has scipy's bits.
_TRIAL_A, _TRIAL_B = np.array([[1 + _RHO, _RHO], [1 + _RHO * _CHI, _RHO * _CHI],
                               [1 + _PSI * _RHO, _PSI * _RHO],
                               [1 - _PSI, -_PSI]]).T[:, :, None, None]
_EXPAND, _OUTSIDE, _INSIDE = 1, 2, 3
# the second trial of a row by 2 [f_r < f_0] + [f_r < f_worst]: an
# expansion whenever the reflection beats the best vertex, else a contraction
_SECOND = np.array([_INSIDE, _OUTSIDE, _EXPAND, _EXPAND])


@np.errstate(invalid="ignore")
def _converged(sim: np.ndarray, fsim: np.ndarray, xatol: float, fatol: float) -> np.ndarray:
    """scipy's ``xatol``/``fatol`` test on every sorted simplex, quietly.

    argsort puts NaN last, so on a sorted row the largest |f_i - f_0| is
    f_last - f_0: with no NaN, f_0 <= f_i <= f_last and rounding is
    monotone, so 0 <= f_i - f_0 <= f_last - f_0 as computed; inf - f_0 is
    inf, and inf - inf or -inf - -inf is NaN; a NaN value is f_last.  Each
    of these fails the test on both sides, as NaN does in scipy.  The
    simplex diameter is measured only where the values already pass.
    """
    flat = fsim[:, -1] - fsim[:, 0] <= fatol
    if np.count_nonzero(flat):
        flat &= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
    return flat


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    """scipy's initial simplex of every row of ``x0``: (b, d + 1, d)."""
    b, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    return sim


def _nelder_mead(fun, x0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Minimise ``fun`` from every row of ``x0`` at once, as scipy would from each.

    Every start follows scipy 1.17's ``minimize(method="Nelder-Mead")``
    (``adaptive`` off, no bounds) iterate for iterate: the same simplex
    arithmetic, sorts and ``maxfev`` rules.  A call past the budget is
    refused and ends that start, which keeps its best vertex and value; the
    initial simplex is cut short when ``maxfev < N + 1``; the
    ``xatol``/``fatol`` test runs before each iteration; a shrink cut short
    by the budget moves the vertices it evaluates and the one whose call it
    refuses, which keeps its old value.

    The starts advance in lockstep: each phase (initial simplex, reflection,
    expansion or contraction, shrink) makes one call ``fun(points, owner)``
    with the points of every start that needs one, ``owner`` naming each
    point's start in nondecreasing order, so ``fun`` must give a point the
    value it would give it alone.  Between the calls an iteration works on
    whole arrays: the convergence test reads the sorted values' ends, all
    four trial points of every row come from one product with a table of
    coefficients, a row's second trial is a lookup in that stack, shrinks
    run only on rows whose contraction failed, and one ``argsort`` and one
    gather sort every simplex.

    Returns ``(x, fval, f0)``: scipy's ``res.x`` and ``res.fun`` for every
    start, and the value at the start itself.
    """
    b, n = x0.shape
    sim = _initial_simplex(x0)
    diag = np.arange(n)
    fsim = np.full((b, n + 1), np.inf)
    first = min(n + 1, maxfev)
    owner = np.repeat(np.arange(b), first)
    fsim[:, :first] = fun(sim[:, :first].reshape(-1, n), owner).reshape(b, first)
    f0 = fsim[:, 0].copy()
    x_end, f_end = np.empty((b, n)), np.empty(b)
    # the rows still running: their start ids and call counts; base holds
    # each row's offset into the flattened simplices
    ids, fcalls = np.arange(b), np.full(b, first)
    base = (n + 1) * ids[:, None]

    def order(sim, fsim):
        # scipy's argsort of each row, then one gather of vertices and values
        ind = fsim.argsort(axis=1)
        ind += base
        return sim.reshape(-1, n).take(ind, axis=0), fsim.take(ind)

    for _ in range(2):  # scipy sorts the initial simplex twice
        sim, fsim = order(sim, fsim)
    while True:
        # scipy's loop condition, then its convergence test
        stop = (fcalls >= maxfev) | _converged(sim, fsim, xatol, fatol)
        if np.count_nonzero(stop):
            x_end[ids[stop]], f_end[ids[stop]] = sim[stop, 0], np.min(fsim[stop], axis=1)
            go = ~stop
            ids, fcalls, sim, fsim = ids[go], fcalls[go], sim[go], fsim[go]
            if not ids.size:
                return x_end, f_end, f0
            base = (n + 1) * np.arange(ids.size)[:, None]
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = _TRIAL_A * xbar - _TRIAL_B * sim[:, -1]
        xr = trial[0]
        fxr = fun(xr, ids)
        fcalls += 1
        # scipy's branches, written with its comparisons so that NaN goes the same way
        expand = fxr < fsim[:, 0]
        put = ~expand & (fxr < fsim[:, -2])
        # a call past the budget is refused: that row keeps its simplex
        sec = (~put & (fcalls < maxfev)).nonzero()[0]
        if sec.size:
            fr, fw = fxr[sec], fsim[sec, -1]
            kind = _SECOND[2 * expand[sec] + (fr < fw)]
            pts = trial[kind, sec]
            f2 = fun(pts, ids[sec])
            fcalls[sec] += 1
            # an expansion replaces xr if better; an outside contraction is
            # taken if no worse than xr, an inside one if better than the
            # worst vertex; a contraction not taken shrinks the simplex
            take = f2 < fr
            np.less_equal(f2, fr, out=take, where=kind == _OUTSIDE)
            np.less(f2, fw, out=take, where=kind == _INSIDE)
            xr[sec[take]], fxr[sec[take]] = pts[take], f2[take]
            keep = take | (kind == _EXPAND)
            put[sec] = keep
            sec = sec[~keep]
        np.copyto(sim[:, -1], xr, where=put[:, None])
        np.copyto(fsim[:, -1], fxr, where=put)
        if sec.size:
            # a shrink cut short by the budget evaluates the vertices it can
            # and moves one more, as scipy does
            left = (maxfev - fcalls[sec])[:, None]
            sr, fr = sim[sec], fsim[sec]
            np.copyto(sr[:, 1:], sr[:, :1] + _SIGMA * (sr[:, 1:] - sr[:, :1]),
                      where=(diag <= left)[:, :, None])
            ev = diag < left
            if ev.any():
                fr[:, 1:][ev] = fun(sr[:, 1:][ev], ids[sec].repeat(ev.sum(1)))
                fcalls[sec] += ev.sum(1)
            sim[sec], fsim[sec] = sr, fr
        sim, fsim = order(sim, fsim)


def _ascents(plan: _Plan, maps: np.ndarray, back: np.ndarray) -> tuple:
    """Best ratio the seeded inner ascent finds for every map, both ways.

    ``maps`` is an (m, N, N) stack of maps from X to Y and ``back`` a stack
    of maps from Y to X.  Every map is ascended from the plan's start
    template of its domain, and all these ascents run as one lockstep
    Nelder-Mead.  Each of its phases converts the points to elements,
    gathers each point's map and makes one :func:`_ratios` call; the best
    ratio of every map is taken once, over every value, when the search
    ends.  Returns the best ratios of ``maps`` and of ``back``.
    """
    n, nn, starts = plan.level, plan.systems[0].dim, plan.starts
    x0 = np.concatenate([np.tile(t, (len(u), 1)) for t, u in zip(plan.template, (maps, back))])
    per_row = np.concatenate([maps, back])[np.arange(len(x0)) // starts]
    forward = len(maps) * starts
    # the first call evaluates each row's initial simplex (its start alone
    # when iters is 0), row by row, whose denominators a sharing plan holds
    first = None if plan.start_den is None else np.concatenate(
        [np.tile(d, len(u)) for d, u in zip(plan.start_den, (maps, back))])
    seen = []

    def neg(points: np.ndarray, owner: np.ndarray) -> np.ndarray:
        c = _real_to_complex(points).reshape(-1, n, n, nn)
        r = _ratios(plan, c, per_row[owner], owner.searchsorted(forward),
                    None if seen else first)
        seen.append((owner, r))
        return -r

    _nelder_mead(neg, x0, max(plan.iters, 1), 1e-10, 1e-12)
    owner, r = (np.concatenate(t) for t in zip(*seen))
    best = np.zeros(len(maps) + len(back))
    np.fmax.at(best, owner // starts, r)
    return best[:len(maps)], best[len(maps):]


def amplified_map_norm(x: OperatorSystemSpan, y: OperatorSystemSpan, u,
                       level: int = 1, starts: int = 16, iters: int = 200,
                       seed: int = 0) -> float:
    """Lower-biased estimate of ``||id_{M_n} (x) u||`` between two systems.

    Maximizes the homogeneous norm ratio over elements of M_n(X) by
    Nelder-Mead ascent from seeded random starts plus the deterministic unit
    element ``I_n (x) e_X``; every evaluated point is a true ratio, so the
    estimate never exceeds the supremum.  All starts run as one lockstep
    search (:func:`_nelder_mead`): each simplex step evaluates every start's
    ratio (:func:`_ratios`), with the iterates that separate scipy
    Nelder-Mead runs would take given those values.
    """
    _check_args("the amplified-norm ascent", {"level": level, "start": starts},
                {"seed": seed, "iters": iters})
    um = u.matrix if isinstance(u, LinearMapCoords) else np.asarray(u, dtype=np.complex128)
    if um.shape != (x.dim, y.dim) or x.dim != y.dim:
        raise DimensionError("map coordinates must be N x N for both systems")
    _check_simplices("the amplified-norm ascent", x.dim, level, starts)
    maps = um[None]
    return float(_ascents(_Plan(x, y, level, starts, iters, seed), maps, maps[:0])[0][0])


def _objective(x: OperatorSystemSpan, y: OperatorSystemSpan, level: int,
               inner_starts: int, inner_iters: int, seed: int):
    """The max-of-three d_n objective on a stack of real map parameters.

    A map that is not finite or whose condition number exceeds
    ``COND_BOUND`` scores 1e6 with no inner work.  The forward ascents
    (X to Y under u) and backward ascents (Y to X under u^-1) of all other
    maps run as one lockstep search, in batches of maps holding at most
    ``_BATCH_VERTICES`` initial-simplex vertices.
    """
    nn = x.dim
    plan = _Plan(x, y, level, inner_starts, inner_iters, seed, share=True)
    unit = y.unit()
    # each map opens 2 * starts inner simplices of 2 n^2 N + 1 vertices
    step = max(1, _BATCH_VERTICES // (2 * inner_starts * (2 * level * level * nn + 1)))

    def f(points: np.ndarray, _owner=None) -> np.ndarray:
        um = _real_to_complex(points).reshape(-1, nn, nn)
        out = np.full(len(um), 1e6)
        ok = np.flatnonzero(np.isfinite(um).all(axis=(1, 2)))
        if ok.size:
            s = np.linalg.svd(um[ok], compute_uv=False)
            zero = s[:, -1] == 0.0
            cond = np.where(zero, np.inf, s[:, 0] / np.where(zero, 1.0, s[:, -1]))
            ok = ok[~(cond > COND_BOUND)]
        if not ok.size:
            return out
        um = um[ok]
        uinv = np.linalg.inv(um)
        gaps = top_singular(_stack([((um @ x.unit_coeffs)[:, None], y)], 1) - unit)
        parts = [_ascents(plan, um[i:i + step], uinv[i:i + step])
                 for i in range(0, len(um), step)]
        fwd, bwd = (np.concatenate(p) for p in zip(*parts))
        # a best ratio is never negative or NaN, and log 0 is the -inf of no ratio
        with np.errstate(divide="ignore"):
            out[ok] = np.maximum(gaps, np.maximum(np.log(fwd), np.log(bwd)))
        return out

    return f


def dn_search(x: OperatorSystemSpan, y: OperatorSystemSpan, level: int = 1,
              restarts: int = 32, seed: int = 0, outer_iters: int = 120,
              inner_starts: int = 2, inner_iters: int = 40,
              warm_starts=()) -> dict:
    """Multi-start minimization of the d_n objective; returns the best record.

    The identity map is always among the starts, so for a pair of systems
    built from conjugate generator lists the reported value is near zero
    without any search.  The value is a best-found objective, not a certified
    bound.  All restarts advance as one lockstep Nelder-Mead
    (:func:`_nelder_mead`), and every objective call runs the inner ascents
    of all its maps as one lockstep search, so the values, the best record
    and its map are those of running the restarts one after another.
    """
    _check_args("the d_n search",
                {"restart": restarts, "level": level, "inner start": inner_starts},
                {"seed": seed, "outer_iters": outer_iters, "inner_iters": inner_iters})
    if x.dim != y.dim:
        raise NotComparableError(
            f"systems have dimensions {x.dim} and {y.dim}; d_n compares equal dimensions"
        )
    nn = x.dim
    _check_simplices("the d_n search", nn, level, 2 * inner_starts, restarts)
    f = _objective(x, y, level, inner_starts, inner_iters, seed)
    eye = _complex_to_real(np.eye(nn, dtype=np.complex128))
    starts = [eye] + [_complex_to_real(np.asarray(w, dtype=np.complex128)) for w in warm_starts]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    while len(starts) < restarts:
        starts.append(eye + 0.7 * rng.standard_normal(2 * nn * nn))
    x0 = np.array(starts)
    # a budget of 1 scores each start and stops, so it serves a budget of 0 too
    xs, fs, f0 = _nelder_mead(f, x0, max(outer_iters, 1), 1e-9, 1e-12)
    best_val = np.inf
    best_v = x0[0]
    for i in range(len(x0)):
        if f0[i] < best_val:
            best_val, best_v = float(f0[i]), x0[i]
        if fs[i] < best_val:
            best_val, best_v = float(fs[i]), xs[i]
    best_map = _real_to_complex(best_v).reshape(nn, nn)
    return {
        "level": level,
        "estimate": float(best_val),
        "map": best_map,
        "restarts": restarts,
        "seed": seed,
    }


def dgh_weighted(x: OperatorSystemSpan, y: OperatorSystemSpan, n_max: int = 3,
                 restarts: int = 32, seed: int = 0, inner_starts: int = 2,
                 **kwargs) -> DistanceReport:
    """Truncated weighted distance ``sum_{n <= n_max} 2^-n d_n``.

    Level n + 1 is warm-started from level n's best map.  Level ``n_max``
    opens the largest simplices, and a sum whose last level would pass
    ``MAX_SIMPLEX_FLOATS`` stops before level 1 runs.
    """
    _check_args("the weighted sum", {"level": n_max}, {"seed": seed})
    _check_simplices("the d_n search", x.dim, n_max, 2 * inner_starts, restarts)
    per_level = []
    warm = []
    for level in range(1, n_max + 1):
        rec = dn_search(x, y, level, restarts, seed + level - 1, inner_starts=inner_starts,
                        warm_starts=warm, **kwargs)
        per_level.append(rec)
        warm = [rec["map"]]
    weighted = sum(2.0 ** (-rec["level"]) * rec["estimate"] for rec in per_level)
    return DistanceReport(
        per_level=tuple(per_level),
        weighted=float(weighted),
        seed=seed,
    )


def wt_matrix(p: WtParams) -> np.ndarray:
    if p.variant == "three_by_three":
        return np.array([[0, 0, 0], [1, 0, 0], [0, p.t, 0]], dtype=np.complex128)
    return np.array([[1, 0], [p.t, 0]], dtype=np.complex128)


def wt_system(p: WtParams) -> OperatorSystemSpan:
    """The operator system span{I, W_t, W_t*} of the chosen variant."""
    return build_system([wt_matrix(p)], include_identity=True)


def trace_invariants(x: OperatorSystemSpan, g) -> tuple[float, float]:
    """Normalized traces (tau(g), tau(g^2)) with tau(I) = 1."""
    m = np.asarray(g, dtype=np.complex128)
    if m.shape != (x.ambient_dim, x.ambient_dim):
        raise DimensionError("matrix size must match the ambient dimension")
    k = x.ambient_dim
    return complex(np.trace(m)) / k, complex(np.trace(m @ m)) / k


def commutant_dimension(matrices) -> int:
    """Dimension of the commutant of k x k matrices: k^2 less a :func:`gram_rank`."""
    ms = [np.asarray(m, dtype=np.complex128) for m in matrices]
    k = ms[0].shape[0]
    eye = np.eye(k)
    # vec(MA - AM) = (M (x) I - I (x) M^T) vec(A), row-major vec
    with np.errstate(over="ignore", invalid="ignore"):  # gram_rank rejects a non-finite row
        rows = [np.kron(m, eye) - np.kron(eye, m.T) for m in ms]
    return k * k - gram_rank(np.vstack(rows))


def wt_classify(t: float, s: float, variant: str = "three_by_three",
                restarts: int = 128, seed: int = 0) -> CoisDecision:
    """Decide complete order isomorphism within a W family.

    The 3x3 family is decided exactly: a trace-preserving unitary conjugation
    forces the identity coefficient to zero, then the product trace forces one
    of the off-coefficients to zero, and matching the singular-value multisets
    {0, 1, t} vs {0, |b|, |b| s} leaves only s = t (within ``TOL_NUM``).
    The 2x2 family is mutually isomorphic: span{I, W_t, W_t*} is the set of A with
    tr(H_t A) = 0 for the traceless Hermitian H_t = [[t, -1], [-1, -t]], and
    U = Q_s Q_t^T, built from the eigenvectors of H_t and H_s, gives
    U H_t U* = c H_s with c > 0, so conjugation by U carries one span onto
    the other.  The certificate holds U, the fit of U W_t U* in
    span{I, W_s, W_s*} and the onto check.
    ``restarts`` and ``seed`` are accepted and ignored; no verdict is searched.
    """
    pt, ps = WtParams(t, variant), WtParams(s, variant)
    wt = wt_matrix(pt)
    if variant == "three_by_three":
        sing_t = sorted(np.linalg.svd(wt, compute_uv=False))
        sing_s = sorted(np.linalg.svd(wt_matrix(ps), compute_uv=False))
        cert = {
            "trace": trace_invariants(wt_system(pt), wt),
            "singular_values": [sing_t, sing_s],
            "analysis": "alpha = 0 by trace, beta*gamma = 0 by squared trace; "
                        "singular multisets {0,1,t} vs {0,|b|,|b|s} force s = t",
        }
        if abs(t - s) <= TOL_NUM:
            cert["witness"] = "identity"
            return CoisDecision("Isomorphic", "theorem-fast-path", cert)
        return CoisDecision("NotIsomorphic", "theorem-fast-path", cert)

    # H_t has eigenvalues -/+ sqrt(1 + t^2), so eigh lists both pairs in matching order
    qt, qs = (np.linalg.eigh(np.array([[x, -1.0], [-1.0, -x]]))[1] for x in (t, s))
    u = (qs @ qt.T).astype(np.complex128)
    ws = wt_matrix(ps)
    eye = np.eye(2, dtype=np.complex128)
    rows = np.array([eye.reshape(-1), ws.reshape(-1), ws.conj().T.reshape(-1)])
    coeffs, resid, _ = FactoredSpan(rows.T).fit((u @ wt @ u.conj().T).reshape(-1, 1))
    cert = {"unitary": u, "coefficients": coeffs[:, 0], "residual": float(resid[0])}
    cert["spans_match"] = _onto_rank(u, wt, ws) == 3
    cert["analysis"] = ("span{I, W_t, W_t*} = {A : tr(H_t A) = 0} for H_t = [[t,-1],[-1,-t]]; "
                        "U = Q_s Q_t^T maps eigenvectors of H_t to those of H_s, so "
                        "U H_t U* is a positive multiple of H_s and U carries span onto span")
    return CoisDecision("Isomorphic", "theorem-fast-path", cert)


def _certificate_checks(t: float, s: float, cert: dict) -> list:
    """The :func:`_replay_check` of a 2x2 :func:`wt_classify` certificate: U is
    unitary, U W_t U* is a I + b W_s + c W_s*, and U carries span onto span."""
    u, (a, b, c) = cert["unitary"], cert["coefficients"]
    wt, ws = (wt_matrix(WtParams(x, "two_by_two")) for x in (t, s))
    eye = np.eye(2)
    span = FactoredSpan(np.column_stack([g.ravel() for g in (eye, ws, ws.conj().T)]))
    return [_replay_check("W_t unitary", u.conj().T @ u, eye),
            _replay_check("W_t coefficients", (a * eye + b * ws + c * ws.conj().T).ravel(),
                          (u @ wt @ u.conj().T).ravel(), span),
            _replay_check("W_t onto rank", _onto_rank(u, wt, ws), 3)]


def _onto_rank(u: np.ndarray, wt: np.ndarray, ws: np.ndarray) -> int:
    """The rank of span{I, W_s, W_s*} joined with its image U g U* of each g
    in {I, W_t, W_t*}: 3 when conjugation by U carries span onto span."""
    eye = np.eye(2)
    moved = [u @ g @ u.conj().T for g in (eye, wt, wt.conj().T)]
    return gram_rank([g.reshape(-1) for g in [eye, ws, ws.conj().T] + moved])
