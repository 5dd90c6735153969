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
search, whose ratios go through one stacked ``assemble`` and one stacked
SVD per system.  Estimates, maps and reports are those of one scipy run per
start, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotComparableError
# op_norm stays importable from here: the benchmark's tracer test reads osdist.op_norm
from .linalg import FactoredSpan, gram_rank, op_norm  # noqa: F401
from .opsys import OperatorSystemSpan, build_system

#: Condition-number bound past which a candidate map is treated as singular.
COND_BOUND = 1e12

#: Most initial-simplex vertices in one lockstep batch of inner ascents.  The
#: outer search evaluates its maps in batches of this size, which bounds the
#: memory of a many-restart search; larger batches save no time.
_BATCH_VERTICES = 1 << 13


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
    converged: dict = field(default_factory=dict)


def _top_singular(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a stack, as ``op_norm`` finds it."""
    if not np.isfinite(stack).all():
        raise DimensionError("matrix has non-finite entries")
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _ratios(x: OperatorSystemSpan, y: OperatorSystemSpan, maps: np.ndarray,
            c: np.ndarray) -> np.ndarray:
    """The ratios ||assemble_Y(c_i u_i^T)|| / ||assemble_X(c_i)|| for a stack.

    ``c`` is an (m, n, n, N) stack of elements of M_n(X) and ``maps`` the
    (m, N, N) stack of their maps.  An element whose denominator is below
    1e-14 has ratio 0.  Each ratio has the bits of the one-element quotient
    of ``op_norm`` values: the products are stacked, never flattened.
    """
    denom = _top_singular(x._assemble(c))
    num = _top_singular(y._assemble(c @ maps.swapaxes(-1, -2)[:, None]))
    small = denom < 1e-14
    return np.where(small, 0.0, num / np.where(small, 1.0, denom))


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


def _nelder_mead(fun, x0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Minimise ``fun`` from every row of ``x0`` at once, as scipy would from each.

    Every start follows scipy 1.17's ``minimize(method="Nelder-Mead")``
    (``adaptive`` off, no bounds) iterate for iterate: the same simplex
    arithmetic, sorts and ``maxfev`` rules.  A call past the budget is
    refused and ends that start, which keeps its best vertex and value; the
    initial simplex is cut short when ``maxfev < N + 1``; the
    ``xatol``/``fatol`` test runs before each iteration.  (scipy also moves
    the vertex whose call a cut shrink refused; no result reads it.)

    The starts advance in lockstep: each phase (initial simplex, reflection,
    expansion or contraction, shrink) makes one call ``fun(points, owner)``
    with the points of every start that needs one, ``owner`` naming each
    point's start in nondecreasing order, so ``fun`` must give a point the
    value it would give it alone.

    Returns ``(x, fval, f0)``: scipy's ``res.x`` and ``res.fun`` for every
    start, and the value at the start itself.
    """
    b, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = np.full((b, n + 1), np.inf)
    first = min(n + 1, maxfev)
    owner = np.repeat(np.arange(b), first)
    fsim[:, :first] = fun(sim[:, :first].reshape(-1, n), owner).reshape(b, first)
    f0 = fsim[:, 0].copy()
    x_end, f_end = np.empty((b, n)), np.empty(b)
    # the rows still running: their start ids, simplices and call counts
    ids, fcalls = np.arange(b), np.full(b, first)
    rows = ids[:, None]
    for _ in range(2):  # scipy sorts the initial simplex twice
        ind = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, ind], fsim[rows, ind]
    while True:
        # scipy's loop condition, then its convergence test
        stop = ((fcalls >= maxfev)
                | ((np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= xatol)
                   & (np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= fatol)))
        if stop.any():
            x_end[ids[stop]], f_end[ids[stop]] = sim[stop, 0], np.min(fsim[stop], axis=1)
            go = ~stop
            ids, fcalls, sim, fsim = ids[go], fcalls[go], sim[go], fsim[go]
            rows = np.arange(ids.size)[:, None]
            if not ids.size:
                return x_end, f_end, f0
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = fun(xr, ids)
        fcalls += 1
        # scipy's branches, written with its comparisons so that NaN goes the same way
        expand = fxr < fsim[:, 0]
        put = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~put & (fxr < fsim[:, -1])
        shrink = np.zeros(ids.size, bool)
        # a call past the budget is refused: that row keeps its simplex
        second = np.flatnonzero(~put & (fcalls < maxfev))
        if second.size:
            e, o = expand[second], outside[second]
            xb, xw = xbar[second], worst[second]
            pts = np.where(e[:, None], (1 + _RHO * _CHI) * xb - _RHO * _CHI * xw,
                           np.where(o[:, None], (1 + _PSI * _RHO) * xb - _PSI * _RHO * xw,
                                    (1 - _PSI) * xb + _PSI * xw))
            f2 = fun(pts, ids[second])
            fcalls[second] += 1
            take = ((e & (f2 < fxr[second])) | (o & (f2 <= fxr[second]))
                    | (~e & ~o & (f2 < fsim[second, -1])))
            # xr and fxr now hold each row's new vertex: an expansion keeps xr
            # unless xe is better, a contraction that fails shrinks instead
            xr[second[take]], fxr[second[take]] = pts[take], f2[take]
            put[second] = e | take
            shrink[second] = ~(e | take)
        sim[put, -1], fsim[put, -1] = xr[put], fxr[put]
        if shrink.any():
            r = np.flatnonzero(shrink)
            # a shrink cut short by the budget moves only the vertices it evaluated
            ev = np.arange(1, n + 1) <= (maxfev - fcalls[r])[:, None]
            sr, fr = sim[r], fsim[r]
            sr[:, 1:] = np.where(ev[:, :, None], sr[:, :1] + _SIGMA * (sr[:, 1:] - sr[:, :1]),
                                 sr[:, 1:])
            if ev.any():
                fr[:, 1:][ev] = fun(sr[:, 1:][ev], np.repeat(ids[r], ev.sum(1)))
                fcalls[r] += ev.sum(1)
            sim[r], fsim[r] = sr, fr
        ind = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, ind], fsim[rows, ind]


def _ascents(groups, level: int, starts: int, iters: int, seed: int) -> list:
    """Best ratio the seeded inner ascent finds for every map of every group.

    ``groups`` lists ``(x, y, maps)`` with ``maps`` an (m, N, N) stack of maps
    from X to Y.  Every map is ascended from the unit element ``I_n (x) e_X``
    and ``starts - 1`` seeded random elements, the same for every map, and all
    these ascents run as one lockstep Nelder-Mead.  Returns one (m,) array of
    best ratios per group.
    """
    nn = groups[0][0].dim
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = [rng.standard_normal(2 * level * level * nn) for _ in range(max(0, starts - 1))]
    per_map = 1 + len(noise)
    x0, bounds = [], [0]
    for x, _, maps in groups:
        unit = _complex_to_real(np.eye(level)[:, :, None] * x.unit_coeffs)
        x0 += [unit, *noise] * len(maps)
        bounds.append(bounds[-1] + per_map * len(maps))
    best = np.zeros(bounds[-1] // per_map)

    def neg(points: np.ndarray, owner: np.ndarray) -> np.ndarray:
        c = _real_to_complex(points).reshape(-1, level, level, nn)
        cut = np.searchsorted(owner, bounds)
        r = np.concatenate([
            _ratios(x, y, maps[owner[lo:hi] // per_map - start // per_map], c[lo:hi])
            for (x, y, maps), lo, hi, start in zip(groups, cut, cut[1:], bounds) if hi > lo])
        np.fmax.at(best, owner // per_map, r)
        return -r

    x0 = np.array(x0)
    if iters > 0:
        _nelder_mead(neg, x0, iters, 1e-10, 1e-12)
    else:
        neg(x0, np.arange(len(x0)))
    return np.split(best, [b // per_map for b in bounds[1:-1]])


def amplified_map_norm(x: OperatorSystemSpan, y: OperatorSystemSpan, u,
                       level: int = 1, starts: int = 16, iters: int = 200,
                       seed: int = 0) -> float:
    """Lower-biased estimate of ``||id_{M_n} (x) u||`` between two systems.

    Maximizes the homogeneous norm ratio over elements of M_n(X) by
    Nelder-Mead ascent from seeded random starts plus the deterministic unit
    element ``I_n (x) e_X``; every evaluated point is a true ratio, so the
    estimate never exceeds the supremum.  All starts run as one lockstep
    search (:func:`_nelder_mead`): each simplex step evaluates every start's
    ratio in one stacked ``assemble`` and one stacked SVD, with the same
    iterates and values as separate scipy Nelder-Mead runs.
    """
    um = u.matrix if isinstance(u, LinearMapCoords) else np.asarray(u, dtype=np.complex128)
    if um.shape != (x.dim, y.dim) or x.dim != y.dim:
        raise DimensionError("map coordinates must be N x N for both systems")
    return float(_ascents([(x, y, um[None])], level, starts, iters, seed)[0][0])


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
        gaps = _top_singular(y._assemble((um @ x.unit_coeffs)[:, None, None]) - y.unit())
        # each map opens 2 * starts inner simplices of 2 n^2 N + 1 vertices
        step = max(1, _BATCH_VERTICES // (2 * max(1, inner_starts) * (2 * level * level * nn + 1)))
        parts = [_ascents([(x, y, um[i:i + step]), (y, x, uinv[i:i + step])],
                          level, inner_starts, inner_iters, seed)
                 for i in range(0, len(um), step)]
        fwd, bwd = (np.concatenate(p) for p in zip(*parts))
        for i, gap, fw, bw in zip(ok, gaps, fwd.tolist(), bwd.tolist()):
            terms = [gap, np.log(fw) if fw > 0 else -np.inf, np.log(bw) if bw > 0 else -np.inf]
            out[i] = float(max(terms))
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
    if restarts < 1:
        raise DimensionError(f"the d_n search needs at least 1 restart, got {restarts}")
    if x.dim != y.dim:
        raise NotComparableError(
            f"systems have dimensions {x.dim} and {y.dim}; d_n compares equal dimensions"
        )
    f = _objective(x, y, level, inner_starts, inner_iters, seed)
    nn = x.dim
    eye = _complex_to_real(np.eye(nn, dtype=np.complex128))
    starts = [eye] + [_complex_to_real(np.asarray(w, dtype=np.complex128)) for w in warm_starts]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    while len(starts) < max(restarts, len(starts)):
        starts.append(eye + 0.7 * rng.standard_normal(2 * nn * nn))
    x0 = np.array(starts)
    if outer_iters > 0:
        xs, fs, f0 = _nelder_mead(f, x0, outer_iters, 1e-9, 1e-12)
    else:
        xs, fs, f0 = x0, np.full(len(x0), np.inf), f(x0)
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


def dn_estimate(x: OperatorSystemSpan, y: OperatorSystemSpan, level: int = 1,
                restarts: int = 32, seed: int = 0, **kwargs) -> float:
    """Best-found value of the d_n objective (see :func:`dn_search`)."""
    return dn_search(x, y, level, restarts, seed, **kwargs)["estimate"]


def dgh_weighted(x: OperatorSystemSpan, y: OperatorSystemSpan, n_max: int = 3,
                 restarts: int = 32, seed: int = 0, **kwargs) -> DistanceReport:
    """Truncated weighted distance ``sum_{n <= n_max} 2^-n d_n``.

    Level n + 1 is warm-started from level n's best map.
    """
    if n_max < 1:
        raise DimensionError(f"the weighted sum needs at least 1 level, got {n_max}")
    per_level = []
    warm = []
    for level in range(1, n_max + 1):
        rec = dn_search(x, y, level, restarts, seed + level - 1, warm_starts=warm, **kwargs)
        per_level.append(rec)
        warm = [rec["map"]]
    weighted = sum(2.0 ** (-rec["level"]) * rec["estimate"] for rec in per_level)
    return DistanceReport(
        per_level=tuple(per_level),
        weighted=float(weighted),
        seed=seed,
        converged={"levels": n_max, "restarts": restarts},
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


def commutant_dimension(matrices, tol: float = 1e-9) -> int:
    """Dimension of the commutant of k x k matrices: k^2 less a :func:`gram_rank`."""
    ms = [np.asarray(m, dtype=np.complex128) for m in matrices]
    k = ms[0].shape[0]
    eye = np.eye(k)
    # vec(MA - AM) = (M (x) I - I (x) M^T) vec(A), row-major vec
    with np.errstate(over="ignore", invalid="ignore"):  # gram_rank rejects a non-finite row
        rows = [np.kron(m, eye) - np.kron(eye, m.T) for m in ms]
    return k * k - gram_rank(np.vstack(rows), tol)


def wt_classify(t: float, s: float, variant: str = "three_by_three",
                tol: float = 1e-9, restarts: int = 128, seed: int = 0) -> "CoisDecision":
    """Decide complete order isomorphism within a W family.

    The 3x3 family is decided exactly: a trace-preserving unitary conjugation
    forces the identity coefficient to zero, then the product trace forces one
    of the off-coefficients to zero, and matching the singular-value multisets
    {0, 1, t} vs {0, |b|, |b| s} leaves only s = t.  The 2x2 family is
    mutually isomorphic: span{I, W_t, W_t*} is the set of A with
    tr(H_t A) = 0 for the traceless Hermitian H_t = [[t, -1], [-1, -t]], and
    U = Q_s Q_t^T, built from the eigenvectors of H_t and H_s, gives
    U H_t U* = c H_s with c > 0, so conjugation by U carries one span onto
    the other.  The certificate holds U, the fit of U W_t U* in
    span{I, W_s, W_s*} and the onto check.
    ``restarts`` and ``seed`` are accepted and ignored; no verdict is searched.
    """
    from .unitary import CoisDecision  # local import to avoid a cycle

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
        if abs(t - s) <= tol:
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
    moved = [(u @ g @ u.conj().T).reshape(-1) for g in (eye, wt, wt.conj().T)]
    cert = {
        "unitary": u,
        "coefficients": coeffs[:, 0],
        "residual": float(resid[0]),
        "spans_match": gram_rank(list(rows) + moved) == 3,
        "analysis": "span{I, W_t, W_t*} = {A : tr(H_t A) = 0} for H_t = [[t,-1],[-1,-t]]; "
                    "U = Q_s Q_t^T maps eigenvectors of H_t to those of H_s, so "
                    "U H_t U* is a positive multiple of H_s and U carries span onto span",
    }
    return CoisDecision("Isomorphic", "theorem-fast-path", cert)
