"""Numerical distances between operator systems and the W_t families.

The level-n distance between two N-dimensional systems is the infimum over
invertible linear maps of the maximum of the unit displacement and the logs of
the amplified norms of the map and its inverse.  Neither the inner norm nor
the outer infimum is convex, so everything here is a seeded multi-start
estimator: inner norms are lower-biased ratio ascents, outer values are
best-found objectives.  Definitive non-isomorphism verdicts come from the
exact classifiers (unitary spectra, the 3x3 W_t trace/singular-value
argument), never from these estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DimensionError, NotComparableError
from .linalg import gram_rank, op_norm, span_membership
from .opsys import OperatorSystemSpan, build_system

#: Condition-number bound past which a candidate map is treated as singular.
COND_BOUND = 1e12


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


def _ratio_function(x: OperatorSystemSpan, y: OperatorSystemSpan,
                    u: np.ndarray, level: int):
    """The homogeneous ratio ||assemble_Y(c u^T)|| / ||assemble_X(c)|| on M_level(X)."""

    def ratio(cflat: np.ndarray) -> float:
        c = cflat.reshape(level, level, x.dim)
        denom_mat = x.assemble(c)
        denom = op_norm(denom_mat) if np.any(denom_mat) else 0.0
        if denom < 1e-14:
            return 0.0
        return op_norm(y.assemble(c @ u.T)) / denom

    return ratio


def _real_to_complex(v: np.ndarray) -> np.ndarray:
    h = v.size // 2
    return v[:h] + 1j * v[h:]


def _complex_to_real(c: np.ndarray) -> np.ndarray:
    f = c.reshape(-1)
    return np.concatenate([f.real, f.imag])


def amplified_map_norm(x: OperatorSystemSpan, y: OperatorSystemSpan, u,
                       level: int = 1, starts: int = 16, iters: int = 200,
                       seed: int = 0) -> float:
    """Lower-biased estimate of ``||id_{M_n} (x) u||`` between two systems.

    Maximizes the homogeneous norm ratio over elements of M_n(X) by
    Nelder-Mead ascent from seeded random starts plus the deterministic unit
    element ``I_n (x) e_X``; every evaluated point is a true ratio, so the
    estimate never exceeds the supremum.
    """
    um = u.matrix if isinstance(u, LinearMapCoords) else np.asarray(u, dtype=np.complex128)
    if um.shape != (x.dim, y.dim) or x.dim != y.dim:
        raise DimensionError("map coordinates must be N x N for both systems")
    ratio = _ratio_function(x, y, um, level)
    nn = x.dim

    best = 0.0

    def neg(v: np.ndarray) -> float:
        nonlocal best
        r = ratio(_real_to_complex(v).reshape(level, level, nn))
        if r > best:
            best = r
        return -r

    start_points = [_complex_to_real(np.eye(level)[:, :, None] * x.unit_coeffs)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(max(0, starts - 1)):
        start_points.append(rng.standard_normal(2 * level * level * nn))
    for sp in start_points:
        if iters > 0:
            scipy.optimize.minimize(
                neg, sp, method="Nelder-Mead",
                options={"maxfev": iters, "xatol": 1e-10, "fatol": 1e-12},
            )
        else:
            neg(sp)
    return best


def _objective(x: OperatorSystemSpan, y: OperatorSystemSpan, level: int,
               inner_starts: int, inner_iters: int, seed: int):
    """The max-of-three d_n objective as a function of real map parameters."""

    def f(v: np.ndarray) -> float:
        um = _real_to_complex(v).reshape(x.dim, x.dim)
        u = LinearMapCoords(um)
        if not np.all(np.isfinite(um.real)) or not np.all(np.isfinite(um.imag)) \
                or u.condition() > COND_BOUND:
            return 1e6
        uinv = np.linalg.inv(um)
        unit_gap = op_norm(y.assemble(um @ x.unit_coeffs) - y.unit())
        fwd = amplified_map_norm(x, y, um, level, inner_starts, inner_iters, seed)
        bwd = amplified_map_norm(y, x, uinv, level, inner_starts, inner_iters, seed)
        terms = [unit_gap]
        terms.append(np.log(fwd) if fwd > 0 else -np.inf)
        terms.append(np.log(bwd) if bwd > 0 else -np.inf)
        return float(max(terms))

    return f


def dn_search(x: OperatorSystemSpan, y: OperatorSystemSpan, level: int = 1,
              restarts: int = 32, seed: int = 0, outer_iters: int = 120,
              inner_starts: int = 2, inner_iters: int = 40,
              warm_starts=()) -> dict:
    """Multi-start minimization of the d_n objective; returns the best record.

    The identity map is always among the starts, so for a pair of systems
    built from conjugate generator lists the reported value is near zero
    without any search.  The value is a best-found objective, not a certified
    bound.
    """
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
    best_val = np.inf
    best_v = starts[0]
    for sp in starts:
        v0 = f(sp)
        if v0 < best_val:
            best_val, best_v = v0, sp
        if outer_iters > 0:
            res = scipy.optimize.minimize(
                f, sp, method="Nelder-Mead",
                options={"maxfev": outer_iters, "xatol": 1e-9, "fatol": 1e-12},
            )
            if res.fun < best_val:
                best_val, best_v = float(res.fun), res.x
    best_map = _real_to_complex(np.asarray(best_v)).reshape(nn, nn)
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
    """Dimension of the commutant of a set of k x k matrices."""
    ms = [np.asarray(m, dtype=np.complex128) for m in matrices]
    k = ms[0].shape[0]
    rows = []
    eye = np.eye(k)
    for m in ms:
        # vec(MA - AM) = (M (x) I - I (x) M^T) vec(A), row-major vec
        rows.append(np.kron(m, eye) - np.kron(eye, m.T))
    stacked = np.vstack(rows)
    s = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return k * k - rank


def _unitary_from_params(v: np.ndarray) -> np.ndarray:
    h = np.array([[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]], dtype=np.complex128)
    return scipy.linalg.expm(1j * h)


def _conjugation_residual(wt: np.ndarray, ws_rows: np.ndarray, v: np.ndarray) -> float:
    """Distance from U W_t U* to span{I, W_s, W_s*}, optimal over coefficients."""
    u = _unitary_from_params(v)
    _, resid, _ = span_membership((u @ wt @ u.conj().T).reshape(-1, 1), ws_rows)
    return float(resid[0])


def wt_classify(t: float, s: float, variant: str = "three_by_three",
                tol: float = 1e-9, restarts: int = 128, seed: int = 0) -> "CoisDecision":
    """Decide complete order isomorphism within a W family.

    The 3x3 family is decided exactly: a trace-preserving unitary conjugation
    forces the identity coefficient to zero, then the product trace forces one
    of the off-coefficients to zero, and matching the singular-value multisets
    {0, 1, t} vs {0, |b|, |b| s} leaves only s = t.  The 2x2 family has no
    worked identities, so the verdict comes from a seeded multi-start search
    for a unitary conjugation landing in the target span and is labeled
    method = "oracle".
    """
    from .unitary import CoisDecision  # local import to avoid a cycle

    pt, ps = WtParams(t, variant), WtParams(s, variant)
    if variant == "three_by_three":
        wt = wt_matrix(pt)
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

    # 2x2 variant: optimization oracle over unitary conjugations.
    wt = wt_matrix(pt)
    ws = wt_matrix(ps)
    basis = [np.eye(2, dtype=np.complex128), ws, ws.conj().T]
    rows = np.array([b.reshape(-1) for b in basis])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best = np.inf
    best_v = np.zeros(4)
    starts = [np.zeros(4)] + [rng.uniform(-np.pi, np.pi, 4) for _ in range(restarts - 1)]
    for sp in starts:
        res = scipy.optimize.minimize(
            lambda v: _conjugation_residual(wt, rows, v), sp,
            method="Nelder-Mead", options={"maxfev": 400, "xatol": 1e-12, "fatol": 1e-14},
        )
        if res.fun < best:
            best, best_v = float(res.fun), res.x
        if best < 1e-13:
            break
    cert = {"best_residual": best, "restarts": restarts, "seed": seed,
            "unitary_params": list(map(float, best_v))}
    if best <= max(tol, 1e-7):
        # Replay the witness: the recovered unitary must carry the whole span
        # of {I, W_t, W_t*} onto the span of {I, W_s, W_s*}, not just W_t into it.
        u = _unitary_from_params(best_v)
        image = u @ wt @ u.conj().T
        coeffs, _, _ = span_membership(image.reshape(-1, 1), rows)
        onto = gram_rank(list(rows)
                         + [(u @ g @ u.conj().T).reshape(-1)
                            for g in (np.eye(2, dtype=np.complex128), wt, wt.conj().T)]) == 3
        cert["unitary"] = u
        cert["coefficients"] = coeffs[:, 0]
        cert["spans_match"] = bool(onto)
        if onto:
            return CoisDecision("Isomorphic", "oracle", cert)
    return CoisDecision("NotIsomorphic", "oracle", cert)
