"""Correctness checks for benchmark ops, written independently of osclass.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  Certificates are replayed in both directions against the
ground truth the generators know (the true spectra and point sets), with the
same 1e-7 residual bound that ``osclass verify`` uses for its forward half.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TWO_PI = 2.0 * np.pi

#: Largest residual accepted when a certificate is replayed.
REPLAY_TOL = 1e-7

#: A zero-distance pair that the identity start solves must stay below this
#: (the bound of the estimator sanity acceptance test).
ZERO_PAIR_BOUND = 1e-3


def complex_array(obj) -> np.ndarray:
    """Complex values from a report's ``[re, im]`` pairs (nested lists allowed)."""
    arr = np.asarray(obj, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def sorted_angles(angles) -> np.ndarray:
    return np.sort(np.asarray(angles, dtype=np.float64) % TWO_PI)


def _is_permutation(perm, m: int) -> bool:
    return sorted(int(i) for i in perm) == list(range(m))


def _inverse(perm) -> np.ndarray:
    p = np.asarray(perm, dtype=int)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    return inv


# --- unitary spectra ------------------------------------------------------

def replay_span_certificate(bijection, fwd, bwd, zs, ws) -> str | None:
    """Forward ``a + b z + c conj z`` and backward coefficients of an oracle witness.

    ``zs`` and ``ws`` are the source and target spectra as points, sorted by
    angle, which is the order the oracle indexes them in.
    """
    m = zs.size
    if not _is_permutation(bijection, m):
        return f"bijection {list(bijection)} is not a permutation of {m} points"
    p = np.asarray(bijection, dtype=int)
    f = np.asarray(fwd, dtype=np.complex128)
    b = np.asarray(bwd, dtype=np.complex128)
    fres = float(np.max(np.abs(f[0] + f[1] * zs + f[2] * zs.conj() - ws[p])))
    if not fres <= REPLAY_TOL:
        return f"forward span residual {fres:.3e}"
    bres = float(np.max(np.abs(b[0] + b[1] * ws + b[2] * ws.conj() - zs[_inverse(p)])))
    if not bres <= REPLAY_TOL:
        return f"backward span residual {bres:.3e}"
    return None


def replay_motion(rotation: float, reflect: bool, s_angles, t_angles) -> str | None:
    """The rigid motion must carry the angles ``t`` onto ``s`` (Hausdorff bound)."""
    base = -np.asarray(t_angles) if reflect else np.asarray(t_angles)
    moved = sorted_angles(base + rotation)
    s = sorted_angles(s_angles)
    if moved.size != s.size:
        return "motion compares spectra of different sizes"
    d = np.abs(moved[:, None] - s[None, :]) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    resid = max(float(np.max(np.min(d, axis=1))), float(np.max(np.min(d, axis=0))))
    if not resid <= REPLAY_TOL:
        return f"rigid motion misses by {resid:.3e}"
    return None


def canonical_gaps(angles) -> np.ndarray:
    """Exact lexicographically least rotation of the gap sequence or its mirror."""
    a = sorted_angles(angles)
    gaps = np.append(np.diff(a), TWO_PI - a[-1] + a[0])
    rots = [tuple(np.roll(seq, -r)) for seq in (gaps, gaps[::-1]) for r in range(gaps.size)]
    return np.array(min(rots))


# --- degree-1 maps ----------------------------------------------------------

def monomials(points) -> np.ndarray:
    """Values of ``z_i conj(z_j)`` (``z_0 = 1``), columns in (i, j)-lex order."""
    p = np.asarray(points, dtype=np.complex128)
    if p.ndim == 1:
        p = p.reshape(-1, 1)
    aug = np.hstack([np.ones((p.shape[0], 1), dtype=np.complex128), p])
    n = aug.shape[1]
    return np.column_stack([aug[:, i] * aug[:, j].conj() for i in range(n) for j in range(n)])


def _span_residual(basis: np.ndarray, v: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return float(np.linalg.norm(basis @ coef - v)) / (1.0 + float(np.linalg.norm(v)))


def _degree_one_direction(src, dst, coeffs=None) -> str | None:
    """A degree-1 map sends ``src`` onto ``dst``: coordinates and products in span."""
    mono = monomials(src)
    dst = np.asarray(dst, dtype=np.complex128).reshape(mono.shape[0], -1)
    if coeffs is not None:
        c = np.asarray(coeffs, dtype=np.complex128)
        resid = float(np.max(np.abs(mono @ c.T - dst)))
        if not resid <= REPLAY_TOL:
            return f"map coefficients miss by {resid:.3e}"
    else:
        for k in range(dst.shape[1]):
            resid = _span_residual(mono, dst[:, k])
            if not resid <= REPLAY_TOL:
                return f"coordinate {k} is outside the monomial span ({resid:.3e})"
    for k, l in itertools.product(range(dst.shape[1]), repeat=2):
        resid = _span_residual(mono, dst[:, k] * dst[:, l].conj())
        if not resid <= REPLAY_TOL:
            return f"product ({k},{l}) is outside the monomial span ({resid:.3e})"
    return None


def replay_degree_one(bijection, d_points, e_points, fwd=None, bwd=None) -> str | None:
    """Both directions of a degree-1 witness; coefficients are fitted when absent."""
    d = np.asarray(d_points, dtype=np.complex128).reshape(len(d_points), -1)
    e = np.asarray(e_points, dtype=np.complex128).reshape(len(e_points), -1)
    if not _is_permutation(bijection, d.shape[0]):
        return f"bijection {list(bijection)} is not a permutation"
    p = np.asarray(bijection, dtype=int)
    why = _degree_one_direction(d, e[p], fwd)
    if why:
        return "forward: " + why
    why = _degree_one_direction(e, d[_inverse(p)], bwd)
    if why:
        return "backward: " + why
    return None


# --- W_t families -----------------------------------------------------------

def wt2(t: float) -> np.ndarray:
    return np.array([[1, 0], [t, 0]], dtype=np.complex128)


def replay_wt2(t: float, s: float, u, coeffs) -> str | None:
    """``u W_t u*`` lies in span{I, W_s, W_s*} with the given coefficients, onto."""
    u = np.asarray(u, dtype=np.complex128)
    c = np.asarray(coeffs, dtype=np.complex128)
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if not defect <= REPLAY_TOL:
        return f"witness is not unitary ({defect:.3e})"
    wt, ws = wt2(t), wt2(s)
    image = u @ wt @ u.conj().T
    resid = float(np.max(np.abs(image - (c[0] * np.eye(2) + c[1] * ws + c[2] * ws.conj().T))))
    if not resid <= REPLAY_TOL:
        return f"W_t coefficients miss by {resid:.3e}"
    span = [np.eye(2), ws, ws.conj().T] + [u @ g @ u.conj().T for g in (np.eye(2), wt, wt.conj().T)]
    sv = np.linalg.svd(np.column_stack([g.reshape(-1) for g in span]), compute_uv=False)
    if int(np.sum(sv > 1e-9 * sv[0])) != 3:
        return "conjugated span is not onto the target span"
    return None


# --- estimates --------------------------------------------------------------

def finite_nonneg(value, what: str) -> str | None:
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        return f"{what} {v!r} is not a finite nonnegative number"
    return None


def unit_ratio(y_basis, u, x_unit) -> float:
    """Ratio at the unit element, which the inner ascent always evaluates."""
    c = np.asarray(u, dtype=np.complex128) @ np.asarray(x_unit, dtype=np.complex128)
    y = sum(cj * bj for cj, bj in zip(c, y_basis))
    return float(np.linalg.svd(y, compute_uv=False)[0])


# --- finite structures -------------------------------------------------------

def isometric(dm, dn) -> bool:
    dm, dn = np.asarray(dm), np.asarray(dn)
    if dm.shape != dn.shape:
        return False
    for p in itertools.permutations(range(dm.shape[0])):
        q = np.array(p)
        if np.allclose(dm[np.ix_(q, q)], dn, atol=1e-12):
            return True
    return False


def diameter_bound(dm, dn) -> float:
    """``|diam M - diam N| / 2``: no correspondence does better (GH lower bound)."""
    return abs(float(np.max(dm)) - float(np.max(dn))) / 2.0
