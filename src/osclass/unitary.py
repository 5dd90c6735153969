"""Classification of operator systems generated by a single unitary.

The complete invariant is the spectrum on the unit circle up to rigid motions
(rotations ``z -> lam z`` and reflections ``z -> lam conj(z)``).  This module
extracts spectra, canonicalizes them as circular gap sequences, searches for
witnessing motions, and decides complete order isomorphism either through the
cardinality/rigid-motion fast path or through an exact finite-spectrum oracle
that searches spectrum bijections for the three-term span conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotUnitaryError
from .linalg import (TOL_NUM, FactoredSpan, _replay_check, as_matrix, bijection_sweep,
                     eig_normal, op_norm)

TWO_PI = 2.0 * np.pi

#: Dedup tolerance for spectrum angles (circle distance).
SPECTRUM_DEDUP_TOL = 1e-8

#: Slack for tolerance-aware lexicographic comparison of gap sequences.
NECKLACE_SLACK = 1e-9

#: Least threshold of the exact tests here, and the default of :func:`rigid_equivalent`.
TOL_FLOOR = 1e-8


def _floored(tol: float) -> float:
    """The threshold of every exact test here: ``tol``, but never below ``TOL_FLOOR``."""
    return max(tol, TOL_FLOOR)


def circle_dist(a: float, b: float) -> float:
    """Shortest arc distance between two angles."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class CircleSet:
    """A finite subset of the unit circle, stored as sorted angles in [0, 2pi)."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=np.float64).ravel()
        if a.size == 0:
            raise DimensionError("circle set must be nonempty")
        a = np.sort(a % TWO_PI)
        if a.size > 1:
            gaps = np.diff(a)
            wrap = TWO_PI - a[-1] + a[0]
            if np.min(gaps) <= SPECTRUM_DEDUP_TOL or wrap <= SPECTRUM_DEDUP_TOL:
                raise DimensionError("angles are not separated beyond the dedup tolerance")
        object.__setattr__(self, "angles", a)

    @property
    def size(self) -> int:
        return int(self.angles.size)

    def points(self) -> np.ndarray:
        """The set as complex points on the unit circle."""
        return np.exp(1j * self.angles)

    def gaps(self) -> np.ndarray:
        """Circular gap sequence, starting at the gap after the first angle."""
        if self.size == 1:
            return np.array([TWO_PI])
        g = np.diff(self.angles)
        return np.append(g, TWO_PI - self.angles[-1] + self.angles[0])


@dataclass(frozen=True)
class CanonicalNecklace:
    """Canonical rotation of a circular gap sequence; the rigid-motion invariant."""

    gaps: np.ndarray
    reflected: bool

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalNecklace):
            return NotImplemented
        m = self.gaps.size
        if m != other.gaps.size:
            return False
        # a dihedral match: some rotation of the other gaps, plain or
        # reversed, lies within the slack entrywise
        turns = (np.arange(m)[:, None] + np.arange(m)) % m
        shifted = np.concatenate([other.gaps[turns], other.gaps[::-1][turns]])
        return bool(np.any(np.all(np.abs(shifted - self.gaps) <= NECKLACE_SLACK, axis=1)))

    def __hash__(self):
        return hash(self.gaps.size)


@dataclass(frozen=True)
class RigidMotion:
    """A circle isometry ``z -> lam z`` (reflect=False) or ``z -> lam conj(z)``."""

    rotation: float
    reflect: bool = False

    def apply_angles(self, angles: np.ndarray) -> np.ndarray:
        a = -np.asarray(angles) if self.reflect else np.asarray(angles)
        return np.sort((a + self.rotation) % TWO_PI)


@dataclass(frozen=True)
class CoisDecision:
    """Outcome of a complete-order-isomorphism decision."""

    verdict: str  # "Isomorphic" | "NotIsomorphic"
    method: str  # "theorem-fast-path" | "oracle"
    certificate: dict | None = field(default=None)


def spectrum(u, tol: float = TOL_NUM) -> CircleSet:
    """Deduplicated spectrum of a unitary as a CircleSet.

    Eigenvalues within ``tol`` of the unit circle are projected radially; the
    angle set is deduplicated at circle distance ``SPECTRUM_DEDUP_TOL``.
    """
    m = as_matrix(u)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("unitary must be square")
    gram = m.conj().T @ m - np.eye(m.shape[0])
    # ||E||_2 <= ||E||_F: a Frobenius norm of at most tol / 2 passes with room
    # for the rounding of both norms, and only a larger one needs the SVD
    if not np.linalg.norm(gram) <= tol / 2:
        defect = op_norm(gram)
        if defect > tol:
            raise NotUnitaryError(defect, tol)
    # every U accepted here passes eig_normal's commutator test at 3t, t =
    # _floored(tol): with E = U*U - I, ||E|| <= t + d (d the rounding of the
    # test), and U = W P polar, UU* - U*U = W E W* - E has norm at most
    # lam_max(E) - lam_min(E) and ||U||^2 = 1 + lam_max(E), so the defect is
    # below 2 (t + d) / (1 + t + d) and at most 1; d and the defect's own
    # rounding, each about m^2 u, leave room while 3 m^2 u <= TOL_FLOOR.
    eigs = eig_normal(m, tol=3 * _floored(tol)).eigenvalues
    moduli = np.abs(eigs)
    if np.any(np.abs(moduli - 1.0) > _floored(tol) * 10):
        raise NotUnitaryError(float(np.max(np.abs(moduli - 1.0))), tol)
    angles = np.sort(np.angle(eigs / moduli) % TWO_PI)
    deduped = [angles[0]]
    for a in angles[1:]:
        if circle_dist(a, deduped[-1]) > SPECTRUM_DEDUP_TOL:
            deduped.append(a)
    # the first and last retained angles can still collide across the wrap
    if len(deduped) > 1 and circle_dist(deduped[0], deduped[-1]) <= SPECTRUM_DEDUP_TOL:
        deduped.pop()
    return CircleSet(np.array(deduped))


def _lex_less(a, b) -> bool:
    """Strict lexicographic comparison up to ``NECKLACE_SLACK``."""
    for x, y in zip(a, b):
        if x < y - NECKLACE_SLACK:
            return True
        if x > y + NECKLACE_SLACK:
            return False
    return False


def _min_rotation(seq: np.ndarray) -> np.ndarray:
    """Lexicographically least cyclic rotation under the tolerance-aware order.

    The m rotations come from one index table.  The scan compares them in
    turn against the best so far: the tolerance order is not transitive, so
    the scan order decides the result.
    """
    m = seq.size
    rots = seq[(np.arange(m)[:, None] + np.arange(m)) % m]
    rows = rots.tolist()  # the same floats, compared without numpy scalars
    best = 0
    for r in range(1, m):
        if _lex_less(rows[r], rows[best]):
            best = r
    return rots[best]


def canonical_form(s: CircleSet) -> CanonicalNecklace:
    """Canonical necklace of a circle set: the rigid-motion complete invariant.

    The gap sequence is rotated to its lexicographic minimum and compared with
    the minimum over rotations of the reversed sequence (a reflection of the
    circle reverses the gap order); ties break toward unreflected.
    """
    gaps = s.gaps()
    plain = _min_rotation(gaps)
    mirrored = _min_rotation(gaps[::-1].copy())
    if _lex_less(mirrored, plain):
        return CanonicalNecklace(gaps=mirrored, reflected=True)
    return CanonicalNecklace(gaps=plain, reflected=False)


def _arcs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float operations of circle_dist, elementwise on broadcast arrays."""
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _nearest_arcs(ref: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """For each of ``pts``, the smaller ``_arcs`` value to its two
    ``searchsorted`` neighbours in the sorted ``ref``, wrapping at both ends.

    One of the two is nearest in exact arithmetic, and a computed arc is
    within 2u * 2pi of the exact one (u = 2^-53), so while the angles of
    ``ref`` are further apart than 4u * 2pi < 3e-15, as every
    :class:`CircleSet`'s are, the result has the bits of the row minimum of
    the full table ``_arcs(pts[..., None], ref)``.
    """
    at = np.searchsorted(ref, pts)
    return np.minimum(_arcs(pts, ref[at - 1]), _arcs(pts, ref[at % ref.size]))


def _hausdorff_angles(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance of two sorted angle sets, each separated as
    :func:`_nearest_arcs` needs: the larger of the two directed sweeps."""
    return max(float(_nearest_arcs(b, a).max()), float(_nearest_arcs(a, b).max()))


def rigid_equivalent(s: CircleSet, t: CircleSet, tol: float = TOL_FLOOR):
    """A rigid motion carrying ``t`` onto ``s``, or None.

    The 2 * |t| candidate motions align each point of ``t`` (plain or
    reflected) to the first point of ``s``; the passing candidate with the
    smallest Hausdorff residual wins, the first one on a tie.  One
    :func:`_nearest_arcs` sweep of every candidate's moved points gives
    each candidate's forward residual, the first half of its Hausdorff
    residual, and only the candidates within ``tol`` there take the reverse
    sweep, so a call costs O(m^2 log m) in every case.  A residual is the
    larger of the two halves, :func:`_hausdorff_angles` bit for bit.
    """
    if s.size != t.size:
        return None
    best = None
    best_resid = np.inf
    for reflect in (False, True):
        base = (-t.angles) % TWO_PI if reflect else t.angles
        rots = (s.angles[0] - base) % TWO_PI
        moved = (base + rots[:, None]) % TWO_PI  # row j: the candidate aligning base[j]
        forward = _nearest_arcs(s.angles, moved).max(axis=1)
        for j in np.flatnonzero(forward <= tol):
            resid = max(float(forward[j]), float(_nearest_arcs(np.sort(moved[j]), s.angles).max()))
            if resid <= tol and resid < best_resid:
                best = RigidMotion(rotation=float(rots[j]), reflect=reflect)
                best_resid = resid
    return best


def _as_spectrum(u, tol: float) -> CircleSet:
    """``u`` when it is a spectrum already, else the spectrum of the unitary ``u``."""
    return u if isinstance(u, CircleSet) else spectrum(u, tol)


def cois_unitary_theorem(u, v, tol: float = TOL_NUM) -> CoisDecision:
    """Exact complete-order-isomorphism decision for two unitaries.

    ``u`` and ``v`` are unitaries or their spectra as :class:`CircleSet`s.
    Up to 3 points on either side the cardinalities decide, and from 5
    points on a rigid motion between the spectra does; two 4-point spectra
    with no rigid motion between them get the oracle's decision.
    """
    ss, tt = _as_spectrum(u, tol), _as_spectrum(v, tol)
    m, mp = ss.size, tt.size
    method = "theorem-fast-path"
    if min(m, mp) <= 3:
        if m == mp:
            return CoisDecision("Isomorphic", method, {"cardinality": m})
        return CoisDecision("NotIsomorphic", method, {"cardinalities": [m, mp]})
    motion = rigid_equivalent(ss, tt, tol=_floored(tol))
    if motion is not None:
        return CoisDecision(
            "Isomorphic", method,
            {"motion": {"rotation": motion.rotation, "reflect": motion.reflect}},
        )
    if m == mp == 4:
        return _bijection_decision(ss, tt, tol)
    return CoisDecision("NotIsomorphic", method, {"reason": "no rigid motion matches the spectra"})


def _bijection_decision(ss: CircleSet, tt: CircleSet, tol: float) -> CoisDecision:
    """The oracle's decision on two spectra of the same size."""
    zs, ws = ss.points(), tt.points()
    span_z = FactoredSpan(np.column_stack([np.ones_like(zs), zs, zs.conj()]))
    span_w = FactoredSpan(np.column_stack([np.ones_like(ws), ws, ws.conj()]))
    accept = _floored(tol)
    bijection, tried = bijection_sweep(span_z, span_w, zs, ws, accept)
    if bijection is None:
        return CoisDecision("NotIsomorphic", "oracle", {"failed_count": tried})
    p = np.array(bijection)
    fwd_coeffs, fwd_resid, _ = span_z.fit(ws[p, None], accept)
    bwd_coeffs, bwd_resid, _ = span_w.fit(zs[np.argsort(p), None], accept)
    return CoisDecision(
        "Isomorphic", "oracle",
        {
            "bijection": bijection,
            "forward_coeffs": fwd_coeffs[:, 0],
            "backward_coeffs": bwd_coeffs[:, 0],
            "residuals": [float(fwd_resid[0]), float(bwd_resid[0])],
        },
    )


def _certificate_checks(ss: CircleSet, tt: CircleSet, cert: dict) -> list:
    """The :func:`_replay_check` of an Isomorphic certificate with a rigid
    motion (it moves ``tt`` onto ``ss``) or a bijection (each of the oracle's
    fits a + b z + c conj z sends its spectrum onto the other); any other
    certificate has nothing to replay."""
    if "motion" in cert:
        moved = RigidMotion(**cert["motion"]).apply_angles(tt.angles)
        return [_replay_check("rigid motion", _hausdorff_angles(moved, ss.angles), 0.0)]
    if "bijection" not in cert:
        return []
    zs, ws, perm = ss.points(), tt.points(), np.asarray(cert["bijection"])
    checks = []
    for half, src, dst in (("forward", zs, ws[perm]), ("backward", ws, zs[np.argsort(perm)])):
        a, b, c = cert[f"{half}_coeffs"]
        span = FactoredSpan(np.column_stack([np.ones_like(src), src, src.conj()]))
        checks.append(_replay_check(f"{half} span coefficients", a + b * src + c * src.conj(),
                                    dst, span))
    return checks


def cois_unitary_oracle(u, v, tol: float = TOL_NUM) -> CoisDecision:
    """Exact finite-spectrum oracle for complete order isomorphism.

    Both systems contain the generator products, so a complete order
    isomorphism extends to a *-isomorphism of the generated commutative
    C*-algebras, i.e. a bijection ``h`` of the spectra.  The span condition
    becomes: ``h`` lies in span{1, z, conj z} on the source spectrum and
    ``h^-1`` in span{1, w, conj w} on the target.  :func:`bijection_sweep`
    finds the lexicographically first such bijection by a depth-first search
    pruned by the projectors onto the two spans.  A negative reports
    ``failed_count = m!``.
    """
    ss, tt = spectrum(u, tol), spectrum(v, tol)
    m = ss.size
    if m != tt.size:
        return CoisDecision("NotIsomorphic", "oracle", {"cardinalities": [m, tt.size]})
    return _bijection_decision(ss, tt, tol)


def four_point_obstruction(u, v, tol: float = TOL_NUM) -> dict:
    """Determinant report for the 4-point obstruction.

    For each assignment of the source spectrum to the rows indexed by the
    target spectrum, reports the determinant of the 4 x 4 matrix with columns
    (assignment, ones, target spectrum, conjugate target spectrum).  A nonzero
    determinant certifies the assignment is outside span{I, V, V*}.
    ``u`` and ``v`` are unitaries or their spectra as :class:`CircleSet`s.
    """
    ss, tt = _as_spectrum(u, tol), _as_spectrum(v, tol)
    if ss.size != 4 or tt.size != 4:
        raise DimensionError("both spectra must have exactly 4 points")
    zs, ws = ss.points(), tt.points()
    fixed = np.column_stack([np.ones(4, dtype=np.complex128), ws, ws.conj()])
    records = []
    for perm in itertools.permutations(range(4)):
        det = complex(np.linalg.det(np.column_stack([zs[list(perm)], fixed])))
        records.append({"assignment": list(perm), "determinant": det})
    min_mod = min(abs(r["determinant"]) for r in records)
    return {
        "determinants": records,
        "all_nonzero": min_mod > _floored(tol),
        "min_modulus": min_mod,
    }
