"""Degree-1 maps and the degree-1 homeomorphism decision for finite point sets.

A degree-1 map on a subset of C^n sends each coordinate to a combination of
the monomials ``z_i conj(z_j)`` (with ``z_0 = 1``) and has all pairwise
products of output coordinates in the same monomial span.  For finite sets
both conditions are span-membership tests against the monomial evaluation
matrix, and the homeomorphism decision searches the bijections for one with
a degree-1 map in each direction.  The coincidence check is blocked by
``linalg.block_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opsys
from .errors import CapacityError, DimensionError
from .linalg import TOL_NUM, FactoredSpan, _replay_check, bijection_sweep, first_violation


@dataclass(frozen=True)
class PointSet:
    """A finite set of m points in C^n, no two within ``TOL_NUM``."""

    ambient: int
    points: np.ndarray  # shape (m, n)

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.complex128)
        if p.ndim == 1:
            p = p.reshape(-1, 1)
        if p.ndim != 2 or p.shape[1] != self.ambient or p.shape[0] == 0:
            raise DimensionError(f"points must have shape (m, {self.ambient}), got {p.shape}")
        if not np.isfinite(p).all():
            raise DimensionError("points must have finite coordinates")

        def close(lo: int, hi: int) -> np.ndarray:  # each pair once, as i < j
            with np.errstate(over="ignore"):  # a distance past the float range is no coincidence
                near = np.linalg.norm(p[lo:hi, None] - p, axis=2) <= TOL_NUM
            return near & (np.arange(len(p)) > np.arange(lo, hi)[:, None])

        pair = first_violation(len(p), p.size, close)  # a row's coordinate differences
        if pair is not None:
            raise DimensionError("points {} and {} coincide within tol".format(*pair))
        object.__setattr__(self, "points", p)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class DegreeOneMap:
    """Coefficient tensor of a degree-1 map on C^n.

    ``coeffs[k]`` holds the (n+1)^2 monomial coefficients of output coordinate
    ``k`` in the (i, j)-lexicographic column order of :func:`monomial_matrix`.
    For n = 1 the four entries multiply, in order: 1, conj z, z, z conj z.
    """

    ambient: int
    coeffs: np.ndarray  # shape (n, (n+1)**2)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        expected = (self.ambient, (self.ambient + 1) ** 2)
        if c.shape != expected:
            raise DimensionError(f"coeffs must have shape {expected}, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    def apply(self, points: np.ndarray) -> np.ndarray:
        ps = PointSet(self.ambient, points) if not isinstance(points, PointSet) else points
        return monomial_matrix(ps) @ self.coeffs.T


@dataclass(frozen=True)
class Deg1Decision:
    """Outcome of a degree-1 homeomorphism decision."""

    homeomorphic: bool
    witness: dict | None = field(default=None)
    tried: int = 0


def monomial_matrix(d: PointSet) -> np.ndarray:
    """Evaluation matrix of the monomials ``z_i conj(z_j)`` at the points of d.

    Columns are ordered (i, j)-lexicographically for 0 <= i, j <= n with
    ``z_0 = 1``; row r evaluates at point r.
    """
    aug = np.hstack([np.ones((d.size, 1), dtype=np.complex128), d.points])  # z_0 = 1
    n = d.ambient + 1
    with np.errstate(over="ignore", invalid="ignore"):
        mat = np.column_stack([aug[:, i] * aug[:, j].conj() for i in range(n) for j in range(n)])
    if not np.isfinite(mat).all():
        raise DimensionError("the coordinates' degree-1 monomials overflow the float range")
    return mat


def _coords_and_products(points: np.ndarray) -> np.ndarray:
    """Columns: each coordinate, then every product ``p_k conj(p_l)``."""
    n = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # the span test rejects an overflow
        prods = [points[:, k] * points[:, l].conj() for k in range(n) for l in range(n)]
    return np.column_stack([points] + prods)


def is_degree_one_assignment(d: PointSet, values):
    """The degree-1 map sending the points of ``d`` to ``values``, or None.

    Present iff each output coordinate lies in the column space of the
    monomial matrix (which pins the coefficients) and every pairwise product
    ``value_k conj(value_l)`` lies in the same column space.
    """
    vals = np.asarray(values, dtype=np.complex128)
    if vals.ndim == 1:
        vals = vals.reshape(-1, 1)
    if vals.shape != (d.size, d.ambient):
        raise DimensionError(f"values must have shape ({d.size}, {d.ambient}), got {vals.shape}")
    coeffs, _, ok = FactoredSpan(monomial_matrix(d)).fit(_coords_and_products(vals))
    if not ok.all():
        return None
    return DegreeOneMap(ambient=d.ambient, coeffs=coeffs[:, :d.ambient].T)


def _check_sizes(d: PointSet, e: PointSet, cap: int | None) -> bool:
    """Whether a bijection search is needed; raises on mismatch or a negative or exceeded cap."""
    if cap is not None and cap < 0:
        raise DimensionError(f"cap must be >= 0, got {cap}")
    if d.ambient != e.ambient:
        raise DimensionError("point sets must share the ambient dimension")
    if d.size != e.size:
        return False
    if cap is not None and d.size > cap:
        raise CapacityError(f"point count {d.size} exceeds cap {cap}")
    return True


def degree_one_homeomorphic(d: PointSet, e: PointSet, tol: float = TOL_NUM,
                            cap: int | None = None) -> Deg1Decision:
    """Decide whether two finite point sets are degree-1 homeomorphic.

    Accepts the lexicographically first bijection admitting a degree-1 map in
    each direction (:func:`bijection_sweep`); a negative verdict means no
    bijection admits one.
    """
    if not _check_sizes(d, e, cap):
        return Deg1Decision(homeomorphic=False, tried=0)
    fd, fe = FactoredSpan(monomial_matrix(d)), FactoredSpan(monomial_matrix(e))
    bijection, tried = bijection_sweep(fd, fe, _coords_and_products(d.points),
                                          _coords_and_products(e.points), tol)
    if bijection is None:
        return Deg1Decision(homeomorphic=False, tried=tried)
    p = np.array(bijection)
    inv = np.argsort(p)
    # fit the coordinates alone: fitted beside the products they get other bits
    fwd = DegreeOneMap(ambient=d.ambient, coeffs=fd.fit(e.points[p], tol)[0].T)
    bwd = DegreeOneMap(ambient=e.ambient, coeffs=fe.fit(d.points[inv], tol)[0].T)
    fwd_resid = float(np.max(np.abs(fd.span @ fwd.coeffs.T - e.points[p])))
    bwd_resid = float(np.max(np.abs(fe.span @ bwd.coeffs.T - d.points[inv])))
    return Deg1Decision(
        homeomorphic=True,
        witness={
            "bijection": bijection,
            "forward": fwd,
            "backward": bwd,
            "residuals": [fwd_resid, bwd_resid],
        },
        tried=tried,
    )


def _certificate_checks(d: PointSet, e: PointSet, witness: dict) -> list:
    """The :func:`_replay_check` of a positive witness.  With both maps
    (:func:`degree_one_homeomorphic`) each sends its points onto the other
    set's, and the products of its values lie in the monomial span.  With the
    bijection alone (:func:`deg1_via_opsys`) each side's function span, pulled
    back through the bijection or its inverse, lies in the other side's."""
    perm = np.asarray(witness["bijection"])
    inv = np.argsort(perm)
    if "forward" not in witness:
        fd, fe = FactoredSpan(_function_span(d)), FactoredSpan(_function_span(e))
        return [_replay_check("function span forward", None, fe.span[perm], fd),
                _replay_check("function span backward", None, fd.span[inv], fe)]
    checks = []
    for half, src, dst in (("forward", d, e.points[perm]), ("backward", e, d.points[inv])):
        span = FactoredSpan(monomial_matrix(src))
        with np.errstate(invalid="ignore"):  # a non-finite coefficient fails below
            out = span.span @ witness[half].coeffs.T
        checks.append(_replay_check(f"degree-1 {half} map", out, dst, span))
        prods = _coords_and_products(out)[:, src.ambient:]
        checks.append(_replay_check(f"degree-1 {half} products", None, prods, span))
    return checks


def _function_span(d: PointSet) -> np.ndarray:
    """The operator system of ``d``'s coordinate normals as functions on its points.

    The candidates, in :func:`opsys.build_system`'s order for the diagonal
    matrices of the same functions: the constant 1, each coordinate ``v_k``
    and its conjugate, then each product ``v_i conj(v_j)`` and its conjugate.
    The conjugate of a real function is left out, as the rank rule drops a
    copy of the candidate before it.  The columns are those
    :func:`opsys.greedy_basis` keeps; the constant is the first.
    """
    candidates = [np.ones(d.size, dtype=np.complex128)]
    for f in _coords_and_products(d.points).T:
        candidates += [f, f.conj()] if f.imag.any() else [f]
    return np.column_stack([candidates[i] for i in opsys.greedy_basis(candidates)])


def normal_system(d: PointSet) -> opsys.OperatorSystemSpan:
    """The operator system of a point set via its diagonal coordinate normals.

    With ``V_k`` the diagonal matrix of k-th coordinates, this is the span of
    the identity, the ``V_k`` with adjoints, and all products ``V_i V_j*``,
    kept by :func:`opsys.build_system`'s rule.  The basis is the diagonal
    embedding of the function span that :func:`deg1_via_opsys` searches, and
    the identity is its first element.
    """
    span = _function_span(d)
    basis = np.array([np.diag(f) for f in span.T])
    basis.setflags(write=False)
    unit = np.eye(1, span.shape[1], dtype=np.complex128)[0]
    return opsys.OperatorSystemSpan(ambient_dim=d.size, basis=basis, unit_coeffs=unit)


def deg1_via_opsys(d: PointSet, e: PointSet, tol: float = TOL_NUM,
                   cap: int | None = None) -> Deg1Decision:
    """Degree-1 homeomorphism decided through the operator-system function spans.

    A bijection works iff pulling back each basis function of one system lands
    in the function span of the other, in both directions.  This mirrors the
    correspondence between isomorphisms of the generated algebras carrying one
    system onto the other and degree-1 homeomorphisms of the spectra.  The
    commutative system of a point set is a space of functions on its points,
    so each span is built from the points as m-vectors (the diagonals of
    :func:`normal_system`'s basis), never as m x m matrices.
    """
    if not _check_sizes(d, e, cap):
        return Deg1Decision(homeomorphic=False, tried=0)
    fd, fe = FactoredSpan(_function_span(d)), FactoredSpan(_function_span(e))
    bijection, tried = bijection_sweep(fd, fe, fd.span, fe.span, tol)
    witness = None if bijection is None else {"bijection": bijection}
    return Deg1Decision(homeomorphic=witness is not None, witness=witness, tried=tried)
