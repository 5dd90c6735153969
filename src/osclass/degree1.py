"""Degree-1 maps and the degree-1 homeomorphism decision for finite point sets.

A degree-1 map on a subset of C^n sends each coordinate to a combination of
the monomials ``z_i conj(z_j)`` (with ``z_0 = 1``) and has all pairwise
products of output coordinates in the same monomial span.  For finite sets
both conditions are span-membership tests against the monomial evaluation
matrix, and the homeomorphism decision sweeps all bijections, requiring a
degree-1 map in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opsys
from .errors import CapacityError, DimensionError
from .linalg import TOL_NUM, bijection_sweep, span_membership

#: Default bijection caps (points), by ambient dimension.
DEFAULT_CAP_DIM1 = 8
DEFAULT_CAP_DIMN = 6


@dataclass(frozen=True)
class PointSet:
    """A finite set of m distinct points in C^n."""

    ambient: int
    points: np.ndarray  # shape (m, n)
    tol: float = 1e-9

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.complex128)
        if p.ndim == 1:
            p = p.reshape(-1, 1)
        if p.ndim != 2 or p.shape[1] != self.ambient or p.shape[0] == 0:
            raise DimensionError(f"points must have shape (m, {self.ambient}), got {p.shape}")
        for i in range(p.shape[0]):
            for j in range(i + 1, p.shape[0]):
                if np.linalg.norm(p[i] - p[j]) <= self.tol:
                    raise DimensionError(f"points {i} and {j} coincide within tol")
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
    return np.column_stack([aug[:, i] * aug[:, j].conj() for i in range(n) for j in range(n)])


def _coords_and_products(points: np.ndarray) -> np.ndarray:
    """Columns: each coordinate, then every product ``p_k conj(p_l)``."""
    n = points.shape[1]
    prods = [points[:, k] * points[:, l].conj() for k in range(n) for l in range(n)]
    return np.column_stack([points] + prods)


def _degree_one_map(mat: np.ndarray, vals: np.ndarray, tol: float) -> DegreeOneMap:
    """The map whose coordinates fit ``vals`` over the monomial matrix ``mat``."""
    coeffs, _, _ = span_membership(vals, mat.T, tol)
    return DegreeOneMap(ambient=vals.shape[1], coeffs=coeffs.T)


def is_degree_one_assignment(d: PointSet, values, tol: float = TOL_NUM):
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
    coeffs, _, ok = span_membership(_coords_and_products(vals), monomial_matrix(d).T, tol)
    if not ok.all():
        return None
    return DegreeOneMap(ambient=d.ambient, coeffs=coeffs[:, :d.ambient].T)


def _check_sizes(d: PointSet, e: PointSet, cap: int | None) -> bool:
    """Whether a bijection search is needed; raises on mismatch or past the cap."""
    if d.ambient != e.ambient:
        raise DimensionError("point sets must share the ambient dimension")
    if d.size != e.size:
        return False
    if cap is None:
        cap = DEFAULT_CAP_DIM1 if d.ambient == 1 else DEFAULT_CAP_DIMN
    if d.size > cap:
        raise CapacityError(f"point count {d.size} exceeds cap {cap}")
    return True


def degree_one_homeomorphic(d: PointSet, e: PointSet, tol: float = TOL_NUM,
                            cap: int | None = None) -> Deg1Decision:
    """Decide whether two finite point sets are degree-1 homeomorphic.

    Sweeps the bijections in lexicographic order (:func:`bijection_sweep`) and
    accepts the first one admitting a degree-1 map in each direction; a
    negative verdict means all bijections were exhausted.
    """
    if not _check_sizes(d, e, cap):
        return Deg1Decision(homeomorphic=False, tried=0)
    mat_d, mat_e = monomial_matrix(d), monomial_matrix(e)
    bijection, tried, _ = bijection_sweep(mat_d, mat_e, _coords_and_products(d.points),
                                          _coords_and_products(e.points), tol)
    if bijection is None:
        return Deg1Decision(homeomorphic=False, tried=tried)
    p = np.array(bijection)
    inv = np.argsort(p)
    fwd = _degree_one_map(mat_d, e.points[p], tol)
    bwd = _degree_one_map(mat_e, d.points[inv], tol)
    fwd_resid = float(np.max(np.abs(fwd.apply(d) - e.points[p])))
    bwd_resid = float(np.max(np.abs(bwd.apply(e) - d.points[inv])))
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


def normal_system(d: PointSet) -> opsys.OperatorSystemSpan:
    """The operator system of a point set via its diagonal coordinate normals.

    With ``V_k`` the diagonal matrix of k-th coordinates, builds the span of
    the identity, the ``V_k`` with adjoints, and all products ``V_i V_j*``.
    """
    n = d.ambient
    vs = [np.diag(d.points[:, k]) for k in range(n)]
    products = [vs[i] @ vs[j].conj().T for i in range(n) for j in range(n)]
    return opsys.build_system(vs + products, include_identity=True)


def deg1_via_opsys(d: PointSet, e: PointSet, tol: float = TOL_NUM,
                   cap: int | None = None) -> Deg1Decision:
    """Degree-1 homeomorphism decided through the operator-system function spans.

    A bijection works iff pulling back each basis function of one system lands
    in the function span of the other, in both directions.  This mirrors the
    correspondence between isomorphisms of the generated algebras carrying one
    system onto the other and degree-1 homeomorphisms of the spectra.
    """
    if not _check_sizes(d, e, cap):
        return Deg1Decision(homeomorphic=False, tried=0)
    # the diagonals of each basis: the system as a space of functions on the points
    fd, fe = (np.diagonal(normal_system(s).basis, axis1=1, axis2=2).T for s in (d, e))
    bijection, tried, _ = bijection_sweep(fd, fe, fd, fe, tol)
    witness = None if bijection is None else {"bijection": bijection}
    return Deg1Decision(homeomorphic=witness is not None, witness=witness, tried=tried)
