"""Concrete finite-dimensional operator systems as matrix spans.

An operator system here is a linearly independent list of k x k matrices whose
span contains the identity and is closed under adjoints.  The module provides
construction from generators, membership diagnostics, amplified (matrix-level)
norms, and the minimal operator-space norm driven by a polyhedral dual ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, EmptySystemError, NoUnitError
from .linalg import TOL_NUM, FactoredSpan, as_matrix, op_norm, vec


@dataclass(frozen=True)
class OperatorSystemSpan:
    """A self-adjoint unital span of matrices in M_k with a distinguished unit.

    Attributes:
        ambient_dim: k, the size of the ambient matrix algebra.
        basis: an (N, k, k) array of linearly independent k x k matrices
            spanning the system.
        unit_coeffs: coefficients expressing the identity I_k in the basis.
    """

    ambient_dim: int
    basis: np.ndarray
    unit_coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    def assemble(self, coeffs) -> np.ndarray:
        """The nk x nk matrix sum_ij E_ij (x) (sum_m coeffs_ijm basis_m).

        ``coeffs`` is an (n, n, N) array of coefficient vectors, an element of
        M_n(X); a length-N vector is the level-1 case and gives the k x k
        matrix sum_m coeffs_m basis_m.
        """
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim == 1:
            c = c.reshape(1, 1, -1)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[2] != self.dim:
            raise DimensionError(f"expected {self.dim} coefficients or an (n, n, {self.dim}) "
                                 f"array, got shape {np.shape(coeffs)}")
        return self._assemble(c)

    def _assemble(self, c: np.ndarray) -> np.ndarray:
        """``assemble`` on an (..., n, n, N) complex stack, giving (..., nk, nk).

        Each element is one (n^2, N) x (N, k^2) product, stacked and never
        flattened into one product, so it has the bits of assembling it alone.
        """
        k, nn = self.ambient_dim, self.dim
        lead, n = c.shape[:-3], c.shape[-2]
        blocks = c.reshape(*lead, n * n, nn) @ self.basis.reshape(nn, k * k)
        blocks = blocks.reshape(*lead, n, n, k, k).swapaxes(-3, -2)
        return blocks.reshape(*lead, n * k, n * k)

    def unit(self) -> np.ndarray:
        return self.assemble(self.unit_coeffs)


@dataclass(frozen=True)
class AmplifiedElement:
    """An element of M_n(X) given by an n x n array of coefficient vectors."""

    level: int
    coeffs: np.ndarray  # shape (n, n, N)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[0] != self.level or c.shape[1] != self.level:
            raise DimensionError(f"coeffs must have shape (n, n, N), got {c.shape}")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class SystemCheck:
    """Result of the operator-system membership test with diagnostics."""

    ok: bool
    failed: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PolyhedralDualBall:
    """A dual unit ball given as the absolutely convex hull of finitely many functionals."""

    dim: int
    functionals: tuple = field(default=())

    def __post_init__(self):
        if not self.functionals:
            raise DimensionError("functional list must be nonempty")
        fs = tuple(linalg.as_vector(f) for f in self.functionals)
        for f in fs:
            if f.size != self.dim:
                raise DimensionError("functional length must match dim")
            if np.linalg.norm(f) == 0.0:
                raise DimensionError("functionals must be nonzero")
        object.__setattr__(self, "functionals", fs)


def build_system(generators, include_identity: bool = True, tol: float = TOL_NUM) -> OperatorSystemSpan:
    """Build the operator system spanned by I and the generators with adjoints.

    Basis extraction is greedy in a fixed order (identity first, then each
    generator followed by its adjoint, in input order), skipping any candidate
    that does not increase the numerical rank (:func:`greedy_basis`).  This
    makes ``unit_coeffs`` reproducible across runs.  The rank test sees every
    candidate at unit norm, so a generator's scale does not decide whether it
    is kept; the basis keeps the candidates as given.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens and not include_identity:
        raise EmptySystemError("need at least one generator or include_identity")
    k = gens[0].shape[0] if gens else None
    for g in gens:
        if g.shape[0] != g.shape[1]:
            raise DimensionError("generators must be square")
        if g.shape[0] != k:
            raise DimensionError("generators must have equal sizes")
    if k is None:
        raise EmptySystemError("cannot infer ambient dimension without generators")
    candidates = []
    if include_identity:
        candidates.append(np.eye(k, dtype=np.complex128))
    for g in gens:
        candidates.append(g)
        candidates.append(g.conj().T)
    basis = [candidates[i] for i in greedy_basis(candidates, tol)]
    if not basis:
        raise EmptySystemError("generators span the zero space")
    unit = find_unit_coeffs(basis, tol)
    stacked = np.array(basis)
    stacked.setflags(write=False)
    return OperatorSystemSpan(ambient_dim=k, basis=stacked, unit_coeffs=unit)


def greedy_basis(candidates, tol: float = TOL_NUM) -> list[int]:
    """Indices of the candidates that a greedy rank rule keeps, in order.

    The candidates (arrays, read row-major; all of one size) are equilibrated
    together once (:func:`linalg.equilibrate`, which raises ``DimensionError``
    on a non-finite entry or a norm past the float range).  The first nonzero
    candidate is kept; a later one when the kept unit vectors with it have a
    larger :func:`linalg.numerical_rank` at ``tol`` than without.  So a
    candidate's scale never decides whether it is kept.
    """
    if not candidates:
        return []
    unit, _ = linalg.equilibrate(np.column_stack([np.ravel(c) for c in candidates]))
    kept: list[int] = []
    for i in np.flatnonzero(unit.any(axis=0)).tolist():  # zero candidates are skipped
        if not kept or linalg.numerical_rank(
                np.linalg.svd(unit[:, kept + [i]], compute_uv=False), tol) > len(kept):
            kept.append(i)
    return kept


def is_operator_system(matrices, tol: float = TOL_NUM) -> SystemCheck:
    """Decide whether a tuple of matrices spans an operator system.

    Checks, in order: linear independence of the tuple, closure of the span
    under adjoints, and membership of the identity in the span.  The first
    failed condition is named in the diagnostics.  One factor answers all.
    """
    ms = [as_matrix(m) for m in matrices]
    if not ms:
        raise DimensionError("tuple must be nonempty")
    k = ms[0].shape[0]
    for m in ms:
        if m.shape != (k, k):
            raise DimensionError("matrices must be square of equal size")
    span = FactoredSpan(np.column_stack([vec(m) for m in ms]))
    if span.dim(tol) < len(ms):
        return SystemCheck(False, "independence", "tuple is linearly dependent")
    targets = [vec(m.conj().T) for m in ms] + [np.eye(k, dtype=np.complex128).ravel()]
    ok = span.fit(np.column_stack(targets), tol)[2]
    if not ok[:-1].all():  # argmin is the first failing element
        return SystemCheck(False, "adjoints", f"adjoint of element {np.argmin(ok)} is outside the span")
    if not ok[-1]:
        return SystemCheck(False, "unit", "identity is not in the span")
    return SystemCheck(True)


def find_unit_coeffs(basis, tol: float = TOL_NUM) -> np.ndarray:
    """Minimum-norm coefficients reproducing the identity in the given span."""
    ms = [as_matrix(b) for b in basis]
    k = ms[0].shape[0]
    # the transpose of the stacked rows: its column norms have the bits of this layout
    coeffs, _, ok = FactoredSpan(np.array([vec(m) for m in ms]).T).fit(np.eye(k).ravel(), tol)
    if not ok[0]:
        raise NoUnitError("identity is not in the span of the basis")
    return coeffs[:, 0]


def amplified_norm(x: OperatorSystemSpan, a: AmplifiedElement) -> float:
    """Norm of an element of M_n(X), computed in the concrete representation."""
    return op_norm(x.assemble(a.coeffs))


def min_os_norm(ball: PolyhedralDualBall, x) -> float:
    """Minimal operator-space norm of an n x n array of vectors.

    Computes ``max over listed functionals phi of op_norm([phi(x_ij)])``.  This
    equals the supremum over the whole dual ball: the objective is convex and
    invariant under unimodular scaling of phi, so it is attained at one of the
    listed extreme points.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(1, 1, -1)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected an n x n array of vectors, got shape {arr.shape}")
    if arr.shape[2] != ball.dim:
        raise DimensionError("vector length must match ball.dim")
    best = 0.0
    for phi in ball.functionals:
        applied = arr @ phi
        best = max(best, op_norm(applied))
    return best
