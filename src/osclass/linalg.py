"""Deterministic dense complex linear algebra primitives.

Matrices are plain ``numpy`` arrays with ``complex128`` entries; every function
validates shape and finiteness before computing.  These routines are the
substrate for all higher modules: operator norms, spectra of normal matrices,
span membership, the exhaustive bijection sweep, and numerical rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NotNormalError

#: Default relative tolerance used across the package.
TOL_NUM = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array, raising DimensionError otherwise."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionError("matrix has non-finite entries")
    return m


def as_vector(v) -> np.ndarray:
    m = np.asarray(v, dtype=np.complex128).ravel()
    if m.size == 0:
        raise DimensionError("expected a nonempty vector")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise DimensionError("vector has non-finite entries")
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and an orthonormal eigenbasis of a normal matrix.

    ``eigenvectors`` is unitary with eigenvectors as columns, so that
    ``A = Q diag(eigenvalues) Q*`` up to the construction tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return q @ np.diag(self.eigenvalues) @ q.conj().T


def op_norm(a) -> float:
    """Largest singular value of ``a`` (the operator norm on column vectors)."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def eig_normal(a, tol: float = TOL_NUM) -> SpectralDecomposition:
    """Eigendecomposition of a normal matrix with an orthonormal eigenbasis.

    Uses a unitary (Schur) triangularization followed by diagonal extraction;
    the off-diagonal part of the triangular factor is the normality defect and
    must be small relative to ``||a||``.

    Raises:
        DimensionError: if ``a`` is not square.
        NotNormalError: if ``a a* - a* a`` exceeds ``tol * ||a||^2``.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    nrm = op_norm(m)
    if nrm == 0.0:
        n = m.shape[0]
        return SpectralDecomposition(np.zeros(n, dtype=np.complex128), np.eye(n, dtype=np.complex128))
    defect = op_norm(m @ m.conj().T - m.conj().T @ m) / nrm**2
    if defect > tol:
        raise NotNormalError(defect, tol)
    t, q = scipy.linalg.schur(m, output="complex")
    # For a normal matrix the Schur form is diagonal up to the defect.
    off = t - np.diag(np.diag(t))
    if op_norm(off) > max(tol, np.sqrt(defect)) * nrm * 10:
        raise NotNormalError(op_norm(off) / nrm**2, tol)
    return SpectralDecomposition(np.diag(t).copy(), q)


def span_membership(v, basis, tol: float = TOL_NUM):
    """Least-squares span test: the one membership rule of the package.

    ``basis`` lists the spanning vectors (one per row).  The minimum-norm
    least-squares coefficients of a target are accepted when the residual
    satisfies ``||sum c_j b_j - v|| <= tol * max(1, ||v||)``.

    A single target vector gives its coefficients, or ``None`` when it misses
    the bound.  A 2-d ``v`` holds one target per column and gives the triple
    ``(coeffs, residuals, accepted)`` with one coefficient column, residual
    and verdict per target.
    """
    target = np.asarray(v, dtype=np.complex128)
    batched = target.ndim == 2
    if not batched:
        target = target.ravel()
    rows = np.asarray(basis, dtype=np.complex128)
    if rows.size == 0 or target.size == 0:
        raise DimensionError("basis and target must be nonempty")
    mat = rows.reshape(rows.shape[0], -1).T
    if mat.shape[0] != target.shape[0]:
        raise DimensionError("basis vectors must match the length of v")
    if not (np.isfinite(mat).all() and np.isfinite(target).all()):
        raise DimensionError("span test inputs have non-finite entries")
    coeffs = np.linalg.pinv(mat, rcond=1e-13) @ target
    resid = np.linalg.norm(mat @ coeffs - target, axis=0)
    accepted = resid <= tol * np.maximum(1.0, np.linalg.norm(target, axis=0))
    if batched:
        return coeffs, resid, accepted
    return coeffs if accepted else None


#: Bijections per numpy block in :func:`bijection_sweep`.
SWEEP_BLOCK = 4096


def lex_bijections(m: int, block: int = SWEEP_BLOCK):
    """All permutations of ``range(m)`` in lexicographic order, as int blocks."""
    perms_iter = itertools.permutations(range(m))
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(perms_iter, block))
        perms = np.fromiter(flat, dtype=np.intp).reshape(-1, m)
        if not perms.shape[0]:
            return
        yield perms


def _transport_residuals(span: np.ndarray, values: np.ndarray, perms: np.ndarray,
                         tol: float):
    """Worst residual and verdict of ``values[p]`` in ``span`` for each row p."""
    b, m = perms.shape
    k = values.shape[1]
    targets = values[perms].transpose(1, 0, 2).reshape(m, b * k)
    _, resid, ok = span_membership(targets, span.T, tol)
    return resid.reshape(b, k).max(axis=1), ok.reshape(b, k).all(axis=1)


def bijection_sweep(span_a, span_b, values_a, values_b,
                    tol: float = TOL_NUM) -> tuple[list | None, int, np.ndarray]:
    """Exhaustive search for a bijection carrying each function span onto the other.

    The m rows of every argument are the points of two m-point sets A and B;
    the columns of ``span_a``/``span_b`` span a space of functions on A/B.  A
    bijection p (point i of A to point ``p[i]`` of B) passes when every column
    of ``values_b[p]`` lies in the span on A and every column of
    ``values_a[p^-1]`` lies in the span on B, under :func:`span_membership`.
    All m! bijections are visited in lexicographic order, a block of them at a
    time.  The sweep does not stop at the first pass, so its cost is m! span
    tests whatever the input and wherever its witness falls in the order.

    Returns ``(bijection, tried, residuals)``: the first passing bijection
    (``None`` when none passes), its 1-based lexicographic rank (m! when none
    passes), i.e. the number of bijections checked up to and including it,
    and per such bijection the worst forward and backward column residual,
    one row each.
    """
    span_a, span_b = np.asarray(span_a), np.asarray(span_b)
    values_a = np.asarray(values_a).reshape(span_a.shape[0], -1)
    values_b = np.asarray(values_b).reshape(span_b.shape[0], -1)
    m = span_a.shape[0]
    if span_b.shape[0] != m:
        raise DimensionError("both point sets must have the same size")
    chunks = []
    first, tried = None, 0
    for perms in lex_bijections(m):
        fwd, fwd_ok = _transport_residuals(span_a, values_b, perms, tol)
        bwd, bwd_ok = _transport_residuals(span_b, values_a, np.argsort(perms, axis=1), tol)
        chunks.append(np.column_stack([fwd, bwd]))
        passing = np.flatnonzero(fwd_ok & bwd_ok)
        if first is None:
            first = perms[passing[0]].tolist() if passing.size else None
            tried += int(passing[0]) + 1 if passing.size else perms.shape[0]
    return first, tried, np.concatenate(chunks)[:tried]


def gram_rank(vectors, tol: float = TOL_NUM) -> int:
    """Numerical rank of the span of the given vectors.

    Counts singular values of the stacked matrix exceeding ``tol`` times the
    largest one.
    """
    cols = [as_vector(v) for v in vectors]
    if not cols:
        raise DimensionError("need at least one vector")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise DimensionError("vectors must have equal lengths")
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def kron(a, b) -> np.ndarray:
    """Tensor product with the standard block layout ``A_ij * B``."""
    return np.kron(as_matrix(a), as_matrix(b))


def vec(a) -> np.ndarray:
    """Row-major vectorization of a matrix, for span/rank tests."""
    return as_matrix(a).ravel()
