"""Deterministic dense complex linear algebra primitives.

Matrices are plain ``numpy`` arrays with ``complex128`` entries; every function
validates shape and finiteness before computing.  These routines are the
substrate for all higher modules: operator norms, spectra of normal matrices,
span membership, the exact bijection search, and numerical rank.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DimensionError, NotNormalError

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


#: Slope theta of the Hermitian pencil ``H + theta K`` of :func:`eig_normal`.
#: atan(theta) is no rational multiple of pi, so no two vertices of a regular
#: polygon with a vertex at 1 share a pencil value.
_PENCIL_THETA = (math.sqrt(5.0) - 1.0) / 2.0

#: Pencil eigenvalues within this many ``||a||`` of their neighbour form one
#: cluster in :func:`eig_normal`.
_CLUSTER_GAP = 1e-6


def eig_normal(a, tol: float = TOL_NUM) -> SpectralDecomposition:
    """Eigendecomposition of a normal matrix with an orthonormal eigenbasis.

    For a normal A, H = (A + A*)/2 and K = (A - A*)/2i commute and share A's
    eigenvectors, so ``eigh`` of the Hermitian pencil H + theta K (theta =
    ``_PENCIL_THETA``) finds them, showing each eigenvalue lam as
    Re lam + theta Im lam (Bunse-Gerstner, Byers & Mehrmann, SIAM J. Matrix
    Anal. Appl. 14, 1993).  Two steps repair what the pencil cannot see:

    - Clusters.  Distinct eigenvalues can land on one pencil value, and
      near-equal pencil values mix their eigenvectors.  A run of pencil
      eigenvalues each within ``_CLUSTER_GAP * ||a||`` of the next is a
      cluster, and its compressed block Q_c* A Q_c is diagonalised by its
      Schur vectors (``eig``'s eigenvectors, orthonormalised by QR in order).
    - Between clusters, rounding in ``eigh`` mixes two eigenvectors by about
      eps ||a|| / (pencil gap), which costs that times their eigenvalue
      distance in the residual.  With B = Q* A Q, the basis Q (I + X), X the
      skew-Hermitian part of ``B_ij / (B_jj - B_ii)`` over pairs in
      different clusters, removes that mix to first order.  Such a pair's
      pencil gap exceeds the cluster gap, so ``|B_jj - B_ii|`` exceeds it
      over ``|1 - i theta|``.

    The eigenvalues are the diagonal of B.  The residual ``||A Q - Q Lam||``
    is checked in the Frobenius norm, which bounds the operator norm.

    Raises:
        DimensionError: if ``a`` is not square.
        NotNormalError: if ``a a* - a* a`` exceeds ``tol * ||a||^2``, or if the
            residual exceeds ``max(tol, sqrt(defect)) * ||a|| * 10``.
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
    half = m * (0.5 - 0.5j * _PENCIL_THETA)
    w, q = np.linalg.eigh(half + half.conj().T)  # H + theta K
    label = np.r_[0, np.cumsum(np.diff(w) > _CLUSTER_GAP * nrm)]
    for c in np.flatnonzero(np.bincount(label) > 1):
        qc = q[:, label == c]
        v = np.linalg.eig(qc.conj().T @ m @ qc)[1]
        q[:, label == c] = qc @ np.linalg.qr(v)[0]
    aq = m @ q
    b = q.conj().T @ aq
    lam = np.diag(b).copy()
    x = np.divide(b, lam - lam[:, None], out=np.zeros_like(b), where=label[:, None] != label)
    x = (x - x.conj().T) / 2
    q = q + q @ x
    resid = np.linalg.norm(aq + aq @ x - q * lam)
    if resid > max(tol, np.sqrt(defect)) * nrm * 10:
        raise NotNormalError(resid / nrm**2, tol)
    return SpectralDecomposition(lam, q)


#: Most multiply-adds per product in a batched :meth:`FactoredSpan.fit`:
#: OpenBLAS hands a product past 2^16 of them to its thread pool, and on these
#: thin matrices the hand-off costs milliseconds and saves microseconds.
_SERIAL_PRODUCT = 1 << 16

_CUTOFF = 1e-13  # the pseudoinverse's: singular values up to this times the largest are cut

#: Float slack of the radius of :func:`bijection_sweep` per span column.
_FLOAT_SLACK = 1e-14


class FactoredSpan:
    """A span of functions (one column each, one row per point), factored once.

    The one SVD is the one ``np.linalg.pinv(span, rcond=_CUTOFF)`` takes.  It
    gives the pseudoinverse of :meth:`fit`, built with ``pinv``'s own float
    operations and so with its bits, and the projector and radius terms of
    :func:`bijection_sweep`, which so prunes on the range the fit projects onto.
    """

    def __init__(self, span):
        mat = np.asarray(span, dtype=np.complex128)
        if mat.ndim != 2 or mat.size == 0:
            raise DimensionError("basis and target must be nonempty")
        if not np.isfinite(mat).all():
            raise DimensionError("span test inputs have non-finite entries")
        u, s, vt = np.linalg.svd(mat.conj(), full_matrices=False)  # span = conj(u) s conj(vt)
        large = s > _CUTOFF * s[0]  # s[0] is the largest
        inv = np.divide(1, s, where=large, out=np.zeros_like(s))
        self.span, self.rank = mat, int(np.count_nonzero(large))
        self.pinv = np.transpose(vt) @ (inv[:, None] * np.transpose(u))
        self._u, self._s, self._vt = u, s, vt

    @cached_property
    def projector(self) -> np.ndarray:
        """The orthogonal projector onto the range :meth:`fit` projects onto."""
        u = self._u[:, :self.rank].conj()
        return u @ u.conj().T

    @cached_property
    def _weights(self) -> np.ndarray:
        """Row norms of ``M = D^-1 V_r S_r^-1`` (see :func:`bijection_sweep`)."""
        scale = np.maximum(1.0, np.linalg.norm(self.span, axis=0))
        return np.linalg.norm(self._vt[:self.rank].T * scale[:, None] / self._s[:self.rank], axis=1)

    def fit(self, v, tol: float = TOL_NUM):
        """Least-squares span test, the one membership rule of the package: the
        minimum-norm coefficients c of a target pass if ``||span @ c - v|| <=
        tol * max(1, ||v||)``.  A vector ``v`` gives c, or ``None`` if it
        fails; a 2-d ``v`` (one target per column) gives ``(coeffs, residuals,
        accepted)``, in power-of-two chunks of at least 64 columns and at most
        ``_SERIAL_PRODUCT`` multiply-adds per product where the span allows.
        Chunks start at multiples of 64, so BLAS's kernels see the same column
        blocks and every column has the bits of one product over all targets."""
        target = np.asarray(v, dtype=np.complex128)
        batched = target.ndim == 2
        if not batched:
            target = target.reshape(-1, 1)  # numpy multiplies a lone column as a vector
        if target.size == 0:
            raise DimensionError("basis and target must be nonempty")
        mat, pinv = self.span, self.pinv
        if mat.shape[0] != target.shape[0]:
            raise DimensionError("basis vectors must match the length of v")
        if not np.isfinite(target).all():
            raise DimensionError("span test inputs have non-finite entries")
        n = target.shape[1]
        step = 1 << max(6, (_SERIAL_PRODUCT // mat.size).bit_length() - 1)
        cuts = list(range(step, n, step))
        if cuts and n - cuts[-1] == 1:
            cuts.pop()  # a lone last column would get a vector's bits
        coeffs = np.empty((mat.shape[1], n), dtype=np.complex128)
        resid = np.empty(n)
        for part in map(slice, [0] + cuts, cuts + [n]):
            coeffs[:, part] = pinv @ target[:, part]
            resid[part] = np.linalg.norm(mat @ coeffs[:, part] - target[:, part], axis=0)
        accepted = resid <= tol * np.maximum(1.0, np.linalg.norm(target, axis=0))
        if batched:
            return coeffs, resid, accepted
        return coeffs[:, 0] if accepted[0] else None


def span_membership(v, basis, tol: float = TOL_NUM):
    """:meth:`FactoredSpan.fit` on the span of ``basis`` (one vector per row)."""
    rows = np.asarray(basis, dtype=np.complex128)
    if rows.size == 0:
        raise DimensionError("basis and target must be nonempty")
    return FactoredSpan(rows.reshape(rows.shape[0], -1).T).fit(v, tol)


#: Most nodes (partial bijections) one :func:`bijection_sweep` may visit; a
#: complete one counts 16 for its span tests (about 40 us against 10 us).
SEARCH_NODE_BUDGET = 1_000_000
_LEAF_NODES = 16


def _lex_rank(p: list) -> int:
    """1-based position of the permutation ``p`` in lexicographic order."""
    rank, left = 0, sorted(p)
    for i, x in enumerate(p):
        rank += left.index(x) * math.factorial(len(p) - 1 - i)
        left.remove(x)
    return rank + 1


def _pruning(span_a: FactoredSpan, span_b: FactoredSpan, tol: float):
    """Both projectors and the pruning radius R of :func:`bijection_sweep`."""
    reach, rounding = [], 0.0
    for this, other in ((span_a, span_b), (span_b, span_a)):
        (m, k), sv = this.span.shape, this._s.tolist()
        test = _FLOAT_SLACK * k * (1.0 + np.linalg.norm(this._weights))
        miss = np.linalg.norm(1.0 - this.projector.sum(axis=1)) / max(1.0, math.sqrt(m))
        constant = (other.span == other.span[:1]).all(axis=0)
        reach.append(other._weights @ (test + np.where(constant, miss, tol)))
        near = any(abs(x - _CUTOFF * sv[0]) < 1e-14 * sv[0] for x in sv)  # rounding cuts or not
        rounding += math.inf if near else _FLOAT_SLACK * k * sv[0] / sv[this.rank - 1]
    return span_a.projector, span_b.projector, max(reach) + rounding


def _survivors(proj_a: np.ndarray, proj_b: np.ndarray, radius: float):
    """Every bijection the pruning keeps, in lexicographic order.

    Row d may go to a free target j only if
    ``|proj_a[i, d] - proj_b[p[i], j]| <= radius`` for every i < d and for
    the diagonal i = d.  Its consumer tests each complete map, so that map
    counts ``_LEAF_NODES`` assignments; past ``SEARCH_NODE_BUDGET`` it raises.
    """
    m = proj_a.shape[0]
    if radius < 1.0 and round(proj_a.trace().real) != round(proj_b.trace().real):
        return  # projectors of different ranks are 1 apart in norm
    near_diag = np.abs(proj_a.diagonal()[:, None] - proj_b.diagonal()) <= radius
    p = np.full(m, -1, dtype=np.intp)
    free = np.ones(m, dtype=bool)
    stack = [iter(np.flatnonzero(near_diag[0]).tolist())]
    nodes = 0
    while stack:
        d = len(stack) - 1
        if p[d] >= 0:
            free[p[d]] = True
            p[d] = -1
        j = next(stack[-1], None)
        if j is None:
            stack.pop()
            continue
        nodes += _LEAF_NODES if d + 1 == m else 1
        if nodes > SEARCH_NODE_BUDGET:
            raise CapacityError(f"bijection search at m = {m} passed {SEARCH_NODE_BUDGET} nodes")
        p[d] = j
        if d + 1 == m:
            yield p.tolist()
            continue
        free[j] = False
        near = free & near_diag[d + 1]
        near &= (np.abs(proj_a[:d + 1, d + 1, None] - proj_b[p[:d + 1]]) <= radius).all(axis=0)
        stack.append(iter(np.flatnonzero(near).tolist()))


def bijection_sweep(span_a: FactoredSpan, span_b: FactoredSpan, values_a, values_b,
                    tol: float = TOL_NUM) -> tuple[list | None, int]:
    """Exact search for a bijection carrying each function span onto the other.

    The m rows of every argument are the points of two m-point sets A and B;
    the columns of ``span_a.span``/``span_b.span`` span a space of functions
    on A/B.  A bijection p (point i of A to point ``p[i]`` of B) passes when
    every column of ``values_b[p]`` lies in the span on A and every column of
    ``values_a[p^-1]`` lies in the span on B, under :meth:`FactoredSpan.fit`.
    Each span must hold the constants and be closed under conjugation, and
    its columns must be distinct columns of ``X = [1, values, conj values]``
    on its side; the three exact routes call it so.

    The search.  Let Pi_A and Pi_B be the orthogonal projectors onto the
    ranges that the span tests project onto (each from its span's one SVD),
    and P the permutation matrix of p, ``(P f)_i = f[p[i]]``.  A lexicographic
    depth-first search over ``p[0], p[1], ...`` drops a partial map as soon
    as some ``|Pi_A[i, k] - Pi_B[p[i], p[k]]|`` (the diagonal included)
    exceeds the radius R below (:func:`_survivors`), and gives each complete
    map the two-sided span test.  Every passing bijection survives the
    pruning, so the first complete map that passes is the lexicographically
    first passing bijection of all m!.  This is an isomorphism search of two
    weighted complete graphs (McKay & Piperno, J. Symbolic Comput. 60, 2014).

    The radius.  Take a passing p.  Each entry of ``Pi_A - P Pi_B P^T`` is at
    most its norm, which for two orthogonal projectors is the larger of
    ``||(I - Pi_A) P Pi_B P^T||`` and ``||(I - P Pi_B P^T) Pi_A||``.  In the
    first, write ``S_B = span_b.span = U S V*`` (r singular values kept) and
    let D scale column j of ``S_B`` by ``1 / max(1, ||S_B[:, j]||)``.  A unit
    vector ``U_r a`` of the range of Pi_B is ``S_B D M a`` with
    ``M = D^-1 V_r S_r^-1``, so ``P U_r a`` lies at most
    ``sum_j ||M[j]|| b_j`` from the range of Pi_A, where ``b_j`` bounds that
    distance for ``P S_B[:, j]`` over ``max(1, ||S_B[:, j]||)``.  The forward
    test gives ``b_j = tol`` for each column of ``values_b``, and so for its
    conjugate, as the range is closed under conjugation; a constant column
    has ``b_j = ||(I - Pi_A) 1|| / sqrt m`` whatever p is.  The backward test
    bounds the second term, ``||(I - Pi_B) P^T Pi_A P||``, in the same way;
    R is the larger bound.  D keeps the scale of the points out of M.
    Float slacks of ``_FLOAT_SLACK`` per column cover rounding.  The span
    test's coefficients c' lie in the row space the pseudoinverse keeps, and
    ``||S c' - v||`` is at least the distance to the range however
    inaccurate c' is, so only the product's rounding, about
    ``k eps (sqrt(k) ||M||_F + 1) ||v||``, adds to ``b_j``: the slack times
    ``1 + ||M||_F``.  A computed projector is off by about ``eps s_1 / s_r``:
    the slack times that is added to R.  A singular value within rounding of
    the cutoff makes R infinite, as rounding then decides whether the span
    on one side keeps a direction that the other side cuts.

    Returns ``(bijection, tried)``: the lexicographically first passing
    bijection (``None`` when none passes) and its 1-based lexicographic rank,
    i.e. the number of bijections up to and including it in that order (m!
    when none passes).

    Raises:
        DimensionError: if the point counts differ.
        CapacityError: if m! has more decimal digits than Python converts
            (``sys.get_int_max_str_digits``), or past ``SEARCH_NODE_BUDGET``.
    """
    m = span_a.span.shape[0]
    if span_b.span.shape[0] != m:
        raise DimensionError("both point sets must have the same size")
    values_a = np.asarray(values_a).reshape(m, -1)
    values_b = np.asarray(values_b).reshape(m, -1)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits and math.factorial(m) >= 10**digits:
        raise CapacityError(f"{m}! has more than {digits} digits, past Python's int-to-text limit")
    for p in _survivors(*_pruning(span_a, span_b, tol)):
        if (span_a.fit(values_b[p], tol)[2].all()
                and span_b.fit(values_a[np.argsort(p)], tol)[2].all()):
            return p, _lex_rank(p)
    return None, math.factorial(m)


def gram_rank(vectors, tol: float = TOL_NUM) -> int:
    """Numerical rank of the span of the given vectors.

    Counts singular values of the stacked matrix exceeding ``tol`` times the
    largest one.

    Raises:
        DimensionError: if the singular values overflow (a norm past the
            float range), which would otherwise read as rank 0.
    """
    cols = [as_vector(v) for v in vectors]
    if not cols:
        raise DimensionError("need at least one vector")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise DimensionError("vectors must have equal lengths")
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    if not np.all(np.isfinite(s)):
        raise DimensionError("singular values overflow; the vectors are too large to rank")
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def kron(a, b) -> np.ndarray:
    """Tensor product with the standard block layout ``A_ij * B``."""
    return np.kron(as_matrix(a), as_matrix(b))


def vec(a) -> np.ndarray:
    """Row-major vectorization of a matrix, for span/rank tests."""
    return as_matrix(a).ravel()
