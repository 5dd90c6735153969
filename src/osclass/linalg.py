"""Deterministic dense complex linear algebra primitives.

Matrices are plain ``numpy`` arrays with ``complex128`` entries; every function
validates shape and finiteness before computing.  These routines are the
substrate for all higher modules: operator norms, spectra of normal matrices,
span membership, the exact bijection search, and numerical rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


#: Most multiply-adds per product in a batched :func:`span_membership`:
#: OpenBLAS hands a product past 2^16 of them to its thread pool, and on these
#: thin matrices the hand-off costs milliseconds and saves microseconds.
_SERIAL_PRODUCT = 1 << 16


def span_membership(v, basis, tol: float = TOL_NUM):
    """Least-squares span test: the one membership rule of the package.

    ``basis`` lists the spanning vectors (one per row).  The minimum-norm
    least-squares coefficients of a target are accepted when the residual
    satisfies ``||sum c_j b_j - v|| <= tol * max(1, ||v||)``.

    A single target vector gives its coefficients, or ``None`` when it misses
    the bound.  A 2-d ``v`` holds one target per column and gives the triple
    ``(coeffs, residuals, accepted)`` with one coefficient column, residual
    and verdict per target.  Many targets are taken in chunks of a power of
    two (at least 64) columns, of at most ``_SERIAL_PRODUCT`` multiply-adds
    per product where the basis allows; chunks that start at multiples of 64
    give BLAS's kernels the same column blocks, so every column has the bits
    of one product over all targets.
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
    pinv = np.linalg.pinv(mat, rcond=1e-13)
    if batched:
        n = target.shape[1]
        step = 1 << max(6, (_SERIAL_PRODUCT // mat.size).bit_length() - 1)
        cuts = list(range(step, n, step))
        if cuts and n - cuts[-1] == 1:
            cuts.pop()  # numpy multiplies a lone column as a vector, with other bits
        coeffs = np.empty((mat.shape[1], n), dtype=np.complex128)
        resid = np.empty(n)
        for part in map(slice, [0] + cuts, cuts + [n]):
            coeffs[:, part] = pinv @ target[:, part]
            resid[part] = np.linalg.norm(mat @ coeffs[:, part] - target[:, part], axis=0)
    else:
        coeffs = pinv @ target
        resid = np.linalg.norm(mat @ coeffs - target, axis=0)
    accepted = resid <= tol * np.maximum(1.0, np.linalg.norm(target, axis=0))
    if batched:
        return coeffs, resid, accepted
    return coeffs if accepted else None


#: Bijections, or frame assignments times predicted rows, per numpy block of
#: :func:`bijection_sweep`.
SWEEP_BLOCK = 4096

#: Below this many points :func:`bijection_sweep` tests all m! <= 120
#: bijections, which costs less than building a frame.
FRAME_MIN_POINTS = 6

#: Relative float slack added to the match radius of :func:`bijection_sweep`.
MATCH_SLACK = 1e-10


def _lex_arrangements(m: int, r: int, block: int):
    """All injective maps ``range(r) -> range(m)`` in lexicographic order, as int blocks."""
    perms_iter = itertools.permutations(range(m), r)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(perms_iter, block))
        perms = np.fromiter(flat, dtype=np.intp).reshape(-1, r)
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


def _frame(span: np.ndarray):
    """Frame rows F of the column space of ``span``, P = Q Q_F^-1 and ``||P||``.

    Q is an orthonormal basis of the space that :func:`span_membership`'s
    pseudoinverse projects onto (singular values above ``1e-13`` times the
    largest; half that cutoff here keeps every such direction whatever the
    rounding), so every function f of that space is ``P f[F]``, and
    ``||P|| = 1 / s_min(Q_F)``.  F is picked by a greedy row pivot of Q, the
    pivot order of a column-pivoted QR of Q*: each pick is the row farthest
    from the span of the rows picked before, which keeps Q_F well
    conditioned.  Any r independent rows would do, since the search radius
    uses the true ``s_min(Q_F)``.  Small sets, and spans of rank 0 or m, take
    every row as frame (P = I).
    """
    m = span.shape[0]
    if m >= FRAME_MIN_POINTS:
        u, s, _ = np.linalg.svd(span, full_matrices=False)
        r = int(np.sum(s > 0.5e-13 * s[0]))
        if 0 < r < m:
            q = u[:, :r]
            rest, picked = q.copy(), []
            left = (rest.real**2 + rest.imag**2).sum(axis=1)  # squared residual norms
            for _ in range(r):
                i = int(left.argmax())
                pivot = rest[i].conj() / np.sqrt(left[i])
                proj = rest @ pivot
                rest -= proj[:, None] * pivot.conj()
                left -= proj.real**2 + proj.imag**2
                left[i] = -np.inf
                picked.append(i)
            frame = np.sort(picked)
            s_min = np.linalg.svd(q[frame], compute_uv=False)[-1]
            return frame, q @ np.linalg.inv(q[frame]), 1.0 / s_min
    return np.arange(m), np.eye(m), 1.0


def _extend(frames: np.ndarray, frame: np.ndarray, rest: np.ndarray, ext: np.ndarray,
            values: np.ndarray, radius: float) -> np.ndarray:
    """The bijections p with ``p[frame]`` a row of ``frames`` and each other
    ``p[i]`` an unused row of ``values`` within ``radius`` of ``(ext values[p[frame]])_i``."""
    b, m = frames.shape[0], values.shape[0]
    pred = ext[rest] @ values[frames]  # (b, m - r, k)
    dist2 = np.zeros((b, rest.size, m))
    for c in range(values.shape[1]):
        dist2 += np.abs(pred[:, :, c, None] - values[:, c]) ** 2
    used = np.zeros((b, m), dtype=bool)
    used[np.arange(b)[:, None], frames] = True
    near = (dist2 <= radius * radius) & ~used[:, None, :]
    counts = near.sum(axis=2)
    single = (counts == 1).all(axis=1)
    out = np.empty((int(single.sum()), m), dtype=np.intp)
    out[:, frame] = frames[single]
    out[:, rest] = near[single].argmax(axis=2)
    found = [out[(np.sort(out, axis=1) == np.arange(m)).all(axis=1)]]
    # rows with several targets in reach: points closer than the radius
    for j in np.flatnonzero((counts > 0).all(axis=1) & ~single):
        for pick in itertools.product(*(np.flatnonzero(row) for row in near[j])):
            if len(set(pick)) == len(pick):
                p = np.empty(m, dtype=np.intp)
                p[frame], p[rest] = frames[j], pick
                found.append(p[None])
    return np.vstack(found)


def _lex_rank(p: list) -> int:
    """1-based position of the permutation ``p`` in lexicographic order."""
    rank, left = 0, sorted(p)
    for i, x in enumerate(p):
        rank += left.index(x) * math.factorial(len(p) - 1 - i)
        left.remove(x)
    return rank + 1


def _frame_candidates(span_a: np.ndarray, values_b: np.ndarray, tol: float):
    """Blocks of bijections p that hold every p with ``values_b[p]`` in the span.

    Frame and extend: the span on A has rank r, and r frame rows F fix each of
    its functions, ``f = P f[F]`` (:func:`_frame`).  Column c of
    ``values_b[p]`` lies within ``rho_c = tol * max(1, ||values_b[:, c]||)``
    of the span whatever p is, so for such a p row i of ``P values_b[p[F]]``
    lies within ``(1 + ||P||) ||rho||`` of ``values_b[p[i]]``.  The m!/(m-r)!
    injective assignments of the frame rows are walked in numpy blocks, and
    every other row takes the unused targets within that radius (plus a float
    slack).
    """
    m = span_a.shape[0]
    frame, ext, ext_norm = _frame(span_a)
    rest = np.delete(np.arange(m), frame)
    col_norms = np.linalg.norm(values_b, axis=0)
    rho = np.linalg.norm(tol * np.maximum(1.0, col_norms))
    radius = (1.0 + ext_norm) * (rho + MATCH_SLACK * max(1.0, col_norms.max()))
    for frames in _lex_arrangements(m, frame.size, max(1, SWEEP_BLOCK // max(1, rest.size))):
        yield _extend(frames, frame, rest, ext, values_b, radius) if rest.size else frames


def bijection_sweep(span_a, span_b, values_a, values_b,
                    tol: float = TOL_NUM) -> tuple[list | None, int]:
    """Exact search for a bijection carrying each function span onto the other.

    The m rows of every argument are the points of two m-point sets A and B;
    the columns of ``span_a``/``span_b`` span a space of functions on A/B.  A
    bijection p (point i of A to point ``p[i]`` of B) passes when every column
    of ``values_b[p]`` lies in the span on A and every column of
    ``values_a[p^-1]`` lies in the span on B, under :func:`span_membership`.
    Every passing bijection is among the frame-and-extend candidates of
    :func:`_frame_candidates`, which get the two-sided test; their number
    grows like m!/(m-r)! for a span of rank r, not like m!.

    Returns ``(bijection, tried)``: the lexicographically first passing
    bijection (``None`` when none passes) and its 1-based lexicographic rank,
    i.e. the number of bijections up to and including it in that order (m!
    when none passes).
    """
    span_a, span_b = np.asarray(span_a), np.asarray(span_b)
    values_a = np.asarray(values_a).reshape(span_a.shape[0], -1)
    values_b = np.asarray(values_b).reshape(span_b.shape[0], -1)
    m = span_a.shape[0]
    if span_b.shape[0] != m:
        raise DimensionError("both point sets must have the same size")
    passing = []
    for cands in _frame_candidates(span_a, values_b, tol):
        if cands.shape[0]:
            cands = cands[_transport_residuals(span_a, values_b, cands, tol)[1]]
        if cands.shape[0]:
            inverse = np.argsort(cands, axis=1)
            cands = cands[_transport_residuals(span_b, values_a, inverse, tol)[1]]
        passing += cands.tolist()
    if not passing:
        return None, math.factorial(m)
    first = min(passing)
    return first, _lex_rank(first)


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
