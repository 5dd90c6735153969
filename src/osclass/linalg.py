"""Deterministic dense complex linear algebra primitives.

Matrices are plain ``numpy`` arrays with ``complex128`` entries; every function
validates shape and finiteness before computing.  These routines are the
substrate for all higher modules: operator norms, spectra of normal matrices,
one span normalisation, membership test and rank rule, and bijection search.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
try:  # np.linalg.eigvalsh's own gufunc: see _top_eigenvalues
    from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo
except ImportError:  # a numpy that moved it: the public function calls the same gufunc
    _eigvalsh_lo = np.linalg.eigvalsh

from .errors import CapacityError, DimensionError, NotNormalError

#: The threshold of every dimension (:func:`numerical_rank` of an equilibrated
#: span) and the default of every ``tol`` a caller can set.
TOL_NUM = 1e-9

#: Entries in one block of numpy work, read by :func:`block_size` at each call.
BLOCK_ENTRIES = 1 << 16


def block_size(entries_per_item: int) -> int:
    """The items of ``entries_per_item`` entries that fill one block, and at least 1."""
    return max(1, BLOCK_ENTRIES // max(1, entries_per_item))


def first_violation(count: int, entries_per_item: int, violations) -> tuple | None:
    """The C-order first index of a True entry of the boolean arrays
    ``violations(lo, hi)`` of items lo..hi-1 along axis 0, scanned
    :func:`block_size` items at a time; None if there is none."""
    step = block_size(entries_per_item)
    for lo in range(0, count, step):
        bad = violations(lo, min(lo + step, count))
        if bad.any():
            first = np.unravel_index(np.argmax(bad), bad.shape)
            return (lo + int(first[0]), *map(int, first[1:]))
    return None


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


#: :func:`top_singular` reads a matrix off its Gram matrix when the Gram trace
#: ``||A||_F^2`` lies in ``[1 / GRAM_RANGE, GRAM_RANGE]``.
GRAM_RANGE = 1e250


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _gram(a: np.ndarray) -> np.ndarray:
    """``A* A`` of every matrix of a stack, quietly: a square that overflows
    or underflows shows on the diagonal, which :func:`top_singular` checks."""
    return a.conj().swapaxes(-1, -2) @ a


def _nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _top_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """The top eigenvalue of every matrix of a complex128 Hermitian stack.

    This is ``np.linalg.eigvalsh(gram)[..., -1]``: the same gufunc under the
    same error state (a matrix LAPACK cannot diagonalise raises
    ``LinAlgError``), without the wrapper's type and shape checks, which
    :func:`top_singular` has already made and which cost more than LAPACK
    on a few small matrices.
    """
    # the private gufunc stays for 3x3 and larger: on stacks of 2 matrices the
    # public wrapper takes 3.6 against 2.3 us for 3x3 and 5.9 against 4.7 us
    # for 6x6, of a whole top_singular call of 6.3 and 9 us (timeit, one BLAS
    # thread, numpy 2.4, 2-core AMD EPYC)
    return _eigvalsh_lo(gram)[..., -1]


def _top_eigenvalues_2x2(gram: np.ndarray) -> np.ndarray:
    """The top eigenvalue of every matrix ``[[p, q], [conj q, r]]`` of a 2x2
    Gram stack, in closed form (see :func:`top_singular`)."""
    p, r = gram[..., 0, 0].real, gram[..., 1, 1].real
    return (p + r) / 2 + np.hypot((p - r) / 2, np.abs(gram[..., 0, 1]))


def top_singular(stack) -> np.ndarray:
    """Largest singular value of every matrix of a (..., m, n) stack.

    For each matrix A it is the square root of the top eigenvalue of the
    Gram matrix ``A* A``.  For 3x3 and larger Gram matrices that eigenvalue
    comes from one stacked ``eigvalsh`` (its gufunc, called by
    :func:`_top_eigenvalues` without the wrapper): backward stable, so
    within a few eps of :func:`op_norm`.  A 2x2 stack, whose per-matrix
    LAPACK calls cost more than the arithmetic, reads it in closed form, as
    LAPACK's ``xLAEV2`` does: with ``A* A = [[p, q], [conj q, r]]`` it is
    ``(p + r)/2 + hypot((p - r)/2, |q|)``.  Nothing cancels: the value is
    a sum of two nonnegative terms and is at least max(p, r) and |q|, so
    every rounding, p - r's included, costs a few eps of it, and the
    discriminant is a sum of squares that ``hypot`` takes without overflow.
    The textbook ``(f + sqrt(f^2 - 4 |det A|^2)) / 2``, f = p + r, subtracts
    two near-equal numbers when the two singular values are close, and is
    off by 1e-9 to 1e-8 on near-unitary matrices.  A matrix whose Gram trace
    ``||A||_F^2`` is 0 or outside ``[1 / GRAM_RANGE, GRAM_RANGE]`` (squares
    that overflow, or that underflow by more than rounding) takes
    ``np.linalg.svd`` instead.  Each matrix is read contiguously and every
    product and both routes act on it alone, so it has the same value in any
    stack.

    Raises:
        DimensionError: on a non-finite entry or an empty matrix.
    """
    a = np.ascontiguousarray(stack, dtype=np.complex128)
    if a.ndim < 2 or 0 in a.shape[-2:]:
        raise DimensionError(f"expected a stack of nonempty matrices, got shape {a.shape}")
    return _top_singular(a)


def _top_singular(a: np.ndarray) -> np.ndarray:
    """:func:`top_singular` of a C-contiguous complex128 stack of nonempty
    matrices, which the caller guarantees; a non-finite entry still raises
    ``DimensionError``."""
    gram = _gram(a)
    top = _top_eigenvalues_2x2 if a.shape[-2:] == (2, 2) else _top_eigenvalues
    # a non-finite entry makes its diagonal inf or NaN, never finite; every
    # diagonal entry within [1 / GRAM_RANGE, GRAM_RANGE / n] puts every trace in range
    diag = gram.diagonal(0, -2, -1).real
    if (diag.min(initial=1.0 / GRAM_RANGE) >= 1.0 / GRAM_RANGE
            and diag.max(initial=0.0) <= GRAM_RANGE / diag.shape[-1]):
        return np.sqrt(top(gram))
    with np.errstate(over="ignore"):
        trace = diag.sum(-1)
    safe = (trace >= 1.0 / GRAM_RANGE) & (trace <= GRAM_RANGE)
    if not np.isfinite(a[~safe]).all():
        raise DimensionError("matrix has non-finite entries")
    out = np.empty(trace.shape)
    out[safe] = np.sqrt(top(gram[safe]))
    out[~safe] = np.linalg.svd(a[~safe], compute_uv=False)[..., 0]
    return out


#: Slope theta of the Hermitian pencil ``H + theta K`` of :func:`eig_normal`.
#: atan(theta) is no rational multiple of pi, so no two vertices of a regular
#: polygon with a vertex at 1 share a pencil value.
_PENCIL_THETA = (math.sqrt(5.0) - 1.0) / 2.0

#: Pencil eigenvalues within this many ``||a||`` of their neighbour, or within
#: 4 sqrt(defect) ``||a||`` if that is more, form one cluster in :func:`eig_normal`.
_CLUSTER_GAP = 1e-6

#: Relative slack, per squared dimension, of the norm bounds that let
#: :func:`eig_normal` skip its SVDs.
_NORM_SLACK = 1e-12


def eig_normal(a, tol: float = TOL_NUM) -> SpectralDecomposition:
    """Eigendecomposition of a normal matrix with an orthonormal eigenbasis.

    For a normal A, H = (A + A*)/2 and K = (A - A*)/2i commute and share A's
    eigenvectors, so ``eigh`` of the Hermitian pencil H + theta K (theta =
    ``_PENCIL_THETA``) finds them, showing each eigenvalue lam as
    Re lam + theta Im lam (Bunse-Gerstner, Byers & Mehrmann, SIAM J. Matrix
    Anal. Appl. 14, 1993).  Two steps repair what the pencil cannot see:

    - Clusters.  Distinct eigenvalues can land on one pencil value, and
      near-equal pencil values mix their eigenvectors.  A run of pencil
      eigenvalues each within the cut ``max(_CLUSTER_GAP ||a||, 4 sqrt(||C||))``
      of the next, C = A A* - A* A, that is ``max(_CLUSTER_GAP, 4
      sqrt(defect)) ||a||``, is a cluster, and its compressed block Q_c* A Q_c
      is diagonalised by its Schur vectors (``eig``'s eigenvectors,
      orthonormalised by QR in order).
    - Between clusters, rounding in ``eigh`` mixes two eigenvectors by about
      eps ||a|| / (pencil gap), which costs that times their eigenvalue
      distance in the residual.  With B = Q* A Q, the basis Q (I + X), X the
      skew-Hermitian part of ``B_ij / (B_jj - B_ii)`` over pairs in
      different clusters, removes that mix to first order.  Such a pair's
      pencil gap exceeds the cluster gap, so ``|B_jj - B_ii|`` exceeds it
      over ``|1 - i theta|``.

    The slope 4.  A matrix that is not normal mixes the pencil's
    eigenvectors too.  As C = -2i [H, K] and [H + theta K, K] = [H, K], in
    the pencil's eigenbasis (values w) ``(w_i - w_j) K_ij = [H, K]_ij`` and
    ``H_ij = -theta K_ij`` off the diagonal, so ``|B_ij| = |1 - i theta|
    |[H, K]_ij| / |w_i - w_j|``.  Across the cut, then, each column of B has
    squared norm at most ``(1 + theta^2) (||C|| / 2)^2 / (16 ||C||)``, below
    0.022 ``||C||``, and the first-order mix ``|X_ij|`` is at most ``(1 +
    theta^2) / 32 < 0.044``, well inside the range where first order holds.
    The squared norm is what an eigenvalue, a Rayleigh quotient ``B_ii``,
    loses in modulus to the other clusters: for a unitary up to t = ``||U*U
    - I||``, ``||C|| <= 2 t`` (see ``spectrum``), so ``|lam|^2`` moves by
    less than 0.05 t, against the 10 t that ``spectrum`` allows.  With the
    cut at ``_CLUSTER_GAP ||a||`` alone, two pencil values sqrt(``||C||``)
    apart mix to order 1, and their Rayleigh quotients leave the circle.

    The eigenvalues are the diagonal of B.  The residual ``||A Q - Q Lam||``
    is checked in the Frobenius norm, which bounds the operator norm, and a
    failure reports it over ``||a||``, a value that does not depend on the
    scale of ``a``.

    Prescale.  A is first multiplied by the power of two 2^-e that puts its
    largest real or imaginary part in [0.5, 1) (e clamped to [-1021, 1023],
    so that 2^-e and 2^e are floats), and the eigenvalues by 2^e at the end.
    No product then overflows or underflows for want of range, and as every
    step rounds alike at any power-of-two scale, each value below is that
    of the unscaled matrix times its power of 2^-e, and both reported
    defects are ratios of two values of the same power.

    Screened norms.  Every threshold reads ``||a||`` or the commutator norm
    as ``op_norm`` computes them, an SVD each, but most decisions follow
    from bounds on products formed anyway.  With n the dimension,
    M = fl(A* A) and C = fl(A A*) - M:

    - ``lo = sqrt(max_j M_jj) (1 - s)`` and ``hi = sqrt(max_i sum_j |M_ij|)
      (1 + s)``, s = ``_NORM_SLACK * n^2``, bracket the SVD's ``||A||``.
      ``M_jj`` is the squared norm of column j, a sum of 2n nonnegative
      rounded products, so it is within gamma_2n (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., Secs. 3.1 and 3.6) of a
      lower bound of ``||A||^2``.  ``||A||^2`` is the spectral radius of the
      exact A* A, at most its largest absolute row sum, and each entry of M
      misses that product by at most sqrt(2) gamma_(n+2) times ``(|A|^T
      |A|)_ij <= ||A||^2`` (Cauchy-Schwarz), so the row sums of M miss by n
      times that, about 1.5 n^2 u of ``||A||^2``.  The SVD's value is exact
      for A + E, ``||E|| <= p(n) u ||A||`` (LAPACK Users' Guide, Sec. 4.9),
      with p modest; s = 1e-12 n^2, about 4500 n^2 u, covers both with room
      for the roundings of the square roots and of the screens' products.
    - ``||C||`` is at most its Frobenius norm, computed within n^2 u, and at
      least that over sqrt(n), so ``||C||_F (1 - s) / sqrt(n)`` and
      ``||C||_F (1 + s)`` bracket the SVD's value of it.

    The decisions, each reading the screen first and ``op_norm`` (at most
    once per norm) only when the screen leaves it open or an error reports
    the value:

    - normality passes when ``||C||_F (1 + s) <= tol lo^2``, since rounding
      is monotone and the defect is at most that over ``lo^2``;
    - a pencil gap above the cut of the upper bounds separates clusters and
      one at most the cut of the lower bounds does not, as the rounded cut
      is monotone in both norms; only a gap between the two takes a norm,
      ``||A||`` first and then ``||C||`` if one still falls between;
    - the residual passes when it is at most ``tol lo 10``, as
      ``max(tol, sqrt(defect)) >= tol``.

    After the prescale every entry of M and C is at most 4n in modulus, so
    every bound is finite, and s < 1 below n = 10^6.  So every verdict,
    eigenvalue, eigenvector and ``NotNormalError`` value is the one the two
    SVDs would give, and a unitary takes no SVD.

    Raises:
        DimensionError: if ``a`` is not square.
        NotNormalError: if ``a a* - a* a`` exceeds ``tol * ||a||^2``, or if the
            residual exceeds ``max(tol, sqrt(defect)) * ||a|| * 10``; the
            error names the test, its ``defect`` is
            ``||a a* - a* a|| / ||a||^2`` or the residual over ``||a||``, and
            its ``bound`` is ``tol`` or ``max(tol, sqrt(defect)) * 10``.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if m.shape[1] != n:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    peak = max(np.abs(m.real).max(), np.abs(m.imag).max())
    if peak == 0.0:
        return SpectralDecomposition(np.zeros(n, dtype=np.complex128), np.eye(n, dtype=np.complex128))
    e = min(max(math.frexp(peak)[1], -1021), 1023)
    m = m * 2.0**-e
    mhm = m.conj().T @ m
    comm = m @ m.conj().T - mhm
    slack = _NORM_SLACK * n * n
    lo = math.sqrt(mhm.diagonal().real.max()) * (1.0 - slack)
    hi = math.sqrt(np.abs(mhm).sum(axis=1).max()) * (1.0 + slack)
    frob = np.linalg.norm(comm)
    nrm = cnorm = None  # ||A|| and ||C|| as op_norm computes them, once taken
    if not frob * (1.0 + slack) <= tol * lo * lo:
        nrm, cnorm = op_norm(m), op_norm(comm)
        if cnorm / nrm**2 > tol:
            raise NotNormalError("commutator defect", cnorm / nrm**2, tol)
    half = m * (0.5 - 0.5j * _PENCIL_THETA)
    w, q = np.linalg.eigh(half + half.conj().T)  # H + theta K
    gaps = np.diff(w)

    def cut(a: float, c: float) -> float:
        """The cut between clusters, at bounds a and c of the norms not yet taken."""
        return max(_CLUSTER_GAP * (a if nrm is None else nrm),
                   4.0 * math.sqrt(c if cnorm is None else cnorm))

    c_lo, c_hi = frob * (1.0 - slack) / math.sqrt(n), frob * (1.0 + slack)
    while ((gaps > cut(lo, c_lo)) & (gaps <= cut(hi, c_hi))).any():
        if nrm is None:
            nrm = op_norm(m)
        else:
            cnorm = op_norm(comm)
    label = np.r_[0, np.cumsum(gaps > cut(hi, c_hi))]
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
    if not resid <= tol * lo * 10:
        nrm = op_norm(m) if nrm is None else nrm
        defect = (op_norm(comm) if cnorm is None else cnorm) / nrm**2
        limit = max(tol, np.sqrt(defect))
        if resid > limit * nrm * 10:
            raise NotNormalError("eigenbasis residual", resid / nrm, limit * 10)
    return SpectralDecomposition(lam * 2.0**e, q)


_CUTOFF = 1e-13  # singular values of the equilibrated span up to this times the largest are cut
_FLOAT_SLACK = 1e-14  # rounding slack of the pruning radius and of its cutoff test


#: Plain column norms below this lose bits to underflowing squares.
_NORMAL_NORM = math.sqrt(np.finfo(float).tiny)

#: Exact lift of such a column: its nonzero entries, 5e-324 to 1.5e-154, move
#: to 2e-143 to 6e26, so its max-abs entry and that entry's reciprocal are normal.
_LIFT = 2.0 ** 600


def _column_norms(mat: np.ndarray) -> np.ndarray:
    """Column norms of ``mat``, the one finiteness check of spans and targets:
    a nonzero column whose squares overflow or underflow (plain norm inf or
    below ``_NORMAL_NORM``) is measured again at a max-abs entry of 1 (other
    columns keep the plain norm's bits), and a non-finite entry or a true
    norm past the float range raises ``DimensionError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(mat, axis=0)
        if not (math.isfinite(norms.sum()) and norms.min() >= _NORMAL_NORM):
            odd = np.flatnonzero(np.isinf(norms) | (norms < _NORMAL_NORM))
            odd = odd[mat[:, odd].any(axis=0)]  # a zero column keeps 0
            lift = np.where(norms[odd] < 1.0, _LIFT, 1.0)
            cols = mat[:, odd] * lift
            peak = np.abs(cols).max(axis=0)
            norms[odd] = peak * np.linalg.norm(cols / peak, axis=0) / lift
            if not np.isfinite(norms).all():
                raise DimensionError("non-finite entries or an overflowing column norm")
    return norms


def equilibrate(span) -> tuple[np.ndarray, np.ndarray]:
    """``(span D^-1, D)``, D the column norms (1 for a zero column): the one
    normalisation of a span in the package, within sqrt(k) of the best
    diagonal scaling (van der Sluis, Numer. Math. 14, 1969; Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., Sec. 7.3).  A nonzero
    column norm below the normal range, whose reciprocal overflows, raises
    ``DimensionError``."""
    mat = np.asarray(span, dtype=np.complex128)
    if mat.ndim != 2 or mat.size == 0:
        raise DimensionError("a span must be a nonempty 2-d array")
    scale = _column_norms(mat)
    scale[scale == 0.0] = 1.0
    if scale.min() < np.finfo(float).tiny:
        raise DimensionError("a column norm below the normal float range")
    return mat / scale, scale


def numerical_rank(s: np.ndarray, tol: float) -> int:
    """The one rank rule: singular values ``s`` (largest first) above ``tol`` times the largest."""
    return int(np.count_nonzero(s > tol * s[0]))


class FactoredSpan:
    """A span of functions (one column each, one row per point), factored once.

    The one SVD is of the equilibrated span ``Z = span D^-1 = U S V*``.  Its r
    values above ``_CUTOFF`` times the largest are kept: ``U_r`` spans the
    range that :meth:`fit` tests and :func:`bijection_sweep` prunes on.
    """

    def __init__(self, span):
        mat = np.asarray(span, dtype=np.complex128)
        unit, scale = equilibrate(mat)
        u, s, vh = np.linalg.svd(unit, full_matrices=False)
        self.rank = r = numerical_rank(s, _CUTOFF)
        self.span, self._scale, self._s, self._basis = mat, scale, s, u[:, :r]
        self._coef = vh[:r].conj().T / s[:r] / scale[:, None]  # D^-1 V_r S_r^-1

    @property
    def dim(self) -> int:
        """The span's dimension: :func:`numerical_rank` at ``TOL_NUM``."""
        return numerical_rank(self._s, TOL_NUM)

    @cached_property
    def projector(self) -> np.ndarray:
        """The orthogonal projector ``U_r U_r*`` onto the range :meth:`fit` tests."""
        return self._basis @ self._basis.conj().T

    def fit(self, v, tol: float = TOL_NUM):
        """The span test, the one membership rule of the package: a target
        passes if ``||v - U_r U_r* v|| <= tol * max(1, ||v||)``, a residual
        rounded by about eps ``||v||`` however the span is conditioned.  Gives
        ``(coeffs, residuals, accepted)``, one entry per column of a 2-d ``v``
        (any other ``v`` is one column); the coefficients
        ``D^-1 V_r S_r^-1 U_r* v`` are the certificate only.  All targets go
        through one product, so every column has the bits of that product."""
        target = np.asarray(v, dtype=np.complex128)
        if target.ndim != 2:
            target = target.reshape(-1, 1)  # numpy multiplies a lone column as a vector
        basis = self._basis
        if self.span.shape[0] != target.shape[0]:
            raise DimensionError("basis vectors must match the length of v")
        size = _column_norms(target)
        inner = basis.conj().T @ target
        resid = _column_norms(target - basis @ inner)
        return self._coef @ inner, resid, resid <= tol * np.maximum(1.0, size)


#: A replayed certificate value passes within this of the magnitude of the
#: terms that form the value it replays (:func:`_replay_check`).
REPLAY_BOUND = 1e-7


def _replay_check(name: str, predicted, expected, span: FactoredSpan | None = None) -> dict:
    """The one pass rule of a replayed certificate value: the absolute residual
    ``max|predicted - expected|`` is at most ``REPLAY_BOUND`` times the size of
    the terms that form ``expected``, and that size is finite.

    - When ``predicted`` is a certificate's combination of the columns b_i of
      ``span`` (one output per column of ``expected``), the size is
      sum_i |f_i| max|b_i| for the checker's own fit f of ``expected``
      (:meth:`FactoredSpan.fit`), the largest over output columns: the
      componentwise backward-error scale (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., Ch. 3), which cancellation does not
      shrink.  It comes from the fit, not from the certificate, so no
      certificate widens its own bound (a large multiple of a near-null
      combination of the span would).  A value the span test rejects at
      ``REPLAY_BOUND``, or one that is not finite, has no fit and fails.
    - ``predicted`` None, with a span, checks that ``expected`` lies in the
      span: the combination is the one of that same fit f (whose coefficients
      do not depend on the test's tolerance), and a non-finite ``expected``
      has a nan residual.
    - Any other value takes max(1, max|expected|).
    """
    if span is None:
        scale, inside = max(1.0, float(np.max(np.abs(expected)))), True
    elif np.isfinite(expected).all():
        fit, _, accepted = span.fit(expected, REPLAY_BOUND)
        scale, inside = float((np.abs(span.span).max(axis=0) @ np.abs(fit)).max()), accepted.all()
        if predicted is None:
            predicted = np.reshape(span.span @ fit, np.shape(expected))
    else:
        scale, inside = math.inf, False
    with np.errstate(invalid="ignore"):  # inf - inf, or no fit to combine, is a nan residual
        resid = float(np.max(np.abs((np.nan if predicted is None else predicted) - expected)))
    return {"check": name, "residual": resid,
            "pass": bool(inside) and math.isfinite(scale) and resid <= REPLAY_BOUND * scale}


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
    m = span_a.span.shape[0]
    slack = _FLOAT_SLACK * m * (span_a.span.shape[1] + span_b.span.shape[1])
    reach, near = [], False
    for this, other in ((span_a, span_b), (span_b, span_a)):
        sv, r = this._s, this.rank
        wobble = (3.0 * slack * sv[0] + (sv[r] if r < sv.size else 0.0)) / sv[r - 1]
        miss = np.linalg.norm(1.0 - this.projector.sum(axis=1)) / max(1.0, math.sqrt(m))
        constant = (other.span == other.span[:1]).all(axis=0)
        weights = np.linalg.norm(other._coef, axis=1) * np.maximum(1.0, other._scale)
        reach.append(weights @ (np.where(constant, miss, tol) + slack * (1.0 + other._s[0]) + wobble))
        near |= bool((abs(sv - _CUTOFF * sv[0]) < _FLOAT_SLACK * sv[0]).any())  # rounding cuts or not
    return span_a.projector, span_b.projector, math.inf if near else max(reach) + 2.0 * slack


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
    Each span must hold the constants, and its columns must be distinct
    columns of ``X = [1, values, conj values]`` on its side, closed under
    conjugation unless all are among the values; the exact routes call it so.

    The search.  With P the permutation matrix of p, ``(P f)_i = f[p[i]]``,
    and Pi_A, Pi_B the projectors onto the ranges the span tests read (see
    below), a lexicographic depth-first search over ``p[0], p[1], ...``
    drops a partial map as soon as some ``|Pi_A[i, k] - Pi_B[p[i], p[k]]|``
    (the diagonal included) exceeds the radius R below (:func:`_survivors`),
    and gives each complete map the two-sided span test.  Every passing
    bijection survives the pruning, so the first complete map that passes is
    the lexicographically first passing bijection of all m!.  This is an
    isomorphism search of two weighted complete graphs (McKay & Piperno,
    J. Symbolic Comput. 60, 2014).

    The radius.  On each side ``Z = span D^-1 = U S V*`` is the equilibrated
    span (column norms ``d_j``, r values kept, ``N = V_r S_r^-1``).  The SVD
    is backward stable: U, V lie within rounding of unitary U', V' with
    ``U' S V'* = Z + E`` (Higham, Ch. 19; see :class:`FactoredSpan`).  Pi_A and Pi_B project
    onto the ranges of the ``U'_r``, the ranges that the test and the
    computed projector use, so no step needs the two ranks to agree.  To
    first order each rounding error below is a few u = 2^-53 times m k, less
    than ``sigma = _FLOAT_SLACK * m * (k_A + k_B)``: the test's over ``||v||``,
    ``||E|| / s_1``, and a computed projector's, in norm and per entry.

    Take a passing p.  Each entry of ``Pi_A - P Pi_B P^T`` is at most its
    norm, the larger of ``||(I - Pi_A) P Pi_B P^T||`` and its mirror
    ``||(I - Pi_B) P^T Pi_A P||``.  A unit vector of the range of Pi_B is
    ``(Z_B + E_B) V'_r S_r^-1 a``, so under P it lies at most
    ``sum_j ||N_B[j]|| (beta_j + sigma s_1^B)`` from the range of Pi_A, with
    ``beta_j`` that distance for ``P Z_B[:, j]``: by the forward test
    ``tol max(1, d_j) / d_j + sigma`` for a column of ``values_b``, and for
    the constant ``||(I - Pi_A) 1|| / sqrt m``, read off the computed
    projector within sigma.  A conjugate column adds to its column's bound
    ``wobble_A = (3 sigma s_1 + s_(r+1)) / s_r`` (side A's values,
    ``s_(r+1)`` the largest cut one or 0): as the columns of ``Z_A`` are
    closed under conjugation up to rounding, ``g = (Z_A + E_A) y`` in the
    range of Pi_A, ``||y|| <= ||g|| / s_r``, has ``conj g`` within
    ``wobble_A ||g||`` of it.  So with ``w_j = ||N_B[j]|| max(1, d_j) / d_j``
    the first term is at most ``sum_j w_j (b_j + sigma (1 + s_1^B) +
    wobble_A)``, ``b_j`` being tol or the constant's distance; the backward
    test bounds the mirror alike.  R is the larger plus 2 sigma for the
    projector entries, and no term grows with the scale of the points.  A
    singular value within rounding of the cutoff makes R infinite all the
    same, so a rank that is rounding's choice is never pruned on.

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
    # log m! screens out the 10**digits comparison, a 4300-digit integer by default
    if digits and math.lgamma(m + 1) > (digits - 1) * math.log(10) and math.factorial(m) >= 10**digits:
        raise CapacityError(f"{m}! has more than {digits} digits, past Python's int-to-text limit")
    for p in _survivors(*_pruning(span_a, span_b, tol)):
        if (span_a.fit(values_b[p], tol)[2].all()
                and span_b.fit(values_a[np.argsort(p)], tol)[2].all()):
            return p, _lex_rank(p)
    return None, math.factorial(m)


def gram_rank(vectors) -> int:
    """Numerical rank of the span of the given vectors (of equal lengths): the
    :func:`numerical_rank` at ``TOL_NUM`` of their equilibrated span, so no
    vector's scale decides the count."""
    cols = [np.ravel(v) for v in vectors]
    if not cols or any(c.size != cols[0].size for c in cols):
        raise DimensionError("need one or more vectors of equal lengths")
    return numerical_rank(np.linalg.svd(equilibrate(np.column_stack(cols))[0], compute_uv=False),
                          TOL_NUM)


def vec(a) -> np.ndarray:
    """Row-major vectorization of a matrix, for span/rank tests."""
    return as_matrix(a).ravel()
