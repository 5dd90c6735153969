import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from osclass import linalg
from osclass.errors import DimensionError, NotNormalError
from osclass.linalg import FactoredSpan, eig_normal, gram_rank, op_norm, top_singular, vec


def power_iteration_norm(a, iters=500, seed=0):
    """Independent operator-norm oracle: power iteration on a*a."""
    rng = np.random.default_rng(seed)
    m = np.asarray(a, dtype=np.complex128)
    g = m.conj().T @ m
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


class TestOpNorm:
    def test_matches_power_iteration_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for k in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert op_norm(a) == pytest.approx(power_iteration_norm(a, seed=k), abs=1e-8)

    def test_known_values(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0)
        assert op_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)
        # rank-one uv*: norm is |u| |v|
        u = np.array([1.0, 2.0])
        v = np.array([3.0, 4.0])
        assert op_norm(np.outer(u, v)) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            op_norm([[np.inf, 0], [0, 0]])
        with pytest.raises(DimensionError):
            op_norm([[complex(0, np.nan), 0], [0, 0]])


def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def with_singular_values(rng, shape, values):
    """A random matrix of the given shape whose nonzero singular values are ``values``."""
    u = np.linalg.qr(cnormal(rng, shape[0], shape[0]))[0][:, :len(values)]
    v = np.linalg.qr(cnormal(rng, shape[1], shape[1]))[0][:, :len(values)]
    return (u * values) @ v.conj().T


KERNEL_SHAPES = ((1, 1), (2, 2), (3, 3), (6, 6), (9, 9), (2, 5), (5, 3))
#: Whole stacks at these scales; from about 1e154 up, the squares of the entries overflow.
KERNEL_SCALES = (1e-320, 1e-300, 1e-250, 1e-160, 1e-125, 1e125, 1e154, 1e160, 1e250, 1e308)


def kernel_stacks():
    """Seeded stacks of 1 to 9 matrices: generic, zero, rank one, a repeated
    top singular value, rows scaled by 1e-250, and whole stacks at
    ``KERNEL_SCALES``."""
    rng = np.random.default_rng(2024)
    for size in range(1, 10):
        for shape in KERNEL_SHAPES:
            r = min(shape)
            generic = cnormal(rng, size, *shape)
            rows = generic.copy()
            rows[:, 1:] *= 1e-250
            yield generic
            yield np.zeros((size, *shape), dtype=complex)
            yield cnormal(rng, size, shape[0], 1) @ cnormal(rng, size, 1, shape[1])
            yield np.array([with_singular_values(rng, shape, [2.5] * min(2, r) + [1.0] * (r - 2))
                            for _ in range(size)])
            yield rows
            # entries in the unit disc over max(shape), so every norm is below the scale
            unit_disc = rng.uniform(-0.7, 0.7, (2, size, *shape)) / max(shape)
            for scale in KERNEL_SCALES:
                yield (unit_disc[0] + 1j * unit_disc[1]) * scale
            # every kind in one stack
            yield np.concatenate([generic[:1], np.zeros((1, *shape)), rows[:1],
                                  unit_disc[0, :1] * 1e308, unit_disc[1, :1] * 1e-320])


class TestTopSingular:
    def test_agrees_with_the_svd(self):
        for stack in kernel_stacks():
            got = top_singular(stack)
            want = np.linalg.svd(stack, compute_uv=False)[..., 0]
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 4e-15 * want), (stack.shape, got, want)

    def test_a_matrix_has_one_value_in_any_stack(self):
        rng = np.random.default_rng(7)
        for stack in kernel_stacks():
            got = top_singular(stack)
            assert np.array_equal(top_singular(stack[::-1]), got[::-1])
            perm = rng.permutation(len(stack))
            assert np.array_equal(top_singular(stack[perm]), got[perm])
            for i, a in enumerate(stack):
                assert top_singular(a[None])[0] == got[i]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, np.inf)])
    def test_rejects_non_finite(self, bad):
        for shape in ((3, 3), (2, 2)):  # the eigvalsh route and the closed-form 2x2 one
            stack = cnormal(np.random.default_rng(3), 4, *shape)
            stack[2, 1, 0] = bad
            with pytest.raises(DimensionError, match="non-finite"):
                top_singular(stack)
            with pytest.raises(DimensionError, match="non-finite"):
                top_singular(stack[2:3])

    def test_2x2_near_equal_singular_values_match_the_svd(self):
        # f^2 - 4|det A|^2 cancels when the two singular values are close;
        # the Gram-entry form's discriminant is a sum of squares and does not
        rng = np.random.default_rng(29)
        stacks = [np.array([with_singular_values(rng, (2, 2), [s, s * (1 - gap)])
                            for s in (1e-120, 1e-3, 1.0, 7.5, 1e120)])
                  for gap in (1e-7, 1e-12)]
        near_unitary = np.linalg.qr(cnormal(rng, 64, 2, 2))[0]
        stacks += [near_unitary, near_unitary + 1e-9 * cnormal(rng, 64, 2, 2)]
        textbook_error = 0.0
        for stack in stacks:
            got = top_singular(stack)
            want = np.linalg.svd(stack, compute_uv=False)[..., 0]
            assert np.all(np.abs(got - want) <= 4e-15 * want), (got, want)
            peak = np.abs(stack).max(axis=(1, 2))  # scaled first, as f^2 overflows
            unit = stack / peak[:, None, None]
            f = (np.abs(unit) ** 2).sum(axis=(1, 2))
            det = np.abs(np.linalg.det(unit)) ** 2
            textbook = peak * np.sqrt((f + np.sqrt(np.maximum(f * f - 4 * det, 0.0))) / 2)
            textbook_error = max(textbook_error, (np.abs(textbook - want) / want).max())
        assert textbook_error > 4e-15  # the panel tells the two forms apart

    def test_2x2_stacks_skip_lapack_unless_out_of_range(self, monkeypatch):
        svd = np.linalg.svd
        calls = []

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a 2x2 stack")

        def counted_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "_eigvalsh_lo", refuse)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        stack = cnormal(np.random.default_rng(31), 40, 2, 2)
        got = top_singular(stack)
        assert calls == []
        assert np.all(np.abs(got - svd(stack, compute_uv=False)[:, 0]) <= 4e-15 * got)
        stack[5] *= 1e300  # its Gram trace leaves GRAM_RANGE: the SVD reads it
        got = top_singular(stack)
        assert calls == [(1, 2, 2)]
        assert np.all(np.abs(got - svd(stack, compute_uv=False)[:, 0]) <= 4e-15 * got)

    def test_rejects_empty_matrices(self):
        for shape in ((3,), (2, 0, 3), (2, 3, 0)):
            with pytest.raises(DimensionError):
                top_singular(np.zeros(shape))

    def test_top_eigenvalues_are_those_of_eigvalsh(self):
        # the kernel calls eigvalsh's gufunc directly; it must give the
        # public function's values, bit for bit, on every stack it gets
        for stack in kernel_stacks():
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                gram = stack.conj().swapaxes(-1, -2) @ stack
            gram = gram[np.isfinite(gram).all(axis=(1, 2))]
            want = np.linalg.eigvalsh(gram)[..., -1]
            assert np.array_equal(linalg._top_eigenvalues(gram), want)
            assert np.array_equal(linalg._top_eigenvalues(gram[:0]), want[:0])

    def test_import_falls_back_to_the_public_eigvalsh(self):
        # a numpy without the private gufunc still imports the package, and
        # the public function it falls back to gives the same bits
        script = textwrap.dedent("""
            import sys, types
            import numpy as np
            import numpy.linalg._umath_linalg as private
            hidden = types.ModuleType(private.__name__)
            vars(hidden).update((k, v) for k, v in vars(private).items() if k != "eigvalsh_lo")
            sys.modules[private.__name__] = hidden
            import osclass
            from osclass import linalg
            assert linalg._eigvalsh_lo is np.linalg.eigvalsh
            rng = np.random.default_rng(17)
            stack = rng.standard_normal((40, 3, 4)) + 1j * rng.standard_normal((40, 3, 4))
            print(linalg.top_singular(stack).tobytes().hex())
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        rng = np.random.default_rng(17)
        stack = rng.standard_normal((40, 3, 4)) + 1j * rng.standard_normal((40, 3, 4))
        assert linalg._eigvalsh_lo is not np.linalg.eigvalsh
        assert proc.stdout.strip() == top_singular(stack).tobytes().hex()


class TestEigNormal:
    def test_reconstructs_hermitian(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = a + a.conj().T
        dec = eig_normal(h)
        assert np.allclose(dec.reconstruct(), h, atol=1e-10)
        assert np.max(np.abs(dec.eigenvalues.imag)) < 1e-10
        q = dec.eigenvectors
        assert np.allclose(q.conj().T @ q, np.eye(5), atol=1e-10)

    def test_unitary_eigenvalues_on_circle(self):
        u = np.diag(np.exp(1j * np.array([0.1, 1.2, 3.0])))
        dec = eig_normal(u)
        assert np.allclose(np.abs(dec.eigenvalues), 1.0, atol=1e-12)

    def test_rejects_non_normal(self):
        for a in ([[0, 1], [0, 0]], [[1, 1e-3], [0, 1j]],
                  np.diag(np.exp(1j * np.arange(5))) + np.diag([1e-4] * 4, 1)):
            with pytest.raises(NotNormalError, match="commutator defect .* exceeds bound"):
                eig_normal(a)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            eig_normal(np.ones((2, 3)))

    def test_zero_matrix(self):
        for n in (1, 3):
            dec = eig_normal(np.zeros((n, n)))
            assert np.array_equal(dec.eigenvalues, np.zeros(n))
            assert np.array_equal(dec.eigenvectors, np.eye(n))


# --- eig_normal against complex Schur ----------------------------------------

def haar(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def framed(rng, eigenvalues):
    """A normal matrix with the given eigenvalues in a Haar-random eigenbasis."""
    v = haar(rng, len(eigenvalues))
    return (v * np.asarray(eigenvalues, dtype=np.complex128)) @ v.conj().T


def pencil_collision(theta, lam, step):
    """``lam + step (i - theta)``: the same value of Re + theta Im as ``lam``."""
    return lam + step * (1j - theta)


def normal_panel():
    rng = np.random.default_rng(41)
    for m in list(range(1, 41)) + [50, 64, 80, 100, 120, 150, 200]:
        yield f"haar-m{m}", haar(rng, m)
    circle = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    yield "multiplicity-circle", framed(rng, np.repeat(circle, [3, 1, 2, 4]))
    yield "multiplicity-scalar", framed(rng, np.full(6, np.exp(0.7j)))
    plane = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    yield "multiplicity-plane", framed(rng, np.repeat(plane, [2, 5, 1]))
    for psi in (0.0, 0.4, np.pi / 2, np.arctan2(1.0, -linalg._PENCIL_THETA)):
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        lam[1] = lam[0] + 1e-9 * np.exp(1j * psi)
        lam[3] = lam[2] + 1e-9 * np.exp(1j * (psi + 1.0))
        yield f"near-pair-psi{psi:.2f}", framed(rng, lam)
    for m in (3, 4, 5, 6, 8, 12, 24):
        poly = np.exp(2j * np.pi * np.arange(m) / m)
        yield f"polygon-m{m}", framed(rng, poly)
        yield f"polygon-m{m}-diag", np.diag(poly * np.exp(0.3j))
    for m in (1, 2, 7, 30):
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        yield f"hermitian-m{m}", h + h.conj().T
        yield f"skew-hermitian-m{m}", 1j * (h + h.conj().T)
        yield f"normal-m{m}", framed(rng, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    theta = linalg._PENCIL_THETA
    # two points of the circle mirrored in the pencil's direction
    phi, beta = np.arctan(theta), 0.9
    lam = np.exp(1j * np.r_[phi + beta, phi - beta, rng.uniform(0, 2 * np.pi, 5)])
    yield "collision-circle", framed(rng, lam)
    lam = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lam[1] = pencil_collision(theta, lam[0], 0.8)
    lam[2] = pencil_collision(theta, lam[0], -1.3)
    yield "collision-plane", framed(rng, lam)
    yield "collision-diag", np.diag([1.0 + 0j, pencil_collision(theta, 1.0, 2.0), 0.5j])


NORMAL_PANEL = list(normal_panel())


def decomposition_errors(a, eigenvalues, q):
    m = a.shape[0]
    rec = np.linalg.norm(a - (q * eigenvalues) @ q.conj().T, 2) / np.linalg.norm(a, 2)
    orth = np.linalg.norm(q.conj().T @ q - np.eye(m), 2)
    return rec, orth


@pytest.mark.parametrize("name,a", NORMAL_PANEL, ids=[c[0] for c in NORMAL_PANEL])
def test_eig_normal_is_as_accurate_as_schur(name, a):
    dec = eig_normal(a)
    t, z = scipy.linalg.schur(a, output="complex")
    rec, orth = decomposition_errors(a, dec.eigenvalues, dec.eigenvectors)
    ref_rec, ref_orth = decomposition_errors(a, np.diag(t), z)
    eps = np.finfo(float).eps  # Schur is exact on a diagonal input
    assert rec <= 10 * max(ref_rec, eps), (rec, ref_rec)
    assert orth <= 10 * max(ref_orth, eps), (orth, ref_orth)
    # the same eigenvalues, to the Hausdorff distance
    dist = np.abs(dec.eigenvalues[:, None] - np.diag(t))
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-12 * np.linalg.norm(a, 2)


def test_pencil_collision_lands_on_one_pencil_value():
    theta = linalg._PENCIL_THETA
    lam1, lam2 = 1.0 + 0j, pencil_collision(theta, 1.0, 2.0)
    pencil = [z.real + theta * z.imag for z in (lam1, lam2)]
    assert abs(lam1 - lam2) > 1 and pencil[0] == pytest.approx(pencil[1], abs=1e-15)


# --- eig_normal against its unscreened version --------------------------------

def reference_eig_normal(a, tol=linalg.TOL_NUM):
    """``eig_normal`` as it was before its norm screens and prescale: both
    norms from ``op_norm`` up front, on the unscaled matrix."""
    m = linalg.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    nrm = op_norm(m)
    if nrm == 0.0:
        n = m.shape[0]
        return linalg.SpectralDecomposition(np.zeros(n, dtype=np.complex128),
                                            np.eye(n, dtype=np.complex128))
    cnorm = op_norm(m @ m.conj().T - m.conj().T @ m)
    defect = cnorm / nrm**2
    if defect > tol:
        raise NotNormalError("commutator defect", defect, tol)
    half = m * (0.5 - 0.5j * linalg._PENCIL_THETA)
    w, q = np.linalg.eigh(half + half.conj().T)  # H + theta K
    cut = max(linalg._CLUSTER_GAP * nrm, 4.0 * np.sqrt(cnorm))
    label = np.r_[0, np.cumsum(np.diff(w) > cut)]
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
    limit = max(tol, np.sqrt(defect))
    if resid > limit * nrm * 10:
        raise NotNormalError("eigenbasis residual", resid / nrm, limit * 10)
    return linalg.SpectralDecomposition(lam, q)


def screen_panel():
    """Unitaries (some with a repeated eigenvalue, regular polygons jittered by
    1e-10), scaled unitaries, Hermitian, normal, near-normal and generic
    matrices, at sizes 1 to 80."""
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        for m in list(range(1, 13)) + [16, 20, 30, 40, 60, 80]:
            u = haar(rng, m)
            h = cnormal(rng, m, m)
            angles = rng.uniform(0, 2 * np.pi, m)
            angles[:m // 2] = angles[0]
            poly = np.exp(2j * np.pi * np.arange(m) / m + 1e-10j * rng.standard_normal(m))
            yield f"haar-m{m}-s{seed}", u
            yield f"scaled-haar-m{m}-s{seed}", u * 10.0 ** rng.uniform(-30, 30)
            yield f"repeated-m{m}-s{seed}", framed(rng, np.exp(1j * angles))
            yield f"polygon-m{m}-s{seed}", framed(rng, poly)
            yield f"hermitian-m{m}-s{seed}", h + h.conj().T
            yield f"normal-m{m}-s{seed}", framed(rng, cnormal(rng, m)) * 10.0 ** rng.uniform(-9, 9)
            yield f"near-normal-m{m}-s{seed}", u + 10.0 ** rng.uniform(-12, -3) * h
            yield f"generic-m{m}-s{seed}", h


def outcome(fn, a, tol):
    """Eigenvalues and eigenvectors, or the exception's type, defect and message."""
    try:
        dec = fn(a, tol=tol)
    except NotNormalError as exc:
        return type(exc), exc.defect, str(exc)
    return "ok", dec.eigenvalues, dec.eigenvectors


def test_screened_eig_normal_has_the_bits_of_the_reference():
    cases = errors = 0
    for name, a in screen_panel():
        for tol in (1e-12, 1e-9, 1e-6):
            got, want = outcome(eig_normal, a, tol), outcome(reference_eig_normal, a, tol)
            assert got[0] == want[0], (name, tol)
            if want[0] == "ok":
                assert np.array_equal(got[1], want[1]), (name, tol)
                assert np.array_equal(got[2], want[2]), (name, tol)
            else:
                assert got[1:] == want[1:], (name, tol)
                errors += 1
            cases += 1
    assert cases == 1296 and 100 < errors < cases / 2  # both outcomes are well represented


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


@pytest.mark.parametrize("m", [6, 80])
def test_a_unitary_takes_no_svd(m, svd_calls):
    u = haar(np.random.default_rng(m), m)
    dec = eig_normal(u)
    assert svd_calls == []
    want = reference_eig_normal(u)
    assert np.array_equal(dec.eigenvalues, want.eigenvalues)
    assert np.array_equal(dec.eigenvectors, want.eigenvectors)


@pytest.mark.parametrize("side", [-1, 1])
def test_a_pencil_gap_inside_the_screen_window_takes_the_norm(side, svd_calls):
    # q diag(r e^{i theta}) q*: A* A = q diag(r^2) q* does not move with theta,
    # so the screen window (g lo, g hi] stays put while theta places the gap
    q = haar(np.random.default_rng(7), 3)
    r = np.array([1.0, 2.0, 3.0])
    gram = (q * r**2) @ q.conj().T
    lo, hi = np.sqrt(gram.diagonal().real.max()), np.sqrt(np.abs(gram).sum(axis=1).max())
    gap = linalg._CLUSTER_GAP * 3.0 * (1 + side * 1e-4)  # ||A|| = 3: either side of the cut
    assert linalg._CLUSTER_GAP * lo < gap * (1 - 1e-3)
    assert gap * (1 + 1e-3) < linalg._CLUSTER_GAP * hi
    theta = linalg._PENCIL_THETA
    phi, scale = np.arctan(theta), np.hypot(1.0, theta)  # pencil value r scale cos(angle - phi)
    first = phi + 2.0
    second = phi + np.arccos((3.0 * scale * np.cos(first - phi) + gap) / (2.0 * scale))
    a = (q * (r * np.exp(1j * np.array([0.3, second, first])))) @ q.conj().T
    dec = eig_normal(a)
    assert svd_calls == [1]
    want = reference_eig_normal(a)
    assert np.array_equal(dec.eigenvalues, want.eigenvalues)
    assert np.array_equal(dec.eigenvectors, want.eigenvectors)


def test_a_residual_failure_reports_the_value_of_the_reference(monkeypatch):
    # eigh's basis mixed by 0.01 rad: the first-order step leaves about 1e-4
    # of the residual, which fails the check at any scale
    eigh = np.linalg.eigh

    def mixed(h):
        w, q = eigh(h)
        c, s = np.cos(0.01), np.sin(0.01)
        q[:, :2] = q[:, :2] @ np.array([[c, -s], [s, c]])
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    u = haar(np.random.default_rng(9), 5)
    defects = []
    for scale in (1.0, 1e-5, 3e7):
        a = u * scale
        got = outcome(eig_normal, a, 1e-9)
        want = outcome(reference_eig_normal, a, 1e-9)
        assert got[0] is NotNormalError and got[1:] == want[1:], scale
        # the message names the residual check and the bound it applied,
        # max(tol, sqrt(commutator defect)) * 10, not tol
        nrm = op_norm(a)
        bound = max(1e-9, np.sqrt(op_norm(a @ a.conj().T - a.conj().T @ a) / nrm**2)) * 10
        assert got[2] == (f"matrix is not normal: eigenbasis residual {got[1]:.3e} "
                          f"exceeds bound {bound:.3e}"), scale
        defects.append(got[1])
    # the residual over ||a|| does not depend on the scale, and exceeds tol
    assert defects == pytest.approx([defects[0]] * 3, rel=1e-9)
    assert 1e-5 < defects[0] < 1e-3


Q4 = np.linalg.qr(cnormal(np.random.default_rng(0), 4, 4))[0]


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-160, 1e-20, 1e20, 1e155, 1e160,
                                   1e200, 1e300])
def test_a_unitary_at_any_scale(scale):
    # the squares of 1e-170 underflow and those of 1e155 overflow unless
    # eig_normal scales first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = eig_normal(Q4 * scale).eigenvalues
    assert np.abs(np.abs(lam) / scale - 1).max() <= 2e-15
    assert np.allclose(lam / scale, eig_normal(Q4).eigenvalues, rtol=0, atol=1e-14)


def test_subnormal_diagonal_keeps_its_entries():
    tiny = np.diag([3.0, 1.0j]) * 5e-324
    dec = eig_normal(tiny)
    assert set(dec.eigenvalues.tolist()) == set(np.diag(tiny).tolist())


class TestSpanMembership:
    def test_positive_with_exact_coefficients(self):
        b1 = np.array([1, 0, 1], dtype=complex)
        b2 = np.array([0, 1j, 0], dtype=complex)
        v = 2.0 * b1 + (3 - 1j) * b2
        c, _, ok = FactoredSpan(np.column_stack([b1, b2])).fit(v)
        assert ok.tolist() == [True]
        assert np.allclose(c[:, 0], [2.0, 3 - 1j], atol=1e-10)

    def test_negative(self):
        span = FactoredSpan(np.array([[1, 0, 0], [0, 1, 0]]).T)
        assert span.fit([0, 0, 1])[2].tolist() == [False]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            FactoredSpan(np.array([[1, 0, 0]]).T).fit([1, 0])

    @staticmethod
    def basis(kind, rng):
        """Four basis rows of length 6: generic, of rank 2, or of equal norms
        with a last singular value 5% above or below the cutoff.  Those rows
        are then scaled by 1, 10^6, 10^-3 and 10^9, which equilibration
        undoes, so the cutoff still falls between the two."""
        if kind == "generic":
            return rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)), 4
        if kind == "rank-deficient":
            two = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
            return (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) @ two, 2
        last, rank = {"above-cutoff": (1.05e-13, 4), "below-cutoff": (0.95e-13, 3)}[kind]
        u = np.linalg.qr(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)))[0]
        dft = np.exp(0.5j * np.pi * np.outer(range(4), range(4))) / 2  # unitary, |entries| 1/2
        rows = (u @ np.diag([1.0, 0.5, 0.3, last]) @ dft).T
        return rows * np.array([1.0, 1e6, 1e-3, 1e9])[:, None], rank

    def test_wide_batch_has_the_bits_of_one_product(self):
        self.check_wide_batch("generic")

    @pytest.mark.parametrize("kind", ["rank-deficient", "above-cutoff", "below-cutoff"])
    def test_degenerate_wide_batch_has_the_bits_of_one_product(self, kind):
        self.check_wide_batch(kind)

    def check_wide_batch(self, kind):
        rng = np.random.default_rng(9)
        basis, rank = self.basis(kind, rng)
        n = 3 * 2048 + 1  # several chunks, the last with one extra column
        target = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        target[:, ::3] = basis.T @ rng.standard_normal((4, target[:, ::3].shape[1]))
        mat = basis.T
        coeffs, resid, ok = FactoredSpan(mat).fit(target)
        scale = np.linalg.norm(mat, axis=0)
        u, s, vh = np.linalg.svd(mat / scale, full_matrices=False)
        kept = u[:, :rank]
        coef = vh[:rank].conj().T / s[:rank] / scale[:, None]
        inner = kept.conj().T @ target
        assert np.array_equal(coeffs, coef @ inner)
        assert np.array_equal(resid, np.linalg.norm(target - kept @ inner, axis=0))
        assert np.array_equal(ok, resid <= 1e-9 * np.maximum(1.0, np.linalg.norm(target, axis=0)))
        assert not ok[1::3].any()
        # the range residual's rounding does not grow with the conditioning:
        # members pass even with a last direction 1e13 below the first
        assert ok[::3].all()
        factored = FactoredSpan(mat)
        assert factored.rank == rank
        assert np.array_equal(factored.projector, kept @ kept.conj().T)
        one = coef @ (kept.conj().T @ target[:, 0])  # a vector: other bits
        single, _, _ = factored.fit(target[:, 0])
        assert single.shape == (4, 1) and np.array_equal(single[:, 0], one)


def test_gram_rank_counts_independent_directions():
    v1 = np.array([1, 0, 0], dtype=complex)
    v2 = np.array([0, 1, 0], dtype=complex)
    assert gram_rank([v1, v2]) == 2
    assert gram_rank([v1, v2, v1 + v2]) == 2
    # each vector is counted at unit norm, so its scale decides nothing
    assert gram_rank([v1, 1e-14 * v2]) == 2
    assert gram_rank([1e12 * v1, 1e-14 * v2, 1e-14 * (v1 + v2)]) == 2
    assert gram_rank([v1, v1 + 1e-12 * v2]) == 1  # a direction below tol stays dependent
    assert gram_rank([np.zeros(3)]) == 0


def test_gram_rank_counts_a_column_whose_squares_underflow():
    assert gram_rank([np.ones(3), np.array([1e-170, 0, 0])]) == 2
    assert gram_rank([np.ones(3), np.array([1e-170j, 1e-200, 0])]) == 2
    assert gram_rank([np.zeros(3)]) == 0


def test_kron_block_layout():
    a = np.array([[1, 2], [3, 4]])
    b = np.eye(2)
    k = np.kron(a, b)
    assert k.shape == (4, 4)
    assert np.allclose(k[0:2, 2:4], 2 * b)


def test_vec_is_row_major():
    m = np.array([[1, 2], [3, 4]])
    assert np.allclose(vec(m), [1, 2, 3, 4])
