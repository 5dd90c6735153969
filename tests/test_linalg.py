import numpy as np
import pytest
import scipy.linalg

from osclass import linalg
from osclass.errors import DimensionError, NotNormalError
from osclass.linalg import FactoredSpan, eig_normal, gram_rank, kron, op_norm, vec


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
            with pytest.raises(NotNormalError):
                eig_normal(a)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            eig_normal(np.ones((2, 3)))


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


def test_kron_block_layout():
    a = np.array([[1, 2], [3, 4]])
    b = np.eye(2)
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert np.allclose(k[0:2, 2:4], 2 * b)


def test_vec_is_row_major():
    m = np.array([[1, 2], [3, 4]])
    assert np.allclose(vec(m), [1, 2, 3, 4])
