import numpy as np
import pytest

from osclass import osdist
from osclass.errors import DimensionError, EmptySystemError, NoUnitError
from osclass.linalg import vec
from osclass.opsys import (AmplifiedElement, PolyhedralDualBall, amplified_norm,
                           build_system, find_unit_coeffs, greedy_basis,
                           is_operator_system, min_os_norm)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def test_build_system_from_single_nonnormal_generator():
    sys3 = build_system([np.array([[0, 0, 0], [1, 0, 0], [0, 0.5, 0]])])
    assert sys3.ambient_dim == 3
    assert sys3.dim == 3  # identity, generator, adjoint
    assert np.allclose(sys3.unit(), np.eye(3), atol=1e-10)


def test_build_system_skips_dependent_candidates():
    # a Hermitian generator contributes itself but not its (equal) adjoint
    h = np.array([[1, 2], [2, -1]], dtype=complex)
    sys2 = build_system([h])
    assert sys2.dim == 2


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e9, 1e10, 1e-10])
def test_build_system_keeps_generators_at_any_scale(scale):
    # the rank test used to be relative to the largest candidate, so a large
    # generator pushed the identity below it and a small one fell below the
    # identity; each was dropped without a word
    g = np.array([[0.3, 1], [-0.5, 0.2j]]) * scale
    system = build_system([g])
    assert system.dim == 3
    assert np.array_equal(system.basis[1], g) and np.array_equal(system.basis[2], g.conj().T)
    assert np.allclose(system.unit(), np.eye(2), atol=1e-10)


def reference_basis(generators, include_identity=True):
    """The greedy basis as a per-candidate SVD rank loop over unit vectors."""
    k = generators[0].shape[0]
    candidates = [np.eye(k, dtype=complex)] if include_identity else []
    for g in generators:
        candidates += [g, g.conj().T]
    basis, normed = [], []
    for c in candidates:
        norm = np.linalg.norm(c)
        if norm == 0.0:
            continue
        v = vec(c) / norm
        s = np.linalg.svd(np.column_stack(normed + [v]), compute_uv=False)
        if not basis or np.sum(s > 1e-9 * s[0]) > len(basis):
            basis.append(c)
            normed.append(v)
    return np.array(basis), find_unit_coeffs(basis)


def reference_cases():
    rng = np.random.default_rng(7)
    cn = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)  # noqa: E731
    for k in (1, 2, 3, 4):
        g = cn(k, k)
        yield [g]
        yield [g, g.conj().T, 2 * g - 1j * np.eye(k)]
        yield [g + g.conj().T, np.zeros((k, k)), np.diag(cn(k)) * 1e8]
        yield [cn(k, k) * 1e-9, cn(k, k), cn(k, k)]
    z = cn(5)
    vs = [np.diag(z), np.diag(z.conj())]
    yield vs + [a @ b.conj().T for a in vs for b in vs]  # dependent diagonal products


@pytest.mark.parametrize("include_identity", [True, False])
def test_build_system_is_bit_identical_to_the_per_candidate_rank_loop(include_identity):
    for i, gens in enumerate(reference_cases()):
        try:
            basis, unit = reference_basis(gens, include_identity)
        except NoUnitError:
            with pytest.raises(NoUnitError):
                build_system(gens, include_identity=include_identity)
            continue
        system = build_system(gens, include_identity=include_identity)
        assert basis.tobytes() == system.basis.tobytes(), i
        assert unit.tobytes() == system.unit_coeffs.tobytes(), i


def test_greedy_basis_checks_each_candidate():
    assert greedy_basis([np.zeros(3), np.ones(3), 2 * np.ones(3), np.arange(3)]) == [1, 3]
    with pytest.raises(DimensionError):
        greedy_basis([np.ones(3), np.array([1.0, np.nan, 0.0])])
    with pytest.raises(DimensionError):
        greedy_basis([np.ones(2), np.array([1.5e308, 1.5e308])])  # the norm overflows
    # squares past the float range, a norm within it
    assert greedy_basis([np.ones(2), np.array([1e200, 1e200]), np.array([1e200, 0.0])]) == [0, 2]


def test_build_system_empty_raises():
    with pytest.raises(EmptySystemError):
        build_system([], include_identity=True)
    with pytest.raises(EmptySystemError):
        build_system([np.zeros((2, 2))], include_identity=False)


def test_assemble_matches_hand_sum():
    sys2 = build_system([E12])
    c = np.array([1.0, 2.0, 3.0])
    expected = np.eye(2) + 2 * E12 + 3 * E21
    assert np.allclose(sys2.assemble(c), expected)
    rng = np.random.default_rng(5)
    sys3 = build_system([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
    for n in (1, 2, 3):
        c = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
        hand = sum(np.kron(np.eye(n)[:, [i]] @ np.eye(n)[[j]],
                           sum(c[i, j, m] * sys3.basis[m] for m in range(3)))
                   for i in range(n) for j in range(n))
        assert np.allclose(sys3.assemble(c), hand)
    for bad in ([1.0], np.zeros((3, 1)), np.zeros((2, 3, 3)), np.zeros((2, 2, 2)),
                np.zeros((1, 1, 1, 3))):
        with pytest.raises(DimensionError):
            sys2.assemble(bad)


def test_inner_ratio_is_a_quotient_of_amplified_norms():
    # the d_n inner ascent and `norm` build M_n(X) through the same assemble,
    # so a ratio equals the quotient of the two amplified norms to the bit
    rng = np.random.default_rng(11)
    for k in (2, 3):
        for _ in range(4):
            x = build_system([rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))])
            y = build_system([rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))])
            nn = x.dim
            u = rng.standard_normal((nn, nn)) + 1j * rng.standard_normal((nn, nn))
            for level in (1, 2, 3):
                cs = (rng.standard_normal((5, level, level, nn))
                      + 1j * rng.standard_normal((5, level, level, nn)))
                ratios = osdist._ratios(x, y, np.array([u] * 5), cs)
                for c, ratio in zip(cs, ratios):
                    quotient = (amplified_norm(y, AmplifiedElement(level, c @ u.T))
                                / amplified_norm(x, AmplifiedElement(level, c)))
                    assert ratio == quotient


class TestIsOperatorSystem:
    def test_pauli_span_passes(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        check = is_operator_system([np.eye(2, dtype=complex), sx, sy, sz])
        assert check.ok

    def test_dependent_tuple_fails_independence(self):
        check = is_operator_system([np.eye(2), 2 * np.eye(2)])
        assert not check.ok
        assert check.failed == "independence"

    def test_not_adjoint_closed(self):
        check = is_operator_system([np.eye(2), E12])
        assert not check.ok
        assert check.failed == "adjoints"

    def test_missing_unit(self):
        check = is_operator_system([E12, E21])
        assert not check.ok
        assert check.failed == "unit"

    def test_names_the_first_element_whose_adjoint_is_outside(self):
        units = np.eye(3)
        e12, e23 = np.outer(units[0], units[1]), np.outer(units[1], units[2])
        check = is_operator_system([units, np.diag([1.0, -1.0, 0.0]), e12, e23])
        assert check.failed == "adjoints"
        assert check.detail == "adjoint of element 2 is outside the span"

    def test_factors_the_span_once(self, monkeypatch):
        # one SVD for the independence rank and every span test
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        assert is_operator_system([np.eye(2), sx, sy, E12 + E21]).failed == "independence"
        calls.clear()
        assert is_operator_system([np.eye(2), sx, sy, np.diag([1.0, -1.0])]).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1e-14, 1e-12, 1e-10, 1e-6, 1.0, 1e6, 1e12, 1e50, 1e100])
    def test_a_built_system_passes_at_any_scale(self, scale):
        # the independence count reads the equilibrated span, as build_system's does
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_operator_system(build_system([scale * a]).basis).ok


def test_find_unit_coeffs_recovers_identity():
    basis = [np.eye(2, dtype=complex), E12, E21]
    c = find_unit_coeffs(basis)
    assert np.allclose(c, [1.0, 0.0, 0.0], atol=1e-10)
    with pytest.raises(NoUnitError):
        find_unit_coeffs([E12, E21])


class TestAmplifiedNorm:
    def setup_method(self):
        self.sys = build_system([E12])  # basis I, E12, E21

    def test_level_one_reduces_to_op_norm(self):
        a = AmplifiedElement(level=1, coeffs=np.array([[[1.0, 2.0, 0.0]]]))
        # I + 2 E12 has singular values sqrt((2 + sqrt(8))/... ) -- check numerically
        direct = np.linalg.svd(np.eye(2) + 2 * E12, compute_uv=False)[0]
        assert amplified_norm(self.sys, a) == pytest.approx(direct, abs=1e-12)

    def test_level_two_block_assembly(self):
        coeffs = np.zeros((2, 2, 3), dtype=complex)
        coeffs[0, 0, 0] = 1.0
        coeffs[0, 1, 1] = 1.0  # E12 in the (0,1) block
        coeffs[1, 1, 0] = 1.0
        a = AmplifiedElement(level=2, coeffs=coeffs)
        big = self.sys.assemble(a.coeffs)
        assert big.shape == (4, 4)
        # independent dense oracle
        oracle = np.zeros((4, 4), dtype=complex)
        oracle[0:2, 0:2] = np.eye(2)
        oracle[0:2, 2:4] = E12
        oracle[2:4, 2:4] = np.eye(2)
        assert np.allclose(big, oracle)
        assert amplified_norm(self.sys, a) == pytest.approx(
            np.linalg.svd(oracle, compute_uv=False)[0], abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            AmplifiedElement(level=2, coeffs=np.zeros((1, 2, 3)))
        with pytest.raises(DimensionError):
            amplified_norm(self.sys, AmplifiedElement(level=1, coeffs=np.zeros((1, 1, 2))))


class TestMinOsNorm:
    def test_sup_norm_instance(self):
        # functionals = coordinate projections give the sup norm at level 1
        ball = PolyhedralDualBall(dim=3, functionals=(np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]))
        x = np.array([1.0 + 1j, -0.5, 2.0], dtype=complex)
        assert min_os_norm(ball, x) == pytest.approx(np.max(np.abs(x)), abs=1e-12)

    def test_level_two_value(self):
        ball = PolyhedralDualBall(dim=2, functionals=(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        arr = np.zeros((2, 2, 2), dtype=complex)
        arr[0, 0] = [1.0, 0.0]
        arr[1, 1] = [0.0, 3.0]
        # applying each functional gives diag(1, 0) and diag(0, 3)
        assert min_os_norm(ball, arr) == pytest.approx(3.0, abs=1e-12)

    def test_empty_functionals_rejected(self):
        with pytest.raises(DimensionError):
            PolyhedralDualBall(dim=2, functionals=())
