import numpy as np
import pytest

from osclass import osdist
from osclass.errors import CapacityError, DimensionError, NotComparableError
from osclass.linalg import gram_rank
from osclass.opsys import build_system
from osclass.osdist import (LinearMapCoords, WtParams, amplified_map_norm,
                            commutant_dimension, dgh_weighted, dn_search,
                            trace_invariants, wt_classify, wt_matrix, wt_system)


def random_unitary(rng, k):
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_system(sys_x, u):
    from osclass.opsys import build_system
    gens = [u @ b @ u.conj().T for b in sys_x.basis[1:]]
    return build_system(gens, include_identity=True)


class TestWtFamily:
    def test_matrix_and_system_shapes(self):
        w = wt_matrix(WtParams(0.4))
        assert np.allclose(w, [[0, 0, 0], [1, 0, 0], [0, 0.4, 0]])
        sys3 = wt_system(WtParams(0.4))
        assert sys3.ambient_dim == 3 and sys3.dim == 3

    def test_singular_values(self):
        for t in (0.2, 0.7, 1.0):
            sv = np.sort(np.linalg.svd(wt_matrix(WtParams(t)), compute_uv=False))
            assert np.allclose(sv, [0.0, t, 1.0], atol=1e-12)

    def test_trace_invariants_vanish(self):
        p = WtParams(0.6)
        tau1, tau2 = trace_invariants(wt_system(p), wt_matrix(p))
        assert tau1 == 0 and tau2 == 0

    def test_irreducibility(self):
        w = wt_matrix(WtParams(0.5))
        assert commutant_dimension([w, w.conj().T]) == 1
        # a single normal matrix has a big commutant by comparison
        assert commutant_dimension([np.diag([1.0, 2.0, 3.0])]) == 3
        assert commutant_dimension([np.zeros((2, 2))]) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_commutant_of_non_finite_matrices_raises(self, bad):
        with pytest.raises(DimensionError):
            commutant_dimension([np.array([[1.0, bad], [0.0, 1.0]])])

    def test_parameter_validation(self):
        with pytest.raises(DimensionError):
            WtParams(0.0)
        with pytest.raises(DimensionError):
            WtParams(0.5, "four_by_four")


class TestWtClassify3x3:
    def test_diagonal_of_the_grid(self):
        for t in np.linspace(0.1, 1.0, 10):
            dec = wt_classify(t, t)
            assert dec.verdict == "Isomorphic"
            assert dec.certificate["witness"] == "identity"

    def test_off_diagonal(self):
        dec = wt_classify(0.3, 0.7)
        assert dec.verdict == "NotIsomorphic"
        assert dec.method == "theorem-fast-path"
        sv_t, sv_s = dec.certificate["singular_values"]
        assert np.allclose(sv_t, [0.0, 0.3, 1.0]) and np.allclose(sv_s, [0.0, 0.7, 1.0])


def annihilator(t):
    """H_t: span{I, W_t, W_t*} in M_2 is the set of A with tr(H_t A) = 0."""
    return np.array([[t, -1.0], [-1.0, -t]])


class TestWtClassify2x2:
    def test_matching_parameters(self):
        dec = wt_classify(0.5, 0.5, "two_by_two", restarts=16)
        assert dec.verdict == "Isomorphic"
        assert dec.method == "theorem-fast-path"

    def test_tiny_parameter_is_isomorphic(self):
        # the seeded search answered NotIsomorphic here after about 10 s
        t, s = 1.0, 1e-9
        dec = wt_classify(t, s, "two_by_two")
        assert dec.verdict == "Isomorphic"
        assert dec.method == "theorem-fast-path"
        u = dec.certificate["unitary"]
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        moved = u @ annihilator(t) @ u.conj().T
        scale = np.sqrt((1 + t * t) / (1 + s * s))
        assert np.max(np.abs(moved - scale * annihilator(s))) <= 1e-12

    def test_distinct_parameters_are_still_conjugate(self):
        # independent oracle: the span of {I, W_t, W_t*} in M_2 is the
        # hyperplane annihilated (in the trace pairing) by the Hermitian
        # matrix [[t, -1], [-1, -t]], whose eigenvalues are -/+ sqrt(1+t^2).
        # Mapping eigenvectors to eigenvectors conjugates one annihilator
        # onto a positive multiple of the other, so the spans match and the
        # family is mutually isomorphic despite the distinct parameters.
        t, s = 0.3, 0.7
        _, qt = np.linalg.eigh(annihilator(t))
        _, qs = np.linalg.eigh(annihilator(s))
        u = qs @ qt.conj().T
        wt = wt_matrix(WtParams(t, "two_by_two"))
        ws = wt_matrix(WtParams(s, "two_by_two"))
        span_s = [np.eye(2, dtype=complex).ravel(), ws.ravel(), ws.conj().T.ravel()]
        moved = [(u @ g @ u.conj().T).ravel()
                 for g in (np.eye(2, dtype=complex), wt, wt.conj().T)]
        assert gram_rank(span_s + moved) == 3  # the unitary carries span onto span

        dec = wt_classify(t, s, "two_by_two", restarts=64)
        assert dec.verdict == "Isomorphic"
        assert dec.certificate["residual"] < 1e-10
        assert dec.certificate["spans_match"]
        uu = dec.certificate["unitary"]
        assert np.allclose(uu @ uu.conj().T, np.eye(2), atol=1e-10)

    def test_certificate_replays(self):
        dec = wt_classify(0.2, 0.9, "two_by_two", restarts=64, seed=3)
        assert dec.verdict == "Isomorphic"
        u = dec.certificate["unitary"]
        c = dec.certificate["coefficients"]
        wt = wt_matrix(WtParams(0.2, "two_by_two"))
        ws = wt_matrix(WtParams(0.9, "two_by_two"))
        image = u @ wt @ u.conj().T
        rebuilt = c[0] * np.eye(2) + c[1] * ws + c[2] * ws.conj().T
        assert np.max(np.abs(image - rebuilt)) < 1e-8


class TestAmplifiedMapNorm:
    def test_identity_map_is_exactly_one(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        from osclass.opsys import build_system
        x = build_system([g])
        for level in (1, 2, 3):
            val = amplified_map_norm(x, x, np.eye(x.dim), level=level, starts=4, iters=30)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_conjugation_map_is_one(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = random_unitary(rng, 3)
        from osclass.opsys import build_system
        x = build_system([g])
        y = conjugated_system(x, u)
        for level in (1, 2):
            val = amplified_map_norm(x, y, np.eye(x.dim), level=level, starts=4, iters=30)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_scaling_map_norm(self):
        # mapping the non-unit basis directions by 2 doubles some ratios
        from osclass.opsys import build_system
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        x = build_system([e12])
        u = np.diag([1.0, 2.0, 2.0])
        val = amplified_map_norm(x, x, u, level=1, starts=8, iters=100, seed=2)
        assert val >= 2.0 - 1e-6  # the coefficient vector (0,1,0) attains 2


class TestDnSearch:
    def test_self_distance_vanishes(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        from osclass.opsys import build_system
        x = build_system([g])
        assert dn_search(x, x, restarts=2, outer_iters=0, inner_starts=1,
                         inner_iters=0)["estimate"] <= 1e-9

    def test_conjugated_pair_is_close(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = random_unitary(rng, 3)
        from osclass.opsys import build_system
        x = build_system([g])
        y = conjugated_system(x, u)
        est = dn_search(x, y, restarts=4, outer_iters=20, inner_starts=1,
                        inner_iters=8)["estimate"]
        assert est <= 1e-3

    def test_dimension_mismatch(self):
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        y = build_system([np.diag([1.0, -1.0]).astype(complex)])
        with pytest.raises(NotComparableError):
            dn_search(x, y)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_raise(self, restarts):
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(DimensionError, match="restart"):
            dn_search(x, x, restarts=restarts)
        with pytest.raises(DimensionError, match="restart"):
            dgh_weighted(x, x, n_max=1, restarts=restarts)

    @pytest.mark.parametrize("count", [0, -1])
    def test_levels_and_starts_below_one_raise(self, count):
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        u = np.eye(x.dim)
        with pytest.raises(DimensionError, match="at least 1 level"):
            amplified_map_norm(x, x, u, level=count)
        with pytest.raises(DimensionError, match="at least 1 start"):
            amplified_map_norm(x, x, u, starts=count)
        with pytest.raises(DimensionError, match="at least 1 level"):
            dn_search(x, x, level=count, restarts=1)
        with pytest.raises(DimensionError, match="at least 1 inner start"):
            dn_search(x, x, restarts=1, inner_starts=count)
        with pytest.raises(DimensionError, match="at least 1 inner start"):
            dgh_weighted(x, x, n_max=1, restarts=1, inner_starts=count)

    def test_negative_seed_raises(self):
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(DimensionError, match="nonnegative seed, got -1"):
            amplified_map_norm(x, x, np.eye(x.dim), seed=-1)
        with pytest.raises(DimensionError, match="nonnegative seed, got -1"):
            dn_search(x, x, restarts=1, seed=-1)
        with pytest.raises(DimensionError, match="nonnegative seed, got -1"):
            dgh_weighted(x, x, n_max=1, restarts=1, seed=-1)

    def test_negative_evaluation_budgets_raise(self):
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(DimensionError, match="nonnegative iters, got -3"):
            amplified_map_norm(x, x, np.eye(x.dim), iters=-3)
        with pytest.raises(DimensionError, match="nonnegative outer_iters, got -2"):
            dn_search(x, x, restarts=1, outer_iters=-2, inner_iters=-7)
        with pytest.raises(DimensionError, match="nonnegative inner_iters, got -7"):
            dn_search(x, x, restarts=1, inner_iters=-7)
        for kw in ({"outer_iters": -1}, {"inner_iters": -1}):
            with pytest.raises(DimensionError, match="nonnegative"):
                dgh_weighted(x, x, n_max=1, restarts=1, **kw)

    def test_simplices_past_the_bound_raise_before_any_search(self, monkeypatch):
        from osclass import osdist
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        assert x.dim == 3  # outer simplices of 19 x 18 floats a restart
        cap = osdist.MAX_SIMPLEX_FLOATS
        osdist._check_simplices("the d_n search", 3, 1, 0, cap // 342)
        with pytest.raises(CapacityError, match="outer simplex"):
            osdist._check_simplices("the d_n search", 3, 1, 0, cap // 342 + 1)
        monkeypatch.setattr(osdist, "_Plan", None)  # nothing may be built
        with pytest.raises(CapacityError, match="MAX_SIMPLEX_FLOATS"):
            amplified_map_norm(x, x, np.eye(3), level=40)
        with pytest.raises(CapacityError, match="inner simplex"):
            dn_search(x, x, level=40, restarts=1)
        with pytest.raises(CapacityError, match="outer simplex"):
            dn_search(x, x, restarts=10 ** 8)
        levels = []
        monkeypatch.setattr(osdist, "dn_search", lambda *a, **k: levels.append(a[2]))
        with pytest.raises(CapacityError, match="inner simplex"):
            dgh_weighted(x, x, n_max=40, restarts=1)
        assert levels == []

    def test_monotone_under_more_restarts(self):
        rng = np.random.default_rng(4)
        from osclass.opsys import build_system
        x = build_system([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
        y = build_system([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
        kw = dict(outer_iters=15, inner_starts=1, inner_iters=6)
        few = dn_search(x, y, restarts=2, seed=0, **kw)["estimate"]
        many = dn_search(x, y, restarts=6, seed=0, **kw)["estimate"]
        assert many <= few + 1e-12  # seeded starts are nested


class TestWeightedDistance:
    def test_weighted_is_the_documented_sum(self):
        rng = np.random.default_rng(5)
        from osclass.opsys import build_system
        x = build_system([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
        u = random_unitary(rng, 2)
        y = conjugated_system(x, u)
        rep = dgh_weighted(x, y, n_max=2, restarts=2, outer_iters=10,
                           inner_starts=1, inner_iters=6)
        expect = sum(2.0 ** (-r["level"]) * r["estimate"] for r in rep.per_level)
        assert rep.weighted == pytest.approx(expect, abs=1e-15)
        assert rep.weighted <= 1e-2

    def test_self_distance(self):
        from osclass.opsys import build_system
        x = build_system([np.array([[0, 1], [0, 0]], dtype=complex)])
        rep = dgh_weighted(x, x, n_max=2, restarts=1, outer_iters=0,
                           inner_starts=1, inner_iters=0)
        assert rep.weighted <= 2e-6


def zero_pair(kind):
    """A seeded 2x2 system and a second one spanning it up to a complete
    isometry, so their true d_n is 0 at every level."""
    from osclass.opsys import build_system
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = random_unitary(rng, 2)
    other = {"adjoint": g.conj().T, "conjugate": u @ g @ u.conj().T,
             "affine": (2 - 1j) * g + (0.5 + 1j) * np.eye(2)}[kind]
    return build_system([g]), build_system([other])


#: The estimates of the 2x2 zero panel at 4 restarts, before the closed-form
#: 2x2 norms; a change to the kernel may move them, but not up by more than 1e-9.
ZERO_PANEL = {
    ("adjoint", 1): 0.19862626672000225,
    ("adjoint", 2): 0.005372838657590611,
    ("conjugate", 1): 8.881784197001248e-16,
    ("conjugate", 2): 8.881784197001248e-16,
    ("affine", 1): 1.0961339703429334,
    ("affine", 2): 0.38889728456775,
}


@pytest.mark.parametrize("kind,level", sorted(ZERO_PANEL))
def test_zero_panel_does_not_get_worse(kind, level):
    # a quality gate that reads values, not bits: every pair's answer is 0
    x, y = zero_pair(kind)
    assert dn_search(x, y, level=level, restarts=4)["estimate"] <= ZERO_PANEL[kind, level] + 1e-9


def test_linear_map_coords_condition():
    assert LinearMapCoords(np.eye(3)).condition() == pytest.approx(1.0)
    assert np.isinf(LinearMapCoords(np.zeros((2, 2))).condition())
    with pytest.raises(DimensionError):
        LinearMapCoords(np.ones((2, 3)))


def test_a_zero_element_scores_ratio_zero():
    # a denominator below RATIO_FLOOR gives ratio 0, where 0 / 0 would be NaN
    rng = np.random.default_rng(3)
    x, y = (build_system([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
            for _ in range(2))
    plan = osdist._Plan(x, y, 1, starts=1, iters=0, seed=0)
    c = rng.standard_normal((3, 1, 1, x.dim)) + 0j
    c[1] = 0.0
    ratios = osdist._ratios(plan, c, np.array([np.eye(x.dim)] * 3), 3)
    assert ratios[1] == 0.0 and ratios[0] > 0.0 and ratios[2] > 0.0


def test_objective_with_no_usable_map_skips_the_ascents(monkeypatch):
    # non-finite, zero and ill-conditioned maps score 1e6 with no inner work
    x, y = zero_pair("adjoint")
    monkeypatch.setattr(osdist, "_ascents", lambda *args: pytest.fail("a map was ascended"))
    f = osdist._objective(x, y, 1, 1, 4, 0)
    nn = x.dim
    bad = [np.full((nn, nn), np.nan), np.full((nn, nn), np.inf), np.zeros((nn, nn)),
           np.diag([1.0] + [1e-13] * (nn - 1))]
    points = np.array([osdist._complex_to_real(m.astype(np.complex128)) for m in bad])
    assert f(points).tolist() == [1e6] * len(bad)
