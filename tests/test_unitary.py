import numpy as np
import pytest

from osclass import unitary
from osclass.errors import DimensionError, NotUnitaryError
from osclass.linalg import op_norm
from osclass.unitary import (TWO_PI, CircleSet, canonical_form, circle_dist,
                             cois_unitary_oracle, cois_unitary_theorem,
                             four_point_obstruction, rigid_equivalent, spectrum)

FOUR_POINT_U = np.diag([1, -1, 1j, -1j])
FOUR_POINT_V = np.diag([1, (1 + 1j) / np.sqrt(2), 1j, -1])


def brute_canonical_gaps(angles):
    """Independent necklace oracle: plain lexicographic min over all rotations
    of the gap sequence and of its reversal (as python tuples)."""
    a = np.sort(np.asarray(angles) % TWO_PI)
    g = np.append(np.diff(a), TWO_PI - a[-1] + a[0])
    cands = []
    for seq in (g, g[::-1]):
        for r in range(len(seq)):
            cands.append(tuple(np.roll(seq, -r)))
    return np.array(min(cands))


class TestSpectrum:
    def test_diag_unitary(self):
        s = spectrum(np.diag(np.exp(1j * np.array([2.0, 0.5, 5.0]))))
        assert s.size == 3
        assert np.allclose(s.angles, [0.5, 2.0, 5.0], atol=1e-12)

    def test_conjugated_unitary_same_spectrum(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(a)
        u = q @ FOUR_POINT_U @ q.conj().T
        s = spectrum(u)
        assert s.size == 4
        ref = np.sort(np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]))
        assert np.allclose(s.angles, ref, atol=1e-8)

    def test_deduplication(self):
        s = spectrum(np.diag([1.0, 1.0, 1j]))
        assert s.size == 2

    def test_dedup_across_wrap(self):
        eps = 1e-10
        s = spectrum(np.diag([np.exp(1j * eps), np.exp(-1j * eps), 1j]))
        assert s.size == 2

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            spectrum(np.diag([1.0, 2.0]))

    def test_non_unitary_reports_the_operator_norm(self):
        # ||U*U - I|| is 3 in the operator norm, sqrt(10) in the Frobenius norm
        u = np.diag([1.0, 2.0, 1j * np.sqrt(2.0)])
        with pytest.raises(NotUnitaryError) as err:
            spectrum(u)
        assert err.value.defect == op_norm(u.conj().T @ u - np.eye(3)) == 3.0

    def test_unitarity_screen_skips_an_svd(self, monkeypatch):
        # eig_normal screens both of its norms too, so a unitary takes no SVD
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert spectrum(q).size == 6
        assert len(calls) == 0


def near_unitary_draws(tol, draws=300):
    """U = Q (I + 0.49 tol H), Q Haar, H Hermitian with ||H|| = 1, m = 2-11:
    ||U*U - I|| <= 0.98 tol + (0.49 tol)^2 <= tol, while ||UU* - U*U|| can
    reach about twice ||U*U - I||."""
    rng = np.random.default_rng(0)
    for _ in range(draws):
        m = int(rng.integers(2, 12))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q, r = np.linalg.qr(a)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = h + h.conj().T
        h /= np.linalg.norm(h, 2)
        yield q @ (np.eye(m) + 0.49 * tol * h)


@pytest.mark.parametrize("tol", [1e-9, 5e-9, 1e-8, 1e-7, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3])
def test_spectrum_accepts_every_matrix_its_unitarity_test_passes(tol):
    # the commutator test of eig_normal used to reject most of these draws
    # from tol 1e-8 on: it allowed only tol ||U||^2 for a defect near 2 tol
    for u in near_unitary_draws(tol):
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) <= tol
        assert spectrum(u, tol).size == len(u)


class TestCanonicalForm:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(3, 9))
            angles = np.sort(rng.uniform(0, TWO_PI, m))
            neck = canonical_form(CircleSet(angles))
            assert np.allclose(neck.gaps, brute_canonical_gaps(angles), atol=1e-9)

    def test_invariant_under_rotation_and_reflection(self):
        rng = np.random.default_rng(7)
        angles = np.sort(rng.uniform(0, TWO_PI, 6))
        base = canonical_form(CircleSet(angles))
        rot = canonical_form(CircleSet((angles + 1.234) % TWO_PI))
        ref = canonical_form(CircleSet((-angles + 0.777) % TWO_PI))
        assert np.allclose(base.gaps, rot.gaps, atol=1e-9)
        assert np.allclose(base.gaps, ref.gaps, atol=1e-9)

    def test_singleton(self):
        neck = canonical_form(CircleSet(np.array([1.0])))
        assert np.allclose(neck.gaps, [TWO_PI])


class TestRigidEquivalent:
    def test_finds_rotation(self):
        rng = np.random.default_rng(1)
        a = np.sort(rng.uniform(0, TWO_PI, 5))
        s = CircleSet(a)
        t = CircleSet((a + 0.9) % TWO_PI)
        motion = rigid_equivalent(s, t)
        assert motion is not None
        assert np.allclose(motion.apply_angles(t.angles), s.angles, atol=1e-8)

    def test_finds_reflection(self):
        rng = np.random.default_rng(2)
        a = np.sort(rng.uniform(0, TWO_PI, 5))
        t = CircleSet((-a + 0.3) % TWO_PI)
        motion = rigid_equivalent(CircleSet(a), t)
        assert motion is not None
        assert motion.reflect

    def test_none_for_generic_pair(self):
        rng = np.random.default_rng(3)
        s = CircleSet(np.sort(rng.uniform(0, TWO_PI, 5)))
        t = CircleSet(np.sort(rng.uniform(0, TWO_PI, 5)))
        assert rigid_equivalent(s, t) is None

    def test_none_on_size_mismatch(self):
        s = CircleSet(np.array([0.0, 1.0]))
        t = CircleSet(np.array([0.0, 1.0, 2.0]))
        assert rigid_equivalent(s, t) is None


def scalar_hausdorff(a, b):
    """Reference for unitary._hausdorff_angles: one circle_dist call per pair."""
    d = np.array([[circle_dist(x, y) for y in b] for x in a])
    return max(float(np.max(np.min(d, axis=1))), float(np.max(np.min(d, axis=0))))


def hausdorff_inputs(rng, m):
    """Random, rigidly moved, jittered and regular-polygon angle sets of size m."""
    a = np.sort(rng.uniform(0, TWO_PI, m))
    poly = np.arange(m) * TWO_PI / m
    yield a, np.sort(rng.uniform(0, TWO_PI, m))
    yield a, np.sort((a + rng.uniform(0, TWO_PI)) % TWO_PI)
    yield a, np.sort((a + rng.normal(0, 1e-9, m)) % TWO_PI)
    yield poly, np.sort((poly + rng.uniform(0, TWO_PI)) % TWO_PI)
    yield poly, np.sort((-poly + 0.5) % TWO_PI)


class TestHausdorffAngles:
    def test_matches_the_scalar_loop(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 5, 8, 20, 40, 80, 200):
            for a, b in hausdorff_inputs(rng, m):
                assert unitary._hausdorff_angles(a, b) == scalar_hausdorff(a, b), m

    def test_rigid_equivalent_picks_the_same_motion(self, monkeypatch):
        rng = np.random.default_rng(12)
        for m in (5, 6, 10, 20, 40):
            for a, b in hausdorff_inputs(rng, m):
                s, t = CircleSet(a), CircleSet(b)
                fast = rigid_equivalent(s, t)
                with monkeypatch.context() as patched:
                    patched.setattr(unitary, "_hausdorff_angles", scalar_hausdorff)
                    assert rigid_equivalent(s, t) == fast, m


def sweep_rigid_equivalent(s, t, tol=1e-8):
    """Reference for rigid_equivalent: all 2m candidates, each with its full
    Hausdorff residual, in the same order and with the same strict < choice."""
    if s.size != t.size:
        return None
    best, best_resid = None, np.inf
    for reflect in (False, True):
        base = (-t.angles) % TWO_PI if reflect else t.angles
        for j in range(t.size):
            rot = (s.angles[0] - base[j]) % TWO_PI
            moved = np.sort((base + rot) % TWO_PI)
            resid = unitary._hausdorff_angles(moved, s.angles)
            if resid <= tol and resid < best_resid:
                best = unitary.RigidMotion(rotation=float(rot), reflect=reflect)
                best_resid = resid
    return best


def motion_inputs(rng, m, tol):
    """Rigid images, reflections, generic draws, images moved by about tol
    and jittered regular polygons, all of size m."""
    a = np.sort(rng.uniform(0, TWO_PI, m))
    poly = np.arange(m) * TWO_PI / m + rng.uniform(-3e-10, 3e-10, m)
    rot = rng.uniform(0, TWO_PI)
    yield a, (a + rot) % TWO_PI
    yield a, (-a + rot) % TWO_PI
    yield a, rng.uniform(0, TWO_PI, m)
    yield a, (a + rot + rng.uniform(-tol, tol, m)) % TWO_PI
    yield a, (-a + rot + rng.uniform(-2 * tol, 2 * tol, m)) % TWO_PI
    yield poly, (poly + rot) % TWO_PI
    yield poly, (-poly + rot) % TWO_PI


def count_reverse_sweeps(monkeypatch):
    """Log the size of every reverse sweep of ``rigid_equivalent``: a
    ``_nearest_arcs`` call on one candidate's sorted points, where the
    forward sweep of all candidates passes a 2-d stack."""
    calls, nearest = [], unitary._nearest_arcs

    def spy(ref, pts):
        if np.ndim(pts) == 1:
            calls.append(ref.size)
        return nearest(ref, pts)

    monkeypatch.setattr(unitary, "_nearest_arcs", spy)
    return calls


class TestScreenedRigidEquivalent:
    # polygons pass every candidate's forward sweep, and the largest size
    # runs at one tolerance to keep the test short
    @pytest.mark.parametrize("m,tols", [(5, (1e-8, 1e-6, 1e-3)), (6, (1e-8, 1e-5, 1e-3)),
                                        (7, (1e-8, 1e-4)), (12, (1e-8, 1e-6, 1e-3)),
                                        (40, (1e-8, 1e-4, 1e-3)), (80, (1e-8, 1e-3)),
                                        (120, (1e-8,)), (200, (1e-3,))])
    def test_matches_the_full_sweep(self, m, tols):
        rng = np.random.default_rng(m)
        for tol in tols:
            for a, b in motion_inputs(rng, m, tol):
                s, t = CircleSet(a), CircleSet(b)
                assert rigid_equivalent(s, t, tol) == sweep_rigid_equivalent(s, t, tol), (m, tol)

    def test_screen_leaves_at_most_the_true_motion(self, monkeypatch):
        calls = count_reverse_sweeps(monkeypatch)
        rng = np.random.default_rng(3)
        for m in (5, 20, 80):
            for a, b in list(motion_inputs(rng, m, 1e-8))[:3]:
                calls.clear()
                rigid_equivalent(CircleSet(a), CircleSet(b))
                assert len(calls) <= 1, m

    def test_jittered_polygon_tests_every_candidate(self, monkeypatch):
        calls = count_reverse_sweeps(monkeypatch)
        poly = np.arange(9) * TWO_PI / 9 + np.random.default_rng(4).uniform(-3e-10, 3e-10, 9)
        assert rigid_equivalent(CircleSet(poly), CircleSet((poly + 1.0) % TWO_PI)) is not None
        assert len(calls) == 18

    def test_work_is_quadratic_on_jittered_polygons(self, monkeypatch):
        # every candidate of a jittered polygon passes, and each used to take
        # the whole m x m table: 22, 164 and 404 m^2 arcs at m = 9, 80, 200
        counted = []
        arcs = unitary._arcs
        monkeypatch.setattr(unitary, "_arcs",
                            lambda a, b: counted.append(np.broadcast(a, b).size) or arcs(a, b))
        rng = np.random.default_rng(5)
        for m in (9, 80, 200):
            poly = np.arange(m) * TWO_PI / m + rng.uniform(-3e-10, 3e-10, m)
            counted.clear()
            assert rigid_equivalent(CircleSet(poly), CircleSet((poly + 1.0) % TWO_PI)) is not None
            assert sum(counted) <= 12 * m * m, (m, sum(counted) / m / m)


def separation_floor_sets(rng):
    """Angle sets with gaps just above SPECTRUM_DEDUP_TOL, clustered inside
    the circle, across 0/2pi and among generic points."""
    gap = 1.001 * unitary.SPECTRUM_DEDUP_TOL
    yield np.arange(5) * gap + 1.0
    yield np.arange(-3, 3) * gap + gap / 2
    yield np.arange(-2, 3) * gap
    yield np.concatenate([rng.uniform(0.1, 6.0, 20), np.arange(-2, 3) * gap,
                          3.0 + np.arange(4) * gap])
    yield np.arange(7) * TWO_PI / 7


def test_nearest_arcs_have_the_bits_of_the_table_minimum():
    rng = np.random.default_rng(6)
    edges = [0.0, np.nextafter(0.0, 1.0), np.nextafter(TWO_PI, 0.0), TWO_PI]
    for angles in separation_floor_sets(rng):
        ref = CircleSet(angles).angles
        mids = np.append((ref[:-1] + ref[1:]) / 2, (ref[-1] + ref[0] + TWO_PI) / 2 % TWO_PI)
        q = np.concatenate([ref, mids, edges])
        fast = unitary._nearest_arcs(ref, q)
        assert not np.isnan(fast).any()
        assert np.array_equal(fast, unitary._arcs(q[:, None], ref).min(axis=1)), ref


def test_necklace_equality_is_a_dihedral_match():
    # near-regular polygons put the tolerance-aware minimum rotation at a
    # different start for a moved copy; == must still see one necklace
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        m = int(rng.integers(4, 9))
        a = np.arange(m) * TWO_PI / m + rng.uniform(-3e-10, 3e-10, m)
        rot, reflect = rng.uniform(0, TWO_PI), bool(rng.integers(2))
        s, t = CircleSet(a), CircleSet(((-a if reflect else a) + rot) % TWO_PI)
        assert rigid_equivalent(s, t) is not None
        assert canonical_form(s) == canonical_form(t)


def test_necklace_equality_rejects_other_gap_orders():
    s = CircleSet(np.array([0.0, 1.0, 2.5, 4.0]))
    t = CircleSet(np.array([0.0, 1.0, 2.0, 4.0]))
    assert canonical_form(s) != canonical_form(t)
    assert canonical_form(s) == canonical_form(CircleSet((2.0 - s.angles) % TWO_PI))


class TestTheoremFastPath:
    def test_small_spectra_decided_by_cardinality(self):
        u = np.diag([1.0, -1.0])
        v = np.diag([1j, -1j])
        dec = cois_unitary_theorem(u, v)
        assert dec.verdict == "Isomorphic"
        dec2 = cois_unitary_theorem(u, np.diag([1.0, 1j, -1.0]))
        assert dec2.verdict == "NotIsomorphic"

    def test_five_points_rigid_pair(self):
        a = np.array([0.0, 0.8, 1.7, 3.1, 5.0])
        u = np.diag(np.exp(1j * a))
        v = np.diag(np.exp(1j * ((a + 0.4) % TWO_PI)))
        dec = cois_unitary_theorem(u, v)
        assert dec.verdict == "Isomorphic"
        assert dec.method == "theorem-fast-path"

    def test_five_points_generic_pair(self):
        rng = np.random.default_rng(9)
        u = np.diag(np.exp(1j * np.sort(rng.uniform(0, TWO_PI, 5))))
        v = np.diag(np.exp(1j * np.sort(rng.uniform(0, TWO_PI, 5))))
        assert cois_unitary_theorem(u, v).verdict == "NotIsomorphic"

    def test_four_point_pair_goes_to_the_oracle(self):
        dec = cois_unitary_theorem(FOUR_POINT_U, FOUR_POINT_V)
        assert (dec.verdict, dec.method) == ("NotIsomorphic", "oracle")
        assert dec == cois_unitary_oracle(FOUR_POINT_U, FOUR_POINT_V)

    def test_four_against_five_points(self):
        five = np.diag(np.exp(1j * np.arange(5.0)))
        for u, v in ((FOUR_POINT_U, five), (five, FOUR_POINT_V)):
            dec = cois_unitary_theorem(u, v)
            assert (dec.verdict, dec.method) == ("NotIsomorphic", "theorem-fast-path")


class TestOracle:
    def test_settles_the_four_point_pair(self):
        dec = cois_unitary_oracle(FOUR_POINT_U, FOUR_POINT_V)
        assert dec.verdict == "NotIsomorphic"
        assert dec.certificate == {"failed_count": 24}

    def test_rotation_pair_has_pure_coefficients(self):
        a = np.array([0.1, 1.1, 2.3, 3.6, 5.1])
        lam = np.exp(1j * 0.75)
        u = np.diag(np.exp(1j * a))
        v = np.diag(lam * np.exp(1j * a))
        dec = cois_unitary_oracle(u, v)
        assert dec.verdict == "Isomorphic"
        alpha, beta, gamma = dec.certificate["forward_coeffs"]
        assert abs(alpha) < 1e-8 and abs(gamma) < 1e-8
        assert abs(beta - lam) < 1e-8
        assert max(dec.certificate["residuals"]) < 1e-8

    def test_reflection_pair(self):
        a = np.array([0.1, 1.1, 2.3, 3.6, 5.1])
        u = np.diag(np.exp(1j * a))
        v = np.diag(np.exp(-1j * a))
        dec = cois_unitary_oracle(u, v)
        assert dec.verdict == "Isomorphic"
        alpha, beta, gamma = dec.certificate["forward_coeffs"]
        assert abs(beta) < 1e-8 and abs(abs(gamma) - 1.0) < 1e-8

    def test_four_point_affine_pair_beats_the_fast_path(self):
        # spectra related by z -> ((a+b)/2) z + ((a-b)/2) conj z, built from the
        # four intersections of the unit circle with an (a, b)-ellipse; the
        # gap multisets differ so no rigid motion exists, yet the affine map
        # and its affine inverse witness the span conditions exactly
        ea, eb = 1.2, 0.9
        x = np.sqrt((1 - 1 / eb ** 2) / (1 / ea ** 2 - 1 / eb ** 2))
        y = np.sqrt(1 - x ** 2)
        ws = np.array([x + 1j * y, -x + 1j * y, -x - 1j * y, x - 1j * y])
        zs = ws.real / ea + 1j * ws.imag / eb
        u, v = np.diag(zs), np.diag(ws)
        assert rigid_equivalent(spectrum(u), spectrum(v)) is None
        dec = cois_unitary_theorem(u, v)
        assert (dec.verdict, dec.method) == ("Isomorphic", "oracle")
        orc = cois_unitary_oracle(u, v)
        assert dec.certificate["bijection"] == orc.certificate["bijection"]
        assert np.array_equal(dec.certificate["forward_coeffs"], orc.certificate["forward_coeffs"])
        alpha, beta, gamma = dec.certificate["forward_coeffs"]
        assert abs(alpha) < 1e-9
        assert beta == pytest.approx((ea + eb) / 2, abs=1e-9)
        assert gamma == pytest.approx((ea - eb) / 2, abs=1e-9)

    def test_agrees_with_theorem_on_three_points(self):
        # any two 3-point spectra are related by a degree-1 Mobius-like fit:
        # the 3x3 evaluation matrix [1, z, conj z] is invertible
        rng = np.random.default_rng(12)
        u = np.diag(np.exp(1j * np.sort(rng.uniform(0, TWO_PI, 3))))
        v = np.diag(np.exp(1j * np.sort(rng.uniform(0, TWO_PI, 3))))
        assert cois_unitary_oracle(u, v).verdict == "Isomorphic"
        assert cois_unitary_theorem(u, v).verdict == "Isomorphic"



class TestFourPointObstruction:
    def test_determinant_identity(self):
        # with V's spectrum (1, e^{i pi/4}, i, -1), the determinant of
        # [assignment | 1 | w | conj w] collapses to 2i(-a + 2b - sqrt2 c + (sqrt2 - 1) d)
        report = four_point_obstruction(FOUR_POINT_U, FOUR_POINT_V)
        ws = spectrum(FOUR_POINT_V).points()
        s2 = np.sqrt(2.0)
        zs = spectrum(FOUR_POINT_U).points()
        for rec in report["determinants"]:
            a, b, c, d = zs[np.array(rec["assignment"])]
            closed_form = 2j * (-a + 2 * b - s2 * c + (s2 - 1) * d)
            assert rec["determinant"] == pytest.approx(closed_form, abs=1e-9)
        assert report["all_nonzero"]
        assert report["min_modulus"] > 0.1
        assert len(report["determinants"]) == 24
        # sanity on the fixed columns used above
        assert np.allclose(np.sort(np.angle(ws) % TWO_PI),
                           np.sort(np.array([0, np.pi / 4, np.pi / 2, np.pi])))

    def test_requires_four_points(self):
        with pytest.raises(DimensionError):
            four_point_obstruction(np.diag([1.0, -1.0]), FOUR_POINT_V)


def test_circle_dist_wraps():
    assert circle_dist(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert circle_dist(1.0, 1.0) == 0.0
