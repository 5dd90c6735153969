"""Each route's certificate check, called from the library on the route's own
decision: it passes as the decision returns it and fails when one value moves."""

import copy

import numpy as np
import pytest

from osclass import degree1, linalg, osdist, unitary
from osclass.degree1 import DegreeOneMap, PointSet, deg1_via_opsys, degree_one_homeomorphic
from osclass.osdist import wt_classify
from osclass.unitary import cois_unitary_oracle, cois_unitary_theorem, spectrum
from test_cli import ellipse_pair


def verdicts(checks) -> dict:
    return {c["check"]: c["pass"] for c in checks}


def test_oracle_fits_replay_and_a_moved_coefficient_fails_its_half():
    zs, ws = ellipse_pair()
    ss, tt = spectrum(np.diag(zs)), spectrum(np.diag(ws))
    dec = cois_unitary_theorem(ss, tt)
    assert (dec.verdict, dec.method) == ("Isomorphic", "oracle")
    assert verdicts(unitary._certificate_checks(ss, tt, dec.certificate)) == {
        "forward span coefficients": True, "backward span coefficients": True}
    for half in ("forward", "backward"):
        cert = copy.deepcopy(dec.certificate)
        cert[f"{half}_coeffs"][1] += 0.5
        got = verdicts(unitary._certificate_checks(ss, tt, cert))
        assert got.pop(f"{half} span coefficients") is False and all(got.values())


@pytest.mark.parametrize("reflect", [False, True])
def test_rigid_motion_replays_and_a_moved_rotation_fails(reflect):
    a = np.array([0.0, 0.8, 1.7, 3.1, 5.0])
    ss = spectrum(np.diag(np.exp(1j * a)))
    tt = spectrum(np.diag(np.exp(1j * (0.4 - a if reflect else a + 0.4))))
    dec = cois_unitary_theorem(ss, tt)
    assert dec.certificate["motion"]["reflect"] is reflect
    [check] = unitary._certificate_checks(ss, tt, dec.certificate)
    assert check["check"] == "rigid motion" and check["pass"] is True
    cert = copy.deepcopy(dec.certificate)
    cert["motion"]["rotation"] += 0.5
    [check] = unitary._certificate_checks(ss, tt, cert)
    assert check["pass"] is False


def test_a_certificate_without_motion_or_bijection_has_nothing_to_replay():
    ss = spectrum(np.diag([1.0, 1j, -1.0]))
    dec = cois_unitary_theorem(ss, ss)
    assert dec.certificate == {"cardinality": 3}
    assert unitary._certificate_checks(ss, ss, dec.certificate) == []


def test_degree_one_maps_replay_and_a_moved_coefficient_fails_its_map():
    z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
    d, e = PointSet(1, z), PointSet(1, 2 * z + 1j)
    dec = degree_one_homeomorphic(d, e)
    assert dec.homeomorphic
    checks = degree1._certificate_checks(d, e, dec.witness)
    assert [c["check"] for c in checks] == [
        "degree-1 forward map", "degree-1 forward products",
        "degree-1 backward map", "degree-1 backward products"]
    assert all(c["pass"] for c in checks)
    # the map check's residual is the one the decision reports
    assert [checks[0]["residual"], checks[2]["residual"]] == dec.witness["residuals"]
    for half in ("forward", "backward"):
        witness = dict(dec.witness)
        coeffs = witness[half].coeffs.copy()
        coeffs[0, 2] += 0.5  # the coefficient of z
        witness[half] = DegreeOneMap(1, coeffs)
        got = verdicts(degree1._certificate_checks(d, e, witness))
        assert got.pop(f"degree-1 {half} map") is False and all(got.values())


def test_via_opsys_bijection_replays_and_a_swapped_pair_fails_both_checks():
    z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
    d, e = PointSet(1, z), PointSet(1, 2 * z + 1j)
    dec = deg1_via_opsys(d, e)
    assert dec.witness == {"bijection": [0, 1, 2, 3, 4]}
    checks = degree1._certificate_checks(d, e, dec.witness)
    assert verdicts(checks) == {"function span forward": True, "function span backward": True}
    # each residual is the distance of the pulled-back span from its own fit
    fd, fe = (linalg.FactoredSpan(degree1._function_span(p)) for p in (d, e))
    for check, span, pulled in zip(checks, (fd, fe), (fe.span, fd.span)):
        assert check["residual"] == np.max(np.abs(span.span @ span.fit(pulled)[0] - pulled))
    assert verdicts(degree1._certificate_checks(d, e, {"bijection": [1, 0, 2, 3, 4]})) == {
        "function span forward": False, "function span backward": False}


def test_wt_unitary_replays_and_a_moved_coefficient_fails():
    dec = wt_classify(0.2, 0.9, "two_by_two")
    checks = osdist._certificate_checks(0.2, 0.9, dec.certificate)
    assert verdicts(checks) == {"W_t unitary": True, "W_t coefficients": True,
                                "W_t onto rank": True}
    assert dec.certificate["spans_match"] is True
    cert = copy.deepcopy(dec.certificate)
    cert["coefficients"][1] += 0.5
    assert verdicts(osdist._certificate_checks(0.2, 0.9, cert)) == {
        "W_t unitary": True, "W_t coefficients": False, "W_t onto rank": True}


def clustered_oracle():
    """An oracle decision on 4 eigenvalues within 1e-4 rad: 1, z and conj z
    are nearly dependent there (1 - (z + conj z) / 2 is below 2e-9)."""
    ang = 1e-4 * np.array([-0.5, -0.1, 0.2, 0.5])
    u, v = np.diag(np.exp(1j * ang)), np.diag(np.exp(1j * (ang[::-1] + 3e-5)))
    dec = cois_unitary_oracle(u, v)
    assert (dec.verdict, dec.method) == ("Isomorphic", "oracle")
    return spectrum(u), spectrum(v), dec.certificate


def test_oracle_fits_replay_on_a_clustered_spectrum():
    ss, tt, cert = clustered_oracle()
    assert verdicts(unitary._certificate_checks(ss, tt, cert)) == {
        "forward span coefficients": True, "backward span coefficients": True}


@pytest.mark.parametrize("push", [0.0, 1e4])
def test_a_wrong_bijection_fails_however_large_its_coefficients(push):
    # each half's least-squares fit for the wrong bijection, plus push times
    # the near-null combination (1, -1/2, -1/2): the certificate's own
    # sum |c_i| would allow a residual of 5e-3 and more
    ss, tt, cert = clustered_oracle()
    perm = np.roll(cert["bijection"], 1)
    forged = {"bijection": perm}
    zs, ws = ss.points(), tt.points()
    for half, src, dst in (("forward", zs, ws[perm]), ("backward", ws, zs[np.argsort(perm)])):
        span = linalg.FactoredSpan(np.column_stack([np.ones_like(src), src, src.conj()]))
        forged[f"{half}_coeffs"] = span.fit(dst)[0][:, 0] + push * np.array([1, -0.5, -0.5])
    assert verdicts(unitary._certificate_checks(ss, tt, forged)) == {
        "forward span coefficients": False, "backward span coefficients": False}


def test_a_bijection_with_an_infinite_coefficient_fails():
    ss, tt, cert = clustered_oracle()
    for perm in (cert["bijection"], np.roll(cert["bijection"], 1)):
        forged = dict(cert, bijection=perm, forward_coeffs=np.array([0, np.inf, 0]))
        got = unitary._certificate_checks(ss, tt, forged)
        assert got[0] == {"check": "forward span coefficients", "residual": np.inf,
                          "pass": False}


def test_a_degree_one_map_with_an_infinite_coefficient_fails_both_checks():
    z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
    d, e = PointSet(1, z), PointSet(1, 2 * z + 1j)
    witness = dict(degree_one_homeomorphic(d, e).witness)
    coeffs = witness["forward"].coeffs.copy()
    coeffs[0, 2] = np.inf
    witness["forward"] = DegreeOneMap(1, coeffs)
    got = verdicts(degree1._certificate_checks(d, e, witness))
    assert got.pop("degree-1 forward map") is False
    assert got.pop("degree-1 forward products") is False and all(got.values())


class TestReplayRule:
    def test_a_combination_is_measured_by_its_terms_not_its_value(self):
        # (0.5, 0) = 5e9 (b0 - b1) with b0 = (1 + 1e-10, 1), b1 = (1, 1): a
        # value of about 0.5 from terms of 5e9, whose rounding is far below
        # 1e-7 of the terms
        span = linalg.FactoredSpan(np.array([[1.0 + 1e-10, 1.0], [1.0, 1.0]]))
        value = span.span @ np.array([5e9, -5e9])
        check = linalg._replay_check("c", value + 1e-4, value, span)
        assert check == {"check": "c", "residual": pytest.approx(1e-4), "pass": True}
        assert not linalg._replay_check("c", value + 2e3, value, span)["pass"]
        # the same residual against the value alone fails
        assert linalg._replay_check("c", value + 1e-4, value)["pass"] is False

    def test_the_scale_is_the_largest_over_output_columns(self):
        span = linalg.FactoredSpan(np.array([[1.0, 2.0], [3.0, -4.0]]))  # column maxima 3, 4
        expected = span.span @ np.array([[1.0, 0.0], [1.0, -10.0]])  # sums 3 + 4 = 7 and 40
        edge = linalg.REPLAY_BOUND * 40
        assert linalg._replay_check("c", expected + edge / 2, expected, span)["pass"]
        assert not linalg._replay_check("c", expected + 2 * edge, expected, span)["pass"]

    def test_the_scale_is_the_fit_of_the_expected_value_not_the_certificate(self):
        # b0 - b1 - b2 is 1e-9 (1, 0): a certificate adding 1e6 times it moves
        # its value by 1e-3, whatever sum |c_i| that gives it
        span = linalg.FactoredSpan(np.array([[1.0 + 1e-9, 1.0, 0.0], [1.0, 0.0, 1.0]]))
        expected = span.span @ np.array([1.0, 2.0, 3.0])
        forged = span.span @ (np.array([1.0, 2.0, 3.0]) + 1e6 * np.array([1.0, -1.0, -1.0]))
        assert not linalg._replay_check("c", forged, expected, span)["pass"]

    def test_a_value_outside_the_span_fails_even_when_matched(self):
        span = linalg.FactoredSpan(np.array([[1.0], [1.0]]))
        expected = np.array([1.0, -1.0])
        assert not linalg._replay_check("c", expected, expected, span)["pass"]
        assert linalg._replay_check("c", np.full(2, 2.0 + 1e-8), np.full(2, 2.0), span)["pass"]

    def test_a_value_that_is_not_finite_fails(self):
        span = linalg.FactoredSpan(np.array([[1.0], [1.0]]))
        assert not linalg._replay_check("c", np.array([np.inf, np.inf]), np.ones(2), span)["pass"]
        assert not linalg._replay_check("c", np.ones(2), np.array([np.inf, 1.0]), span)["pass"]
        assert not linalg._replay_check("c", np.inf, np.inf)["pass"]

    @pytest.mark.parametrize("expected", [np.array([1.0, 2.0, 4.0]),
                                          np.array([[1.0, 0.0], [2.0, 1.0], [4.0, 3.0]])])
    def test_a_value_in_the_span_is_its_own_fit_bit_for_bit(self, expected):
        span = linalg.FactoredSpan(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 3.0]]))
        own = np.reshape(span.span @ span.fit(expected)[0], expected.shape)
        check = linalg._replay_check("c", None, expected, span)
        assert check["pass"] and check == linalg._replay_check("c", own, expected, span)
        moved = expected + 1e-3 * (expected == 4.0)
        assert not linalg._replay_check("c", None, moved, span)["pass"]

    def test_a_value_in_the_span_that_is_not_finite_fails_with_a_nan_residual(self):
        span = linalg.FactoredSpan(np.array([[1.0], [1.0]]))
        check = linalg._replay_check("c", None, np.array([np.inf, 1.0]), span)
        assert np.isnan(check["residual"]) and check["pass"] is False

    def test_other_values_keep_the_scale_of_the_expected_value_past_one(self):
        assert linalg._replay_check("c", 0.5e-7, 0.0)["pass"]
        assert not linalg._replay_check("c", 2e-7, 0.0)["pass"]
        assert linalg._replay_check("c", 3.0 + 2e-7, 3)["pass"]
        assert not linalg._replay_check("c", 3.0 + 6e-7, 3)["pass"]
        assert not linalg._replay_check("c", np.nan, 0.0)["pass"]
