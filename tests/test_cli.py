import json
import math
from io import StringIO

import numpy as np
import pytest

from osclass.cli import (EXIT_CAPACITY, EXIT_INVALID, EXIT_OK, EXIT_UNKNOWN,
                         run)
from osclass.io import canonical_report


def call(argv):
    buf = StringIO()
    code = run(argv, stdout=buf)
    out = buf.getvalue().strip()
    return code, (json.loads(out) if out else None), out


def cnum(z):
    return [float(np.real(z)), float(np.imag(z))]


def matrix_file(tmp_path, name, m):
    rows = [[cnum(z) for z in row] for row in np.asarray(m, dtype=complex)]
    p = tmp_path / name
    p.write_text(json.dumps({"rows": rows}))
    return str(p)


def points_file(tmp_path, name, pts):
    data = [[cnum(z) for z in row] for row in np.atleast_2d(np.asarray(pts, dtype=complex)).T.T]
    p = tmp_path / name
    p.write_text(json.dumps({"dim": len(data[0]), "points": data}))
    return str(p)


def structure_file(tmp_path, name, metric, relations=None):
    obj = {"metric": np.asarray(metric, dtype=float).tolist()}
    if relations:
        obj["relations"] = relations
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


FOUR_POINT_U = np.diag([1, -1, 1j, -1j])
FOUR_POINT_V = np.diag([1, (1 + 1j) / np.sqrt(2), 1j, -1])


class TestSpectrumAndCanon:
    def test_spectrum(self, tmp_path):
        f = matrix_file(tmp_path, "u.json", np.diag([1.0, 1j]))
        code, rep, _ = call(["spectrum", f])
        assert code == EXIT_OK
        assert rep["size"] == 2
        assert rep["angles"] == pytest.approx([0.0, math.pi / 2])

    def test_canon(self, tmp_path):
        f = matrix_file(tmp_path, "u.json", np.diag([1.0, -1.0, 1j]))
        code, rep, _ = call(["canon", f])
        assert code == EXIT_OK
        assert sum(rep["gaps"]) == pytest.approx(2 * math.pi)

    def test_non_unitary_is_invalid(self, tmp_path):
        f = matrix_file(tmp_path, "m.json", np.diag([1.0, 3.0]))
        code, rep, _ = call(["spectrum", f])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "NotUnitaryError"


class TestUnitaryCois:
    def test_four_point_pair_without_oracle_is_unknown(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv])
        assert code == EXIT_UNKNOWN
        assert rep["verdict"] == "Unknown"

    def test_four_point_pair_with_oracle(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv, "--oracle"])
        assert code == EXIT_OK
        assert rep["verdict"] == "NotIsomorphic"
        assert len(rep["certificate"]["failed_bijections"]) == 24
        assert len(rep["obstruction"]["determinants"]) == 24
        assert rep["obstruction"]["all_nonzero"] is True

    def test_capacity_exit(self, tmp_path):
        # a 4-point Unknown pair escalates to the oracle, which refuses caps < 4
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv, "--oracle", "--cap", "3"])
        assert code == EXIT_CAPACITY
        assert rep["error"]["kind"] == "capacity"


class TestDeg1:
    def test_affine_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        fe = points_file(tmp_path, "e.json", (2 * z + 1j).reshape(-1, 1))
        code, rep, _ = call(["deg1", fd, fe])
        assert code == EXIT_OK
        assert rep["homeomorphic"] is True
        assert max(rep["witness"]["residuals"]) < 1e-8
        code2, rep2, _ = call(["deg1", fd, fe, "--via-opsys"])
        assert code2 == EXIT_OK and rep2["homeomorphic"] is True

    def test_malformed_input(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, rep, _ = call(["deg1", str(p), str(p)])
        assert code == EXIT_INVALID


class TestNorm:
    def test_level_one_norm(self, tmp_path):
        fs = tmp_path / "sys.json"
        fs.write_text(json.dumps(
            {"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}))
        fe = tmp_path / "el.json"
        # coefficients (0, 1, 0): the element E12, norm 1
        fe.write_text(json.dumps(
            {"level": 1, "coeffs": [[[[0, 0], [1, 0], [0, 0]]]]}))
        code, rep, _ = call(["norm", str(fs), "--element", str(fe)])
        assert code == EXIT_OK
        assert rep["norm"] == pytest.approx(1.0)
        assert rep["system_dim"] == 3


class TestOsdist:
    def test_self_distance(self, tmp_path):
        fs = tmp_path / "sys.json"
        fs.write_text(json.dumps(
            {"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}))
        code, rep, _ = call(["osdist", str(fs), str(fs), "--levels", "2",
                             "--restarts", "2", "--seed", "1"])
        assert code == EXIT_OK
        assert rep["weighted"] <= 1e-6
        assert len(rep["per_level"]) == 2

    def test_overflowing_generator_exits_invalid(self, tmp_path):
        # finite entries whose norm passes the float range overflow the rank
        # test's SVD; that used to read as rank 0, silently dropping the
        # generator and reporting a 1-dim system
        fs = tmp_path / "big.json"
        fs.write_text(json.dumps({"generators": [{"rows": [[[1e308, 0]] * 2] * 2}]}))
        code, rep, _ = call(["osdist", str(fs), str(fs), "--levels", "1",
                               "--restarts", "1"])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError"
        assert "overflow" in rep["error"]["message"]


class TestFamily:
    def test_3x3_off_diagonal(self):
        code, rep, _ = call(["family", "wt", "--variant", "3x3", "--t", "0.3", "--s", "0.7"])
        assert code == EXIT_OK
        assert rep["verdict"] == "NotIsomorphic"

    def test_3x3_diagonal(self):
        code, rep, _ = call(["family", "wt", "--variant", "3x3", "--t", "0.5", "--s", "0.5"])
        assert code == EXIT_OK
        assert rep["verdict"] == "Isomorphic"

    def test_2x2_reports_theorem_method(self):
        # --seed and --restarts are accepted and ignored
        code, rep, _ = call(["family", "wt", "--variant", "2x2", "--t", "0.3",
                             "--s", "0.7", "--seed", "5", "--restarts", "16"])
        assert code == EXIT_OK
        assert (rep["verdict"], rep["method"]) == ("Isomorphic", "theorem-fast-path")
        _, plain, _ = call(["family", "wt", "--variant", "2x2", "--t", "0.3", "--s", "0.7"])
        assert plain["certificate"] == rep["certificate"]

    def test_out_of_range(self):
        code, rep, _ = call(["family", "wt", "--variant", "3x3", "--t", "0", "--s", "0.5"])
        assert code == EXIT_INVALID


class TestGh:
    def test_dist_and_theory(self, tmp_path):
        m = structure_file(tmp_path, "m.json", [[0.0, 1.0], [1.0, 0.0]])
        n = structure_file(tmp_path, "n.json", [[0.0, 2.0], [2.0, 0.0]])
        code, rep, _ = call(["gh-dist", m, m, "--kmax", "2"])
        assert code == EXIT_OK and rep["distance"] == 0.0
        code, rep, _ = call(["gh-dist", m, n, "--kmax", "2"])
        assert code == EXIT_OK and rep["distance"] > 0.5
        code, t1, _ = call(["gh-theory", m, "--depth", "2"])
        code2, t2, _ = call(["gh-theory", n, "--depth", "2"])
        assert code == EXIT_OK and code2 == EXIT_OK
        assert t1["length"] == t2["length"]
        assert t1["fingerprint"] != t2["fingerprint"]

    def test_capacity(self, tmp_path):
        big = structure_file(tmp_path, "big.json",
                             (np.ones((8, 8)) - np.eye(8)).tolist())
        code, rep, _ = call(["gh-dist", big, big])
        assert code == EXIT_CAPACITY


class TestDeterminism:
    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        argv = ["unitary-cois", fu, fv, "--oracle"]
        _, _, a = call(argv)
        _, _, b = call(argv)
        assert a == b

    def test_timing_flag_adds_wall_time(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", np.diag([1.0, 1j]))
        _, rep, _ = call(["--timing", "spectrum", fu])
        assert "wall_time_s" in rep
        _, rep2, _ = call(["spectrum", fu])
        assert "wall_time_s" not in rep2


class TestVerify:
    def test_replay_roundtrip(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", np.diag([1.0, -1.0, 1j]))
        argv = ["canon", fu]
        _, _, text = call(argv)
        report_path = tmp_path / "report.json"
        report_path.write_text(text + "\n")
        code, rep, _ = call(["verify", str(report_path)])
        assert code == EXIT_OK
        assert rep["verified"] is True

    def test_detects_tampering(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", np.diag([1.0, -1.0, 1j]))
        _, report, _ = call(["canon", fu])
        # change a computed value, never the echoed command (whose input
        # path must keep pointing at the matrix file)
        report["size"] += 1
        report_path = tmp_path / "tampered.json"
        report_path.write_text(canonical_report(report) + "\n")
        code, rep, _ = call(["verify", str(report_path)])
        assert code == EXIT_INVALID
        assert rep["replay_identical"] is False
        assert rep["verified"] is False

    def test_replays_isomorphism_certificate(self, tmp_path):
        # 4-point pair related by the real-affine map z -> 1.05 z + 0.15 conj z
        # (an ellipse meeting the circle at four points): the fast path says
        # Unknown, the oracle proves Isomorphic, and verify replays the fit
        ea, eb = 1.2, 0.9
        x = np.sqrt((1 - 1 / eb ** 2) / (1 / ea ** 2 - 1 / eb ** 2))
        y = np.sqrt(1 - x ** 2)
        ws = np.array([x + 1j * y, -x + 1j * y, -x - 1j * y, x - 1j * y])
        zs = ws.real / ea + 1j * ws.imag / eb
        fu = matrix_file(tmp_path, "u.json", np.diag(zs))
        fv = matrix_file(tmp_path, "v.json", np.diag(ws))
        argv = ["unitary-cois", fu, fv, "--oracle"]
        _, rep, text = call(argv)
        assert rep["verdict"] == "Isomorphic"
        report_path = tmp_path / "iso.json"
        report_path.write_text(text + "\n")
        code, vrep, _ = call(["verify", str(report_path)])
        assert code == EXIT_OK
        assert any(c["check"].startswith("forward") and c["pass"]
                   for c in vrep["certificate_checks"])


def ellipse_pair():
    """A 4-point spectral pair related by a real-affine map, not a rigid motion."""
    ea, eb = 1.2, 0.9
    x = np.sqrt((1 - 1 / eb ** 2) / (1 / ea ** 2 - 1 / eb ** 2))
    y = np.sqrt(1 - x ** 2)
    ws = np.array([x + 1j * y, -x + 1j * y, -x - 1j * y, x - 1j * y])
    return ws.real / ea + 1j * ws.imag / eb, ws


def stored_report(tmp_path, argv, name="report.json"):
    _, rep, text = call(argv)
    path = tmp_path / name
    path.write_text(text + "\n")
    return rep, path


class TestVerifyCertificates:
    def test_options_before_positionals(self, tmp_path):
        zs, ws = ellipse_pair()
        fu = matrix_file(tmp_path, "u.json", np.diag(zs))
        fv = matrix_file(tmp_path, "v.json", np.diag(ws))
        rep, path = stored_report(tmp_path, ["unitary-cois", "--oracle", "--tol", "1e-9", fu, fv])
        assert rep["verdict"] == "Isomorphic"
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_OK
        assert vrep["verified"] is True
        assert {c["check"] for c in vrep["certificate_checks"]} == {
            "forward span coefficients", "backward span coefficients"}

    def test_degree_one_witness_replays_both_halves(self, tmp_path):
        z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        fe = points_file(tmp_path, "e.json", (2 * z.conj() + 1j).reshape(-1, 1))
        _, path = stored_report(tmp_path, ["deg1", fd, fe])
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_OK
        assert [c["check"] for c in vrep["certificate_checks"]] == [
            "degree-1 forward map", "degree-1 forward products",
            "degree-1 backward map", "degree-1 backward products"]
        assert all(c["pass"] for c in vrep["certificate_checks"])

    @pytest.mark.parametrize("kind,half", [("oracle", "forward"), ("oracle", "backward"),
                                           ("deg1", "forward"), ("deg1", "backward")])
    def test_tampered_coefficient_fails_its_half(self, tmp_path, kind, half):
        if kind == "oracle":
            zs, ws = ellipse_pair()
            fu = matrix_file(tmp_path, "u.json", np.diag(zs))
            fv = matrix_file(tmp_path, "v.json", np.diag(ws))
            rep, _ = stored_report(tmp_path, ["unitary-cois", fu, fv, "--oracle"])
            rep["certificate"][f"{half}_coeffs"][1][0] += 0.5
            name = f"{half} span coefficients"
        else:
            z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
            fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
            fe = points_file(tmp_path, "e.json", (2 * z + 1j).reshape(-1, 1))
            rep, _ = stored_report(tmp_path, ["deg1", fd, fe])
            rep["witness"][half]["coeffs"][0][2][0] += 0.5
            name = f"degree-1 {half} map"
        path = tmp_path / "tampered.json"
        path.write_text(canonical_report(rep) + "\n")
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_INVALID
        assert vrep["verified"] is False
        verdicts = {c["check"]: c["pass"] for c in vrep["certificate_checks"]}
        assert verdicts.pop(name) is False
        assert verdicts and all(verdicts.values())  # every other check still replays

    def test_forged_map_fails_the_products_check(self, tmp_path):
        # w = |z|^2 is a fit over the monomials, so the map check passes, but
        # |w|^2 = |z|^4 is outside their span: no degree-1 map sends z to w
        z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        fe = points_file(tmp_path, "e.json", (np.abs(z) ** 2 + 0j).reshape(-1, 1))
        rep, _ = stored_report(tmp_path, ["deg1", fd, fe])
        assert rep["homeomorphic"] is False
        modulus = {"ambient": 1, "coeffs": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}
        rep["homeomorphic"] = True
        rep["witness"] = {"bijection": list(range(5)), "forward": modulus, "backward": modulus}
        path = tmp_path / "forged.json"
        path.write_text(canonical_report(rep) + "\n")
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_INVALID
        verdicts = {c["check"]: c["pass"] for c in vrep["certificate_checks"]}
        assert verdicts["degree-1 forward map"] is True
        assert verdicts["degree-1 forward products"] is False

    def test_rigid_motion_replays(self, tmp_path):
        a = np.array([0.0, 0.8, 1.7, 3.1, 5.0])
        fu = matrix_file(tmp_path, "u.json", np.diag(np.exp(1j * a)))
        fv = matrix_file(tmp_path, "v.json", np.diag(np.exp(1j * (0.4 - a))))
        rep, path = stored_report(tmp_path, ["unitary-cois", fu, fv])
        assert rep["certificate"]["motion"]["reflect"] is True
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_OK
        [check] = vrep["certificate_checks"]
        assert check["check"] == "rigid motion" and check["pass"] is True
        assert check["residual"] <= 1e-7

    def test_tampered_rotation_fails_the_motion_check(self, tmp_path):
        a = np.array([0.0, 0.8, 1.7, 3.1, 5.0])
        fu = matrix_file(tmp_path, "u.json", np.diag(np.exp(1j * a)))
        fv = matrix_file(tmp_path, "v.json", np.diag(np.exp(1j * (a + 0.4))))
        rep, _ = stored_report(tmp_path, ["unitary-cois", fu, fv])
        rep["certificate"]["motion"]["rotation"] += 0.5
        path = tmp_path / "tampered.json"
        path.write_text(canonical_report(rep) + "\n")
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_INVALID
        assert vrep["verified"] is False
        [check] = vrep["certificate_checks"]
        assert check["check"] == "rigid motion" and check["pass"] is False


WT2_ARGV = ["family", "wt", "--variant", "2x2", "--t", "0.2", "--s", "0.9"]
WT2_CHECKS = ["W_t unitary", "W_t coefficients", "W_t onto rank"]


class TestVerifyWt2:
    def test_certificate_replays(self, tmp_path):
        _, path = stored_report(tmp_path, WT2_ARGV)
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_OK
        assert vrep["verified"] is True
        assert [c["check"] for c in vrep["certificate_checks"]] == WT2_CHECKS
        assert all(c["pass"] for c in vrep["certificate_checks"])

    def test_tampered_coefficient_fails(self, tmp_path):
        rep, _ = stored_report(tmp_path, WT2_ARGV)
        rep["certificate"]["coefficients"][1][0] += 0.5
        path = tmp_path / "tampered.json"
        path.write_text(canonical_report(rep) + "\n")
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_INVALID
        assert vrep["verified"] is False
        verdicts = {c["check"]: c["pass"] for c in vrep["certificate_checks"]}
        assert verdicts == {"W_t unitary": True, "W_t coefficients": False,
                            "W_t onto rank": True}


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_malformed_report_exits_invalid(tmp_path, text):
    p = tmp_path / "report.json"
    p.write_text(text)
    code, rep, _ = call(["verify", str(p)])
    assert code == EXIT_INVALID
    assert rep["error"]["kind"] == "InputFormatError"


@pytest.mark.parametrize("prefix", [[], ["--timing"]])
def test_verify_report_naming_itself_exits_invalid(tmp_path, prefix):
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"command": prefix + ["verify", str(p)]}))
    code, rep, _ = call(["verify", str(p)])
    assert code == EXIT_INVALID
    assert rep["error"]["kind"] == "InputFormatError"


@pytest.mark.parametrize("command,obj", [
    ("deg1", {"dim": "x", "points": [[[0, 0]], [[1, 0]]]}),
    ("gh-theory", {"metric": "abc"}),
    ("gh-theory", {"metric": [[0, 1], [1, 0]], "domains": [["a"]]}),
])
def test_malformed_json_values_exit_invalid(tmp_path, command, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    argv = [command, str(p), str(p)] if command == "deg1" else [command, str(p)]
    code, rep, _ = call(argv)
    assert code == EXIT_INVALID
    assert rep["error"]["kind"] == "InputFormatError"


def test_unknown_subcommand_is_invalid():
    code, _, _ = call(["frobnicate"])
    assert code == EXIT_INVALID
