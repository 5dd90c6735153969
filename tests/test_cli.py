import json
import math
import os
import subprocess
import sys
import textwrap
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from osclass import cli, unitary
from osclass.cli import EXIT_CAPACITY, EXIT_INVALID, EXIT_OK, run
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
    def test_four_point_pair_without_oracle_is_decided(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv])
        assert code == EXIT_OK
        assert (rep["verdict"], rep["method"]) == ("NotIsomorphic", "oracle")
        assert rep["certificate"] == {"failed_count": 24}
        assert rep["obstruction"]["all_nonzero"] is True

    def test_four_point_pair_with_oracle(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv, "--oracle"])
        assert code == EXIT_OK
        assert rep["verdict"] == "NotIsomorphic"
        assert rep["certificate"] == {"failed_count": 24}
        assert len(rep["obstruction"]["determinants"]) == 24
        assert rep["obstruction"]["all_nonzero"] is True
        _, plain, _ = call(["unitary-cois", fu, fv])
        assert {**plain, "command": rep["command"]} == rep

    def test_cap_is_inert(self, tmp_path):
        # --oracle and --cap are accepted and echoed; the decision ignores them
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv, "--oracle", "--cap", "3"])
        assert code == EXIT_OK
        assert rep["certificate"] == {"failed_count": 24}
        assert rep["tolerances"] == {"tol": 1e-9, "cap": 3}

    def test_four_point_negative_extracts_each_spectrum_once(self, tmp_path, monkeypatch):
        calls = []
        spectrum = unitary.spectrum
        monkeypatch.setattr(unitary, "spectrum", lambda *a, **k: calls.append(1) or spectrum(*a, **k))
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", FOUR_POINT_V)
        code, rep, _ = call(["unitary-cois", fu, fv])
        assert code == EXIT_OK and "obstruction" in rep
        assert len(calls) == 2

    def test_four_against_five_points_is_not_isomorphic(self, tmp_path):
        fu = matrix_file(tmp_path, "u.json", FOUR_POINT_U)
        fv = matrix_file(tmp_path, "v.json", np.diag(np.exp(1j * np.arange(5.0))))
        code, rep, _ = call(["unitary-cois", fu, fv])
        assert code == EXIT_OK
        assert (rep["verdict"], rep["method"]) == ("NotIsomorphic", "theorem-fast-path")
        assert "obstruction" not in rep


@pytest.mark.parametrize("command", ["spectrum", "canon", "unitary-cois", "deg1"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "1e400", "x"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, command, tol):
    # an affine 5-point pair: with --tol nan, deg1 used to answer homeomorphic false
    z = np.array([0.3 + 1j, -2.0, 0.5j, 1.0, 2.0 - 1j])
    if command == "deg1":
        files = [points_file(tmp_path, "d.json", z.reshape(-1, 1)),
                 points_file(tmp_path, "e.json", (2 * z + 1j).reshape(-1, 1))]
    else:
        files = [matrix_file(tmp_path, "u.json", np.diag(np.exp(1j * np.arange(5.0))))]
        files *= 2 if command == "unitary-cois" else 1
    assert call([command, *files, "--tol=0"])[1] is not None  # 0 passes the parser
    code, rep, _ = call([command, *files, f"--tol={tol}"])
    assert code == EXIT_INVALID and rep is None


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

    def test_affine_pair_past_the_square_of_the_float_range(self, tmp_path):
        # the squares in a plain column norm of |z|^2 pass the float range
        # here, which used to exit 2 on both routes
        rng = np.random.default_rng(0)
        z = 1e150 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        fe = points_file(tmp_path, "e.json", ((2 - 1j) * z[::-1] + 5e150).reshape(-1, 1))
        for extra in ([], ["--via-opsys"]):
            code, rep, text = call(["deg1", fd, fe] + extra)
            assert code == EXIT_OK and rep["homeomorphic"] is True, text

    def test_malformed_input(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, rep, _ = call(["deg1", str(p), str(p)])
        assert code == EXIT_INVALID

    def test_two_hundred_point_negative_reports_every_bijection(self, tmp_path):
        # no default cap: the search settles a generic pair at once and
        # reports tried = 200!, a 375-digit integer that verify reads back
        rng = np.random.default_rng(6)
        fd, fe = (points_file(tmp_path, f"{n}.json", (rng.standard_normal(200)
                              + 1j * rng.standard_normal(200)).reshape(-1, 1)) for n in "de")
        for extra in ([], ["--via-opsys"]):
            code, rep, text = call(["deg1", fd, fe] + extra)
            assert code == EXIT_OK
            assert rep["homeomorphic"] is False and rep["tried"] == math.factorial(200)
            assert len(str(rep["tried"])) == 375
            assert rep["tolerances"] == {"tol": 1e-9, "cap": None}
            report_path = tmp_path / "report.json"
            report_path.write_text(text + "\n")
            code, vrep, _ = call(["verify", str(report_path)])
            assert code == EXIT_OK and vrep["verified"] is True

    def test_pixel_scale_pair_is_decided_and_replays(self, tmp_path):
        # coordinates of size 10^3: a 12-point affine image is found without
        # running into the node budget, and verify replays its witness
        rng = np.random.default_rng(8)
        z = np.round(1e3 * rng.uniform(0, 1, 12)) + 1j * np.round(1e3 * rng.uniform(0, 1, 12))
        perm = rng.permutation(12)
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        fe = points_file(tmp_path, "e.json", ((0.6 - 0.8j) * z + 40)[perm].reshape(-1, 1))
        for extra in ([], ["--via-opsys"]):
            code, rep, text = call(["deg1", fd, fe] + extra)
            assert code == EXIT_OK and rep["homeomorphic"] is True
            assert rep["witness"]["bijection"] == np.argsort(perm).tolist()
            report_path = tmp_path / "report.json"
            report_path.write_text(text + "\n")
            code, vrep, _ = call(["verify", str(report_path)])
            assert code == EXIT_OK and vrep["verified"] is True

    def test_explicit_cap_is_honoured_and_echoed(self, tmp_path):
        z = np.arange(6) + 0.5j * np.arange(6) ** 2
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        code, rep, _ = call(["deg1", fd, fd, "--cap", "5"])
        assert code == EXIT_CAPACITY and rep["error"]["kind"] == "capacity"
        code, rep, _ = call(["deg1", fd, fd, "--cap", "6"])
        assert code == EXIT_OK and rep["tried"] == 1
        assert rep["tolerances"] == {"tol": 1e-9, "cap": 6}

    @pytest.mark.parametrize("extra", [[], ["--via-opsys"]])
    def test_negative_cap_is_an_input_error(self, tmp_path, extra):
        fd = points_file(tmp_path, "d.json", np.array([0, 1, 1j, 2 + 1j]).reshape(-1, 1))
        code, rep, _ = call(["deg1", fd, fd, "--cap", "-3"] + extra)
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError" and "cap" in rep["error"]["message"]

    def test_factorial_past_the_digit_limit_exits_with_capacity(self, tmp_path):
        # m! for m = 1559 has more digits than Python converts to text, so
        # the count could be neither printed nor read back
        limit = sys.get_int_max_str_digits()
        m = next(m for m in range(2, 10**5) if math.factorial(m) >= 10**limit)
        rng = np.random.default_rng(7)
        fd, fe = (points_file(tmp_path, f"{n}.json", (rng.standard_normal(m)
                              + 1j * rng.standard_normal(m)).reshape(-1, 1)) for n in "de")
        code, rep, _ = call(["deg1", fd, fe])
        assert code == EXIT_CAPACITY
        assert rep["error"]["kind"] == "capacity" and "digits" in rep["error"]["message"]


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

    def test_theory_on_empty_first_domain_exits_invalid(self, tmp_path):
        # every universal sentence quantifies over the first domain, so it
        # has no value there; this used to end in a ValueError traceback
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                 "domains": [[], [0, 1, 2]]}))
        code, rep, _ = call(["gh-theory", str(p)])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError"

    @pytest.mark.parametrize("key", ["-1", "3", "-4"])
    def test_table_key_outside_the_points_exits_invalid(self, tmp_path, key):
        # "-1" used to wrap through numpy indexing and set R[2]
        m = structure_file(tmp_path, "m.json", [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                           {"R": {"arity": 1, "table": {key: 0.5}}})
        code, rep, _ = call(["gh-theory", m])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "InputFormatError"
        assert "outside range(3)" in rep["error"]["message"]

    @pytest.mark.parametrize("domains", [[[0.9], [0, 1.7, 2]], [[True], [0, "1", 2]]])
    def test_non_integer_domain_index_exits_invalid(self, tmp_path, domains):
        # these domains used to pass as [[0], [0, 1, 2]] and exit 0
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "domains": domains}))
        code, rep, _ = call(["gh-dist", str(p), str(p)])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "InputFormatError"

    def test_relation_of_one_side_only_exits_invalid_in_both_orders(self, tmp_path):
        # the symbols used to come from the first structure alone, so one
        # order exited 0 with distance 0 and the other exited 2
        plain = structure_file(tmp_path, "plain.json", [[0.0, 1.0], [1.0, 0.0]])
        marked = structure_file(tmp_path, "marked.json", [[0.0, 1.0], [1.0, 0.0]],
                                {"T": {"arity": 1, "table": {"1": 1.0}}})
        for a, b in ((plain, marked), (marked, plain)):
            code, rep, _ = call(["gh-dist", a, b])
            assert code == EXIT_INVALID
            assert rep["error"]["kind"] == "DimensionError"
            assert "relation 'T' is missing" in rep["error"]["message"]

    def test_capacity(self, tmp_path):
        big = structure_file(tmp_path, "big.json",
                             (np.ones((9, 9)) - np.eye(9)).tolist())
        code, rep, _ = call(["gh-dist", big, big])
        assert code == EXIT_CAPACITY
        # 8 points are within the default cap
        eight = structure_file(tmp_path, "eight.json",
                               (np.ones((8, 8)) - np.eye(8)).tolist())
        code, rep, _ = call(["gh-dist", eight, eight])
        assert code == 0 and rep["distance"] == 0.0
        assert rep["tolerances"] == {"kmax": 3, "cap": 8}

    def test_negative_cap_is_an_input_error(self, tmp_path):
        m = structure_file(tmp_path, "m.json", [[0.0, 1.0], [1.0, 0.0]])
        code, rep, _ = call(["gh-dist", m, m, "--cap", "-1"])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError" and "cap" in rep["error"]["message"]


def json_file(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


PATH3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
NILPOTENT = {"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}


class TestJsonTypes:
    """Values of the wrong JSON type exit 2 with an InputFormatError; each
    of these used to be coerced and exit 0, or to end in a traceback."""

    @pytest.mark.parametrize("structure", [
        {"metric": [[0, "1"], ["1", 0]]},
        {"metric": PATH3, "relations": {"R": {"arity": 1, "table": ["1", 0, 0]}}},
        {"metric": [[0, 1], [1, 0]], "relations": {"R": {"arity": 1, "table": ["1", 0]}}},
        {"metric": PATH3, "relations": {"R": {"arity": 1, "table": {"0": "2.5"}}}},
        {"metric": [[abs(i - j) for j in range(11)] for i in range(11)],
         "relations": {"R": {"arity": 1, "table": {"1_0": 5}}}},
        {"metric": PATH3, "relations": {"R": {"arity": 1, "table": {" 1": 5}}}},
        {"metric": PATH3, "relations": [1]},
        {"metric": PATH3, "relations": "abc"},
    ])
    @pytest.mark.parametrize("command", ["gh-dist", "gh-theory"])
    def test_structure_exits_invalid(self, tmp_path, structure, command):
        m = json_file(tmp_path, "m.json", structure)
        code, rep, _ = call([command, m] + [m] * (command == "gh-dist"))
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "InputFormatError"

    def test_relations_that_are_no_object_name_the_key(self, tmp_path):
        m = json_file(tmp_path, "m.json", {"metric": PATH3, "relations": [1]})
        code, rep, _ = call(["gh-theory", m])
        assert code == EXIT_INVALID and '"relations"' in rep["error"]["message"]

    @pytest.mark.parametrize("flag", ["false", "true", 0, None])
    def test_include_identity_must_be_a_boolean(self, tmp_path, flag):
        s = json_file(tmp_path, "s.json", {"generators": [NILPOTENT], "include_identity": flag})
        e = json_file(tmp_path, "e.json", {"coeffs": [[[[0, 0], [1, 0], [0, 0]]]]})
        code, rep, _ = call(["norm", s, "--element", e])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "InputFormatError"
        assert "include_identity" in rep["error"]["message"]


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
        # (an ellipse meeting the circle at four points): no rigid motion
        # matches, the oracle proves Isomorphic, and verify replays the fit
        ea, eb = 1.2, 0.9
        x = np.sqrt((1 - 1 / eb ** 2) / (1 / ea ** 2 - 1 / eb ** 2))
        y = np.sqrt(1 - x ** 2)
        ws = np.array([x + 1j * y, -x + 1j * y, -x - 1j * y, x - 1j * y])
        zs = ws.real / ea + 1j * ws.imag / eb
        fu = matrix_file(tmp_path, "u.json", np.diag(zs))
        fv = matrix_file(tmp_path, "v.json", np.diag(ws))
        argv = ["unitary-cois", fu, fv]
        _, rep, text = call(argv)
        assert (rep["verdict"], rep["method"]) == ("Isomorphic", "oracle")
        report_path = tmp_path / "iso.json"
        report_path.write_text(text + "\n")
        code, vrep, _ = call(["verify", str(report_path)])
        assert code == EXIT_OK
        assert vrep["verified"] is True
        assert [c["check"] for c in vrep["certificate_checks"]] == [
            "forward span coefficients", "backward span coefficients"]


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

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_degree_one_witness_at_scale_replays(self, tmp_path, scale):
        # the products of an 8-point affine pair reach scale^2; the replay
        # bound is relative past values of size 1, so their rounding passes,
        # while a coefficient off by 1e-6 of its size still fails
        z = scale * (np.random.default_rng(12).standard_normal(8)
                     + 1j * np.random.default_rng(13).standard_normal(8))
        fd = points_file(tmp_path, "d.json", z.reshape(-1, 1))
        fe = points_file(tmp_path, "e.json", ((2 - 1j) * z[::-1] + 5 * scale).reshape(-1, 1))
        rep, path = stored_report(tmp_path, ["deg1", fd, fe])
        assert rep["homeomorphic"] is True
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_OK and vrep["verified"] is True
        coeff = rep["witness"]["forward"]["coeffs"][0][2]  # of z
        coeff[0] += 1e-6 * abs(complex(*coeff))
        path = tmp_path / "tampered.json"
        path.write_text(canonical_report(rep) + "\n")
        code, vrep, _ = call(["verify", str(path)])
        assert code == EXIT_INVALID
        verdicts = {c["check"]: c["pass"] for c in vrep["certificate_checks"]}
        assert verdicts.pop("degree-1 forward map") is False
        assert all(verdicts.values())

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


HUGE = 10 ** 400  # a JSON integer past the float range


@pytest.mark.parametrize("command,obj", [
    ("spectrum", {"rows": [[[HUGE, 0]]]}),
    ("deg1", {"dim": 1, "points": [[[HUGE, 0]], [[1, 0]]]}),
    ("norm", {"level": 1, "coeffs": [[[[HUGE, 0], [1, 0], [0, 0]]]]}),
    ("gh-theory", {"metric": [[0, HUGE], [HUGE, 0]]}),
])
def test_integer_past_the_float_range_exits_invalid(tmp_path, command, obj):
    p, system = tmp_path / "huge.json", tmp_path / "system.json"
    p.write_text(json.dumps(obj))
    system.write_text(json.dumps({"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}))
    argv = {"deg1": ["deg1", str(p), str(p)],
            "norm": ["norm", str(system), "--element", str(p)]}.get(command, [command, str(p)])
    code, rep, _ = call(argv)
    assert code == EXIT_INVALID
    assert rep["error"]["kind"] == "InputFormatError"
    assert "too large" in rep["error"]["message"]


@pytest.mark.parametrize("command", [5, None, "canon", [], [5], ["canon", None], {"0": "canon"}])
def test_command_echo_must_be_a_list_of_strings(tmp_path, command):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"command": command}))
    code, rep, _ = call(["verify", str(p)])
    assert code == EXIT_INVALID
    assert rep["error"] == {"kind": "InputFormatError",
                            "message": "report carries no command echo to replay"}


class TestLevelsBelowOne:
    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_osdist(self, tmp_path, levels):
        fs = tmp_path / "sys.json"
        fs.write_text(json.dumps(
            {"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}))
        code, rep, _ = call(["osdist", str(fs), str(fs), "--levels", levels, "--restarts", "1"])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError"

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_osdist_restarts(self, tmp_path, restarts):
        fs = tmp_path / "sys.json"
        fs.write_text(json.dumps(
            {"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}))
        code, rep, _ = call(["osdist", str(fs), str(fs), "--levels", "1", "--restarts", restarts])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError" and "restart" in rep["error"]["message"]

    def test_osdist_negative_seed(self, tmp_path):
        fs = tmp_path / "sys.json"
        fs.write_text(json.dumps(
            {"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}))
        code, rep, _ = call(["osdist", str(fs), str(fs), "--restarts", "1", "--seed", "-1"])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError" and "seed" in rep["error"]["message"]

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_gh_dist(self, tmp_path, kmax):
        m = structure_file(tmp_path, "m.json", [[0.0, 1.0], [1.0, 0.0]])
        code, rep, _ = call(["gh-dist", m, m, "--kmax", kmax])
        assert code == EXIT_INVALID
        assert rep["error"]["kind"] == "DimensionError"


def test_run_and_verify_share_one_parser(tmp_path):
    parser = cli._build_parser()
    before = cli._build_parser.cache_info()
    f = matrix_file(tmp_path, "u.json", np.diag([1.0, 1j]))
    p = tmp_path / "r.json"
    p.write_text(call(["spectrum", f])[2])
    assert call(["verify", str(p)])[1]["verified"]
    after = cli._build_parser.cache_info()
    assert cli._build_parser() is parser
    assert after.misses == before.misses


def test_unknown_subcommand_is_invalid():
    code, _, _ = call(["frobnicate"])
    assert code == EXIT_INVALID


def test_cli_runs_without_scipy(tmp_path):
    f = matrix_file(tmp_path, "u.json", np.roll(np.eye(5), 1, axis=0))
    script = textwrap.dedent(f"""
        import io, json, sys
        import osclass.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert not scipy_modules(), scipy_modules()
        out = io.StringIO()
        assert osclass.cli.run(["spectrum", {f!r}], stdout=out) == 0
        assert len(json.loads(out.getvalue())["angles"]) == 5
        assert not scipy_modules(), scipy_modules()
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
