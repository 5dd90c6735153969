"""End-to-end acceptance checks, one test per criterion, with runtime budgets.

Each test covers one headline guarantee of the package: the 4-point spectral
pair, agreement of the fast path with the exact oracle at scale, necklace
invariance, the 3x3 and 2x2 W_t grids, the degree-1 decision, estimator
sanity for the operator-system distance, the minimal matrix norms, the
finite-structure distance and fingerprint, and byte-level determinism of the
CLI.
"""

import itertools
import json
import time
from io import StringIO

import numpy as np
import pytest

from osclass.cli import EXIT_OK, run
from osclass.degree1 import PointSet, deg1_via_opsys, degree_one_homeomorphic
from osclass.metric import FiniteStructure, dgh_structures
from osclass.formulas import universal_fingerprint
from osclass.opsys import PolyhedralDualBall, build_system, min_os_norm
from osclass.osdist import (amplified_map_norm, dn_search, wt_classify,
                            wt_matrix, wt_system, trace_invariants,
                            commutant_dimension, WtParams)
from osclass.unitary import (TWO_PI, CircleSet, canonical_form,
                             cois_unitary_oracle, cois_unitary_theorem,
                             four_point_obstruction, spectrum)

FOUR_POINT_U = np.diag([1, -1, 1j, -1j])
FOUR_POINT_V = np.diag([1, (1 + 1j) / np.sqrt(2), 1j, -1])


def random_unitary(rng, k):
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_1_four_point_pair_is_settled_with_nonvanishing_determinants():
    start = time.monotonic()
    dec = cois_unitary_oracle(FOUR_POINT_U, FOUR_POINT_V)
    assert dec.verdict == "NotIsomorphic"
    report = four_point_obstruction(FOUR_POINT_U, FOUR_POINT_V)
    assert len(report["determinants"]) == 24
    assert all(abs(r["determinant"]) > 0.1 for r in report["determinants"])
    assert time.monotonic() - start < 1.0


def test_2_fast_path_oracle_and_canonical_form_agree_at_scale():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for i in range(200):
        m = int(rng.integers(5, 9))
        a = np.sort(rng.uniform(0, TWO_PI, m))
        u = np.diag(np.exp(1j * a))
        if i % 2 == 0:
            rot = rng.uniform(0, TWO_PI)
            b = (-a if rng.uniform() < 0.5 else a) + rot
            v = np.diag(np.exp(1j * b))
        else:
            mp = int(rng.integers(5, 9))
            v = np.diag(np.exp(1j * np.sort(rng.uniform(0, TWO_PI, mp))))
        thm = cois_unitary_theorem(u, v, tol=1e-8)
        orc = cois_unitary_oracle(u, v, tol=1e-8)
        assert thm.verdict == orc.verdict, f"pair {i}: {thm.verdict} vs {orc.verdict}"
        same_necklace = canonical_form(spectrum(u)) == canonical_form(spectrum(v))
        assert same_necklace == (thm.verdict == "Isomorphic"), f"pair {i}"
    assert time.monotonic() - start < 2.0


def test_3_canonical_form_invariant_under_rigid_perturbations():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = int(rng.integers(3, 10))
        angles = np.sort(rng.uniform(0, TWO_PI, m))
        base = canonical_form(CircleSet(angles))
        rot = rng.uniform(0, TWO_PI)
        moved = (-angles if rng.uniform() < 0.5 else angles) + rot
        perturbed = canonical_form(CircleSet(moved % TWO_PI))
        assert base.gaps.size == perturbed.gaps.size
        assert np.max(np.abs(base.gaps - perturbed.gaps)) <= 1e-9


def replay_wt2(t, s, cert):
    """Why a 2x2 W_t certificate fails to replay at 1e-7, or None."""
    u = np.asarray(cert["unitary"], dtype=complex)
    c = np.asarray(cert["coefficients"], dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-7:
        return "not unitary"
    wt = np.array([[1, 0], [t, 0]], dtype=complex)
    ws = np.array([[1, 0], [s, 0]], dtype=complex)
    image = u @ wt @ u.conj().T
    if np.max(np.abs(image - (c[0] * np.eye(2) + c[1] * ws + c[2] * ws.conj().T))) > 1e-7:
        return "coefficients miss"
    span = [np.eye(2), ws, ws.conj().T] + [u @ g @ u.conj().T for g in (np.eye(2), wt, wt.conj().T)]
    sv = np.linalg.svd(np.column_stack([g.reshape(-1) for g in span]), compute_uv=False)
    return None if int(np.sum(sv > 1e-9 * sv[0])) == 3 else "not onto"


def test_4_wt_grid_and_invariants():
    start = time.monotonic()
    ts = np.round(np.linspace(0.1, 1.0, 10), 10)
    for t in ts:
        for s in ts:
            dec = wt_classify(float(t), float(s))
            assert (dec.verdict == "Isomorphic") == (t == s), (t, s)
            dec = wt_classify(float(t), float(s), "two_by_two")
            assert (dec.verdict, dec.method) == ("Isomorphic", "theorem-fast-path"), (t, s)
            assert replay_wt2(float(t), float(s), dec.certificate) is None, (t, s)
        w = wt_matrix(WtParams(float(t)))
        sv = np.sort(np.linalg.svd(w, compute_uv=False))
        assert np.max(np.abs(sv - np.array([0.0, t, 1.0]))) <= 1e-12
        tau1, tau2 = trace_invariants(wt_system(WtParams(float(t))), w)
        assert tau1 == 0 and tau2 == 0
        assert commutant_dimension([w, w.conj().T]) == 1
    # the 2x2 family is one class across (0, 1]: 200 seeded pairs off the grid
    for t, s in np.random.default_rng(44).uniform(1e-3, 1.0, (200, 2)):
        dec = wt_classify(float(t), float(s), "two_by_two")
        assert (dec.verdict, dec.method) == ("Isomorphic", "theorem-fast-path"), (t, s)
        assert replay_wt2(float(t), float(s), dec.certificate) is None, (t, s)
    assert time.monotonic() - start < 5.0


def test_5_degree_one_decision_invariance_and_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(55)
    for i in range(200):
        m = int(rng.integers(4, 7))
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d = PointSet(1, z)
        if i % 2 == 0:
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal() + 1j * rng.standard_normal()
            w = a * (z.conj() if i % 4 == 0 else z) + b
        else:
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        e = PointSet(1, w)
        dec = degree_one_homeomorphic(d, e)
        assert deg1_via_opsys(d, e).homeomorphic == dec.homeomorphic, f"pair {i}"
        assert degree_one_homeomorphic(e, d).homeomorphic == dec.homeomorphic
        # verdict survives an affine change of the target and conjugation
        c0 = rng.standard_normal() + 1j * rng.standard_normal()
        moved = PointSet(1, (1.5 - 0.5j) * w + c0)
        conj = PointSet(1, w.conj())
        assert degree_one_homeomorphic(d, moved).homeomorphic == dec.homeomorphic
        assert degree_one_homeomorphic(d, conj).homeomorphic == dec.homeomorphic
        if dec.homeomorphic:
            assert max(dec.witness["residuals"]) <= 1e-8
    assert time.monotonic() - start < 2.9


def test_6_distance_estimator_sanity():
    start = time.monotonic()
    rng = np.random.default_rng(66)
    for _ in range(20):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = build_system([g])
        assert x.dim == 3
        u = random_unitary(rng, 3)
        y = build_system([u @ g @ u.conj().T])
        assert dn_search(x, x, restarts=2, outer_iters=0,
                         inner_starts=1, inner_iters=0)["estimate"] <= 1e-6
        assert dn_search(x, y, restarts=32, outer_iters=20,
                         inner_starts=1, inner_iters=8)["estimate"] <= 1e-3
        for level in (1, 2, 3):
            val = amplified_map_norm(x, y, np.eye(3), level=level, starts=4, iters=30)
            assert abs(val - 1.0) <= 1e-9
    assert time.monotonic() - start < 4.56


def test_7_minimal_norms_reproduce_and_satisfy_axioms():
    rng = np.random.default_rng(77)
    # level 1: the polyhedral sup over coordinate functionals is the sup norm
    ball = PolyhedralDualBall(dim=4, functionals=tuple(np.eye(4)))
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(min_os_norm(ball, x) - np.max(np.abs(x))) <= 1e-12
    # weighted functionals: the original norm is max_j |2 x_j| on the first two
    wball = PolyhedralDualBall(dim=2, functionals=(np.array([2.0, 0.0]),
                                                   np.array([0.0, 2.0])))
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(min_os_norm(wball, x) - 2 * np.max(np.abs(x))) <= 1e-12
    # level 2 axioms on random elements
    for _ in range(20):
        arr = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        brr = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        # direct sums: the block-diagonal norm is the max of the two norms
        blk = np.zeros((4, 4, 4), dtype=complex)
        blk[:2, :2] = arr
        blk[2:, 2:] = brr
        lhs = min_os_norm(ball, blk)
        rhs = max(min_os_norm(ball, arr), min_os_norm(ball, brr))
        assert abs(lhs - rhs) <= 1e-9
        # scalar compressions: |A x B| <= |A| |x| |B|
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        axb = np.einsum("ik,klv,lj->ijv", a, arr, b)
        bound = (np.linalg.svd(a, compute_uv=False)[0]
                 * min_os_norm(ball, arr)
                 * np.linalg.svd(b, compute_uv=False)[0])
        assert min_os_norm(ball, axb) <= bound + 1e-9


def triangle_grid_spaces():
    sides = []
    for a, b, c in itertools.combinations_with_replacement((1.0, 2.0, 3.0), 3):
        if c <= a + b:
            sides.append((a, b, c))
    spaces = []
    for a, b, c in sides:
        spaces.append(FiniteStructure(np.array([[0.0, a, b],
                                                [a, 0.0, c],
                                                [b, c, 0.0]])))
    return spaces


def exact_isometry_exists(m, n):
    for p in itertools.permutations(range(m.size)):
        q = np.array(p)
        if np.allclose(m.metric[np.ix_(q, q)], n.metric, atol=1e-12):
            return True
    return False


def test_8_structure_distance_and_fingerprints():
    start = time.monotonic()
    rng = np.random.default_rng(88)
    pts = rng.uniform(0, 2, (5, 2))
    dm = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    s = FiniteStructure(dm)
    assert dgh_structures(s, s.relabel([4, 2, 0, 1, 3])) <= 1e-12
    spaces = triangle_grid_spaces()
    for m, n in itertools.combinations_with_replacement(spaces, 2):
        dist = dgh_structures(m, n)
        if exact_isometry_exists(m, n):
            assert dist <= 1e-12
        else:
            assert dist > 1e-9
    # fingerprints: equal across relabelings, different across the two-point
    # spaces of diameter 1 and 2
    t = spaces[3].relabel([2, 0, 1])
    assert np.array_equal(universal_fingerprint(spaces[3], 3),
                          universal_fingerprint(t, 3))
    d1 = FiniteStructure(np.array([[0.0, 1.0], [1.0, 0.0]]))
    d2 = FiniteStructure(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.max(np.abs(universal_fingerprint(d1, 3)
                         - universal_fingerprint(d2, 3))) > 0
    # depth 5 (1275 sentences) on 6 points with a unary and a binary relation
    pts = rng.uniform(0, 2, (6, 2))
    r = FiniteStructure(np.linalg.norm(pts[:, None] - pts[None, :], axis=2),
                        {"R": rng.uniform(-1, 1, 6), "B": rng.uniform(-1, 1, (6, 6))})
    assert np.array_equal(universal_fingerprint(r, 5),
                          universal_fingerprint(r.relabel([3, 5, 0, 1, 4, 2]), 5))
    assert time.monotonic() - start < 1.0


def cli_commands(tmp_path):
    """One argv per subcommand and variant that prints a report, on small inputs."""
    def jfile(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    def render(z):
        return [float(np.real(z)), float(np.imag(z))]

    def mat(m):
        return {"rows": [[render(z) for z in row] for row in np.asarray(m, dtype=complex)]}

    fu = jfile("u.json", mat(FOUR_POINT_U))
    fv = jfile("v.json", mat(FOUR_POINT_V))
    fd = jfile("d.json", {"dim": 1, "points": [[render(z)] for z in
                                               (0.3 + 1j, -2.0, 1j * 0.5, 1.0 + 0j, 2.0 - 1j)]})
    fe = jfile("e.json", {"dim": 1, "points": [[render(2 * z + 1j)] for z in
                                               (0.3 + 1j, -2.0, 1j * 0.5, 1.0 + 0j, 2.0 - 1j)]})
    fs = jfile("sys.json", {"generators": [mat([[0, 1], [0, 0]])]})
    fel = jfile("el.json", {"level": 1, "coeffs": [[[render(0), render(1), render(0)]]]})
    fm = jfile("m.json", {"metric": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]})
    fn = jfile("n.json", {"metric": [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]})

    return [
        ["spectrum", fu],
        ["canon", fu],
        ["unitary-cois", fu, fv, "--oracle"],
        ["deg1", fd, fe],
        ["deg1", fd, fe, "--via-opsys"],
        ["norm", fs, "--element", fel],
        ["osdist", fs, fs, "--levels", "2", "--restarts", "4", "--seed", "7"],
        ["family", "wt", "--variant", "3x3", "--t", "0.3", "--s", "0.7"],
        ["family", "wt", "--variant", "2x2", "--t", "0.3", "--s", "0.7",
         "--seed", "5", "--restarts", "16"],
        ["gh-dist", fm, fn, "--kmax", "2"],
        ["gh-theory", fm, "--depth", "2"],
    ]


def test_9_cli_reports_are_byte_identical(tmp_path):
    for argv in cli_commands(tmp_path):
        outputs = []
        for _ in range(2):
            buf = StringIO()
            code = run(argv, stdout=buf)
            assert code == EXIT_OK, argv
            outputs.append(buf.getvalue())
        assert len(set(outputs)) == 1, f"report bytes drifted for {argv}"


def carries_certificate(argv) -> bool:
    """Whether the report of ``argv`` from :func:`cli_commands` holds a replayable certificate."""
    if argv[0] == "unitary-cois":
        return argv[1] == argv[2]  # the 4-point pair U, V is not isomorphic
    if argv[0] == "deg1":
        return True  # maps on the default route, the bijection alone on the opsys one
    return argv[:4] == ["family", "wt", "--variant", "2x2"]


def test_9_every_cli_report_verifies(tmp_path):
    commands = cli_commands(tmp_path)
    fu = str(tmp_path / "u.json")
    for i, argv in enumerate(commands + [["unitary-cois", fu, fu]]):
        buf = StringIO()
        assert run(argv, stdout=buf) == EXIT_OK, argv
        report = tmp_path / f"report{i}.json"
        report.write_text(buf.getvalue())
        buf = StringIO()
        code = run(["verify", str(report)], stdout=buf)
        verdict = json.loads(buf.getvalue())
        assert code == EXIT_OK and verdict["verified"] and verdict["replay_identical"], argv
        assert bool(verdict["certificate_checks"]) == carries_certificate(argv), argv
        assert all(c["pass"] for c in verdict["certificate_checks"]), argv
