"""Property tests of the JSON dialect through ``cli.run``.

Generated system, element, matrix, point-set and structure objects, well
formed or not, go through ``norm``, ``osdist``, ``spectrum``, ``deg1``,
``gh-dist`` and ``gh-theory``, and stored reports with one field replaced or
deleted go through ``verify``.  Every run must end in a report with exit 0 or
2: malformed or unusable input is an input error, never a crash.  The
examples are derandomized so the suite stays reproducible.
"""

import json
import math
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from osclass.cli import EXIT_INVALID, EXIT_OK, run
from osclass.io import parse_point_set

FUZZ = settings(max_examples=60,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

moderate = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0))
reals = st.one_of(moderate, st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([1e308, -1e200, 1e154, 1e-320, 0.0, 2 ** 64 + 1,
                                   10 ** 400, -10 ** 400]))
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=3), st.just({}))
entries = st.one_of(reals, st.lists(reals, min_size=2, max_size=2), junk)
scalars = st.one_of(moderate, st.lists(moderate, min_size=2, max_size=2))


@st.composite
def matrices(draw, size=None):
    """A {"rows": ...} object: usually k x k complex entries, sometimes ragged or junk."""
    # hypothesis leans to the first choice and to small integers, so the
    # well-formed choices come first
    shape = draw(st.sampled_from(["unitary", "clean", "clean", "dirty", "ragged", "junk"]))
    if shape == "junk":
        return draw(st.one_of(junk, st.fixed_dictionaries({"rows": junk})))
    if shape == "ragged":
        return {"rows": draw(st.lists(st.lists(entries, max_size=3), max_size=3))}
    k = size or 1 + draw(st.integers(0, 2))
    if shape == "unitary":
        # a diagonal unitary, the input spectrum accepts
        phases = draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))
        rows = [[[0.0, 0.0]] * k for _ in range(k)]
        for i, t in enumerate(phases):
            rows[i] = rows[i][:i] + [[math.cos(t), math.sin(t)]] + rows[i][i + 1:]
        return {"rows": rows}
    cells = st.lists(scalars if shape == "clean" else entries, min_size=k, max_size=k)
    return {"rows": draw(st.lists(cells, min_size=k, max_size=k))}


@st.composite
def systems(draw, k=None, gens=None):
    k = k or (1 + draw(st.integers(0, 2))) % 3 + 1
    count = (draw(st.integers(0, 2)) + 1) % 3 if gens is None else gens
    obj = {"generators": [draw(matrices(k)) for _ in range(count)]}
    if draw(st.integers(0, 3)) == 3:
        obj["include_identity"] = draw(st.one_of(st.booleans(), junk))
    if draw(st.integers(0, 3)) == 3:
        obj["ambient_dim"] = draw(st.one_of(st.integers(0, 4), junk))
    return obj if draw(st.integers(0, 5)) < 5 else draw(st.one_of(junk, st.just({"rows": []})))


@st.composite
def elements(draw, dim=None):
    n = draw(st.integers(1, 2))
    dim = dim or draw(st.integers(1, 5))
    cell = st.lists(scalars, min_size=dim, max_size=dim)
    shapes = [st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)] * 4 + [
        st.lists(st.lists(st.lists(entries, max_size=3), max_size=2), max_size=2), junk]
    coeffs = draw(shapes[draw(st.integers(0, 5))])
    obj = {"coeffs": coeffs}
    if draw(st.integers(0, 3)) == 3:
        obj["level"] = draw(st.one_of(st.integers(0, 3), junk))
    return obj


@st.composite
def system_and_element(draw):
    # a generic generator adds itself and its adjoint to the basis
    gens = (draw(st.integers(0, 2)) + 1) % 3
    dim = draw(st.sampled_from([1 + 2 * gens] * 3 + [None]))
    return draw(systems(gens=gens)), draw(elements(dim))


@st.composite
def system_pair(draw):
    k, gens = 2 + draw(st.integers(0, 1)), (draw(st.integers(0, 2)) + 1) % 3
    left = draw(systems(k, gens))
    other = draw(st.integers(0, 3)) == 3
    return left, draw(systems() if other else systems(k, gens))


@st.composite
def point_sets(draw):
    """A {"points": ...} object: m points in C^dim, sometimes ragged or junk."""
    shape = draw(st.sampled_from(["clean", "clean", "dirty", "ragged", "junk"]))
    if shape == "junk":
        return draw(st.one_of(junk, st.fixed_dictionaries({"points": junk})))
    if shape == "ragged":
        obj = {"points": draw(st.lists(st.lists(entries, max_size=3), max_size=4))}
    else:
        m, dim = draw(st.integers(1, 6)), draw(st.integers(1, 2))
        cell = st.lists(scalars if shape == "clean" else entries, min_size=dim, max_size=dim)
        obj = {"points": draw(st.lists(cell, min_size=m, max_size=m))}
    if draw(st.integers(0, 3)) == 3:
        obj["dim"] = draw(st.one_of(st.integers(0, 3), reals, junk))
    return obj


def tables(size, arity, values):
    table = values
    for _ in range(arity):
        table = st.lists(table, min_size=size, max_size=size)
    return table


@st.composite
def structures(draw):
    """A {"metric": ...} object with optional relations and domains."""
    shape = draw(st.sampled_from(["metric", "metric", "dirty", "ragged", "junk"]))
    if shape == "junk":
        return draw(st.one_of(junk, st.fixed_dictionaries({"metric": junk})))
    n = draw(st.integers(1, 4))
    if shape == "ragged":
        obj = {"metric": draw(st.lists(st.lists(reals, max_size=4), max_size=4))}
    elif shape == "dirty":
        obj = {"metric": draw(tables(n, 2, st.one_of(reals, junk)))}
    else:
        # distances on a line are a metric
        xs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        obj = {"metric": [[abs(a - b) for b in xs] for a in xs]}
    if draw(st.integers(0, 2)) == 2:
        arity = draw(st.integers(0, 3))
        # strings are no numbers, and "1_0" and " 1" no indices, though
        # float() and int() read them
        values = st.one_of(reals, st.sampled_from(["1", "2.5", "nan"]))
        keys = st.sampled_from(["0", "1,0", "0,0", "x", "9", "1_0", " 1"])
        table = draw(st.one_of(tables(n, arity, st.floats(0.0, 1.0)), tables(n, arity, values),
                               st.dictionaries(keys, values, max_size=2), junk))
        rel = draw(st.sampled_from([{"arity": arity, "table": table}, {"table": table}, table]))
        obj["relations"] = draw(st.sampled_from([{"R": rel}, {"R": rel}, [1], "abc"]))
    if draw(st.booleans()):
        # valid chains first, among them an empty first domain
        obj["domains"] = draw(st.one_of(
            st.just([[], list(range(n))]),
            st.integers(1, n).map(lambda k: [list(range(k)), list(range(n))]),
            st.lists(st.lists(st.integers(-1, n), max_size=n), max_size=2), junk))
    return obj


def run_on(files: dict, argv: list, tmp: str | None = None):
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        for name, obj in files.items():
            paths[name] = str(Path(tmp or scratch) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(obj))
        out, err = StringIO(), StringIO()
        with redirect_stderr(err):
            code = run([paths.get(a, a) for a in argv], stdout=out)
    assert code in (EXIT_OK, EXIT_INVALID), out.getvalue()
    assert "Traceback" not in err.getvalue()
    report = json.loads(out.getvalue())
    assert report["command"][0] == argv[0]
    if code == EXIT_INVALID and "verified" not in report:  # verify fails without an error
        assert set(report["error"]) == {"kind", "message"}
    return report


@FUZZ
@given(matrices())
def test_spectrum_never_crashes(m):
    run_on({"m": m}, ["spectrum", "m"])


@FUZZ
@given(system_and_element())
def test_norm_never_crashes(case):
    system, element = case
    run_on({"s": system, "e": element}, ["norm", "s", "--element", "e"])


@settings(FUZZ, max_examples=40)
@given(system_pair())
def test_osdist_never_crashes(pair):
    left, right = pair
    run_on({"a": left, "b": right}, ["osdist", "a", "b", "--levels", "1", "--restarts", "1"])


def finite_monomials(obj) -> bool:
    """Whether every product ``z_i conj(z_j)`` of a parsed point set is finite."""
    pts = parse_point_set(obj).points
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(pts[:, :, None] * pts[:, None, :].conj()).all())


FOUR_POINTS = {"points": [[[0, 0]], [[1, 0]], [[0, 1]], [[2, 3]]]}
NAN_POINT = {"points": [[[0, 0]], [[1, 0]], [[0, 1]], [[math.nan, 0]]]}
HUGE_POINT = {"points": [[[0, 0]], [[1, 0]], [[0, 1]], [[1e160, 0]]]}


@FUZZ
@given(point_sets(), point_sets(), st.booleans())
@example(NAN_POINT, FOUR_POINTS, False)
@example(NAN_POINT, FOUR_POINTS, True)
@example(FOUR_POINTS, HUGE_POINT, False)
@example(FOUR_POINTS, HUGE_POINT, True)
def test_deg1_never_crashes(left, right, via_opsys):
    report = run_on({"a": left, "b": right}, ["deg1", "a", "b"] + ["--via-opsys"] * via_opsys)
    if report.get("tried"):  # a verdict from a bijection search
        assert finite_monomials(left) and finite_monomials(right)


@FUZZ
@given(structures(), structures())
def test_gh_dist_never_crashes(left, right):
    run_on({"a": left, "b": right}, ["gh-dist", "a", "b", "--kmax", "2", "--cap", "4"])


@FUZZ
@given(structures())
@example({"metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "domains": [[], [0, 1, 2]]})
def test_gh_theory_never_crashes(structure):
    run_on({"s": structure}, ["gh-theory", "s", "--depth", "2"])


def _diag(angles):
    return {"rows": [[[math.cos(t), math.sin(t)] if i == j else [0.0, 0.0]
                      for j in range(len(angles))] for i, t in enumerate(angles)]}


@pytest.fixture(scope="module")
def stored_reports(tmp_path_factory):
    """One report of each kind that carries a certificate, and its input directory."""
    tmp = tmp_path_factory.mktemp("reports")
    # a 4-point pair related by a real-affine map (the oracle's fit), a
    # reflected 5-point pair (a rigid motion) and an affine deg1 pair
    x = math.sqrt((1 - 1 / 0.9 ** 2) / (1 / 1.2 ** 2 - 1 / 0.9 ** 2))
    y = math.sqrt(1 - x ** 2)
    ws = np.array([x + 1j * y, -x + 1j * y, -x - 1j * y, x - 1j * y])
    zs = ws.real / 1.2 + 1j * ws.imag / 0.9
    five = [0.0, 0.8, 1.7, 3.1, 5.0]
    z = [[0.3, 1.0], [-2.0, 0.0], [0.0, 0.5], [1.0, 0.0], [2.0, -1.0]]
    files = {"zs": _diag(np.angle(zs)), "ws": _diag(np.angle(ws)),
             "a": _diag(five), "b": _diag([0.4 - t for t in five]),
             "d": {"dim": 1, "points": [[p] for p in z]},
             "e": {"dim": 1, "points": [[[2 * re, 2 * im + 1]] for re, im in z]}}
    commands = {"oracle": ["unitary-cois", "zs", "ws"], "motion": ["unitary-cois", "a", "b"],
                "deg1": ["deg1", "d", "e"],
                "wt2": ["family", "wt", "--variant", "2x2", "--t", "0.2", "--s", "0.9"]}
    reports = {name: run_on(files, argv, str(tmp)) for name, argv in commands.items()}
    assert reports["oracle"]["method"] == "oracle"
    assert reports["motion"]["certificate"]["motion"]["reflect"] is True
    assert reports["deg1"]["homeomorphic"] is True
    return tmp, reports


def field_paths(obj, prefix=()):
    """The path of every key and list entry under ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


DELETE = object()


@FUZZ
@given(st.data())
def test_verify_never_crashes(stored_reports, data):
    tmp, reports = stored_reports
    name = data.draw(st.sampled_from(sorted(reports)))
    report = json.loads(json.dumps(reports[name]))
    path = data.draw(st.sampled_from(list(field_paths(report))))
    value = data.draw(st.one_of(st.just(DELETE), entries))
    *parents, last = path
    node = report
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    rep = run_on({"mutated": report}, ["verify", "mutated"], str(tmp))
    if "error" not in rep:
        assert set(rep) == {"command", "replay_identical", "certificate_checks", "verified"}
