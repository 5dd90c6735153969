"""Property tests of the JSON dialect through ``cli.run``.

Generated system, element and matrix objects, well formed or not, go through
``norm``, ``osdist`` and ``spectrum``.  Every run must end in a report with
exit 0 or 2: malformed or unusable input is an input error, never a crash.
The examples are derandomized so the suite stays reproducible.
"""

import json
import math
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osclass.cli import EXIT_INVALID, EXIT_OK, run

FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

moderate = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0))
reals = st.one_of(moderate, st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([1e308, -1e200, 1e154, 1e-320, 0.0]))
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


def run_on(files: dict, argv: list):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(obj))
        out, err = StringIO(), StringIO()
        with redirect_stderr(err):
            code = run([paths.get(a, a) for a in argv], stdout=out)
    assert code in (EXIT_OK, EXIT_INVALID), out.getvalue()
    assert "Traceback" not in err.getvalue()
    report = json.loads(out.getvalue())
    assert report["command"][0] == argv[0]
    if code == EXIT_INVALID:
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
