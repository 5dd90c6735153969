"""The one-pass JSON array parsing of ``osclass.io`` against the per-entry parser.

``parse_matrix``, ``parse_point_set`` and ``parse_element`` read a well-formed
nested list of [re, im] pairs with one ``np.array`` call.  The per-entry
parsers below are the reference: on every generated input both must give the
same array bits or the same error message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclass import io
from osclass.degree1 import PointSet
from osclass.errors import InputFormatError, OsclassError
from osclass.io import parse_complex
from osclass.opsys import AmplifiedElement


@io.as_input_error
def entrywise_matrix(obj):
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputFormatError('expected a matrix object with a "rows" key')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise InputFormatError('"rows" must be a nonempty list')
    data = [[parse_complex(e) for e in row] for row in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InputFormatError("matrix rows have unequal lengths")
    return np.array(data, dtype=np.complex128)


@io.as_input_error
def entrywise_point_set(obj):
    if not isinstance(obj, dict) or "points" not in obj:
        raise InputFormatError('expected a point set object with a "points" key')
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise InputFormatError('"points" must be a nonempty list')
    data = [[parse_complex(c) for c in p] for p in pts]
    # integer fields follow io.parse_integer, tested on its own below
    dim = io.parse_integer(obj["dim"], '"dim"') if "dim" in obj else len(data[0])
    return PointSet(ambient=dim, points=np.array(data, dtype=np.complex128))


@io.as_input_error
def entrywise_element(obj):
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputFormatError('element file needs a "coeffs" key')
    coeffs = np.array(
        [[[parse_complex(c) for c in vecs] for vecs in row] for row in obj["coeffs"]],
        dtype=np.complex128,
    )
    level = io.parse_integer(obj["level"], '"level"') if "level" in obj else coeffs.shape[0]
    return AmplifiedElement(level=level, coeffs=coeffs)


def outcome(parse, obj):
    """What a parser makes of ``obj``: the bits of its arrays, or its error."""
    try:
        value = parse(obj)
    except OsclassError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, PointSet):
        return value.ambient, bits(value.points)
    if isinstance(value, AmplifiedElement):
        return value.level, bits(value.coeffs)
    return bits(value)


def bits(arr):
    assert arr.flags.c_contiguous
    return arr.dtype.str, arr.shape, arr.view(np.uint8).tobytes()


edge_numbers = st.sampled_from([-0.0, 0, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
                                2 ** 64 + 1, -2 ** 63 - 1, 10 ** 400, -10 ** 400,
                                float("nan"), float("inf"), -float("inf"), 5e-324])
numbers = st.one_of(st.floats(), st.floats(-4.0, 4.0), st.integers(), st.booleans(),
                    edge_numbers)
junk = st.one_of(st.none(), st.text(max_size=2), st.just({}))
pairs = st.lists(numbers, min_size=2, max_size=2)
# numpy reads ["1", "2"] as a string array it could cast to floats
odd_pairs = st.lists(st.one_of(numbers, junk, st.sampled_from(["1", "nan", "-0.0"])),
                     min_size=2, max_size=2)
entries = st.one_of(pairs, pairs, pairs, numbers, junk, odd_pairs,
                    st.lists(numbers, max_size=3), st.lists(pairs, min_size=1, max_size=2))


@st.composite
def grids(draw, depth):
    """Nested lists ``depth`` levels deep around the entries: mostly
    rectangular grids of [re, im] pairs, sometimes ragged or mixed."""
    shape = [draw(st.integers(1, 3)) for _ in range(depth)]
    kind = draw(st.sampled_from(["pairs", "pairs", "reals", "odd", "mixed", "ragged"]))
    leaf = {"pairs": pairs, "reals": numbers, "odd": odd_pairs}.get(kind, entries)

    def build(level):
        if level == depth:
            return draw(leaf)
        size = draw(st.integers(0, 3)) if kind == "ragged" else shape[level]
        return [build(level + 1) for _ in range(size)]

    return build(0)


optional = st.one_of(st.none(), st.integers(0, 3), numbers, junk)


def with_key(obj, key, value):
    return obj if value is None else {**obj, key: value}


SETTINGS = settings(max_examples=300)


@SETTINGS
@given(grids(2))
def test_matrix_matches_the_entrywise_parser(rows):
    obj = {"rows": rows}
    assert outcome(io.parse_matrix, obj) == outcome(entrywise_matrix, obj)


@SETTINGS
@given(grids(2), optional)
def test_point_set_matches_the_entrywise_parser(points, dim):
    obj = with_key({"points": points}, "dim", dim)
    assert outcome(io.parse_point_set, obj) == outcome(entrywise_point_set, obj)


@SETTINGS
@given(grids(3), optional)
def test_element_matches_the_entrywise_parser(coeffs, level):
    obj = with_key({"coeffs": coeffs}, "level", level)
    assert outcome(io.parse_element, obj) == outcome(entrywise_element, obj)


@pytest.mark.parametrize("entry", [[-0.0, -0.0], [float("nan"), 1], [True, -float("inf")],
                                   [2 ** 63 + 1, 0.5], [5e-324, -0.0]])
def test_entry_bits_are_those_of_complex(entry):
    got = io.parse_matrix({"rows": [[entry]]})[0, 0]
    want = complex(*entry)
    assert np.array([got]).view(np.uint8).tobytes() == np.array([want]).view(np.uint8).tobytes()


@pytest.mark.parametrize("rows", [[[[10 ** 400, 0]]], [[[1, 0], [10 ** 400, 1.5]]]])
def test_integer_past_the_float_range_is_an_input_error(rows):
    with pytest.raises(InputFormatError, match="too large"):
        io.parse_matrix({"rows": rows})


PATH3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


VALID = object()


def integer_fields(value=VALID):
    """Every count or index field of the input dialect, set to ``value``, or
    to a valid integer by default."""
    def field(ok):
        return ok if value is VALID else value

    return [
        (io.parse_structure, {"metric": PATH3, "domains": [[field(0)], [0, 1, 2]]}),
        (io.parse_structure, {"metric": PATH3, "domains": [[0], [0, field(1), 2]]}),
        (io.parse_structure, {"metric": PATH3,
                              "relations": {"R": {"arity": field(1), "table": [0.0, 0.5, 1.0]}}}),
        (io.parse_point_set, {"points": [[[0.0, 0.0]], [[1.0, 0.0]]], "dim": field(1)}),
        (io.parse_system, {"generators": [{"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}],
                           "ambient_dim": field(2)}),
        (io.parse_element, {"coeffs": [[[[0, 0], [1, 0], [0, 0]]]], "level": field(1)}),
    ]


@pytest.mark.parametrize("value", [0.9, 1.0, 1.7, 1.9, True, False, "1", None, [1]])
def test_integer_fields_take_only_json_integers(value):
    # int() used to truncate 0.9, 1.7 and 1.9 and to read true and "1" as 1
    for parse, obj in integer_fields(value):
        with pytest.raises(InputFormatError, match="must be an integer"):
            parse(obj)


def test_integer_fields_take_integers():
    for parse, obj in integer_fields():
        parse(obj)
    st = io.parse_structure({"metric": PATH3, "domains": [[0], [0, 1, 2]],
                             "relations": {"R": {"arity": 1, "table": [0.0, 0.5, 1.0]}}})
    assert st.domains == ((0,), (0, 1, 2)) and st.relations["R"].shape == (3,)


@pytest.mark.parametrize("domains", [[[0.9], [0, 1.7, 2]], [[True], [0, "1", 2]]])
def test_domains_are_not_coerced(domains):
    # both used to pass as [[0], [0, 1, 2]]
    with pytest.raises(InputFormatError, match="a domain index must be an integer"):
        io.parse_structure({"metric": PATH3, "domains": domains})


@pytest.mark.parametrize("perm", [[True, 0], [False, True, 2], [0, 1.0, 2], [0, "1", 2]])
def test_bijection_indices_are_json_integers(perm):
    # [true, 0] used to pass as the permutation [1, 0]
    with pytest.raises(InputFormatError, match="expected a permutation"):
        io.parse_bijection(perm, len(perm))
    assert io.parse_bijection([1, 0, 2], 3).tolist() == [1, 0, 2]
