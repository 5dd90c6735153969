"""The one-pass JSON array parsing of ``osclass.io`` against the per-entry parser.

``parse_matrix``, ``parse_point_set``, ``parse_element`` and ``parse_structure``
read a well-formed nested list of numbers (of [re, im] pairs, or of reals for
metrics and relation tables) with one ``np.array`` call.  The per-entry
parsers below are the reference: on every generated input both must give the
same array bits or the same error message.  The rest pins the one rule per
JSON type: numbers, integers, booleans and relation-table keys, and the
report writer: every float of a report reads back as the same float.
"""

import json
from dataclasses import dataclass
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclass import io
from osclass.cli import EXIT_INVALID, EXIT_OK, run
from osclass.degree1 import PointSet
from osclass.errors import InputFormatError, NoUnitError, OsclassError
from osclass.io import parse_complex
from osclass.metric import FiniteStructure
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


def nested_reals(obj, depth):
    """``obj`` read entry by entry as ``depth`` nested lists of real numbers."""
    return io.parse_real(obj) if depth < 1 else [nested_reals(x, depth - 1) for x in obj]


def entrywise_table(spec, arity, size):
    if isinstance(spec, list):
        return np.array(nested_reals(spec, arity), dtype=np.float64)
    if isinstance(spec, dict):
        table = np.zeros((size,) * arity)
        for key, value in spec.items():
            parts = str(key).split(",")
            if not all(t.isascii() and t[t.startswith("-"):].isdigit() for t in parts):
                raise InputFormatError(f"table key {key!r} must be integers joined by commas")
            idx = tuple(int(t) for t in parts)
            if len(idx) != arity:
                raise InputFormatError(f"table key {key!r} does not match arity {arity}")
            if not all(0 <= i < size for i in idx):
                raise InputFormatError(f"table key {key!r} has an index outside range({size})")
            table[idx] = io.parse_real(value)
        return table
    raise InputFormatError("relation table must be a nested list or an index-keyed object")


@io.as_input_error
def entrywise_structure(obj):
    if not isinstance(obj, dict) or "metric" not in obj:
        raise InputFormatError('expected a structure object with a "metric" key')
    metric = np.array(nested_reals(obj["metric"], 2), dtype=np.float64)
    relations = obj.get("relations", {})
    if not isinstance(relations, dict):
        raise InputFormatError(f'"relations" must be an object, got {relations!r}')
    tables = {}
    for name, rel in relations.items():
        if not isinstance(rel, dict) or "arity" not in rel or "table" not in rel:
            raise InputFormatError(f'relation {name!r} needs "arity" and "table" keys')
        arity = io.parse_integer(rel["arity"], f"the arity of relation {name!r}")
        if arity < 0:
            raise InputFormatError(f"relation {name!r} has negative arity {arity}")
        tables[name] = entrywise_table(rel["table"], arity, len(metric))
    domains = tuple(tuple(io.parse_integer(i, "a domain index") for i in d)
                    for d in obj.get("domains") or [])
    return FiniteStructure(metric=metric, relations=tables, domains=domains)


def structure_outcome(parse, obj):
    """What a parser makes of a structure: the bits of its tables, or its error."""
    try:
        value = parse(obj)
    except OsclassError as exc:
        return type(exc).__name__, str(exc)
    return (bits(value.metric), {k: (t.shape, t.tobytes()) for k, t in value.relations.items()},
            value.domains)


# numbers mixed with what the number rule rejects: strings, null, objects and pairs
odd_reals = st.one_of(numbers, junk, st.sampled_from(["1", "2.5", "nan", "0"]),
                      st.lists(numbers, min_size=2, max_size=2))


@st.composite
def spelled(draw, value):
    """``value`` as a JSON float, integer or boolean, as it allows."""
    forms = [float(value)]
    if float(value).is_integer():
        forms.append(int(value))
    if value in (0, 1):
        forms.append(bool(value))
    return draw(st.sampled_from(forms))


@st.composite
def metric_grids(draw):
    """Distances of points on a line, mostly well formed, sometimes with one
    entry replaced, a row cut short, or entries no rule reads as numbers."""
    xs = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    rows = [[draw(spelled(abs(a - b))) for b in xs] for a in xs]
    kind = draw(st.sampled_from(["line", "line", "entry", "ragged", "junk"]))
    if kind == "entry":
        i, j = draw(st.integers(0, len(xs) - 1)), draw(st.integers(0, len(xs) - 1))
        rows[i][j] = draw(odd_reals)
    elif kind == "ragged":
        rows[-1] = rows[-1][:-1]
    elif kind == "junk":
        rows = draw(st.one_of(junk, odd_reals, grids(2)))
    return rows


table_keys = st.one_of(st.sampled_from(["0", "1", "1,0", "0,0", "0,1,0", "1_0", " 1", "1 ",
                                        "01", "-1", "+1", "1.0", "x", "", "0,", ",0", "٣",
                                        "0, 1", "10"]),
                       st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
                           lambda idx: ",".join(map(str, idx))))


@st.composite
def relation_tables(draw, size):
    arity = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["list", "list", "keyed", "keyed", "odd"]))
    if kind == "list":
        entry = st.one_of(st.floats(0.0, 1.0), numbers, odd_reals)
        table = draw(tables_of(size, arity, entry))
    elif kind == "keyed":
        table = draw(st.dictionaries(table_keys, st.one_of(st.floats(0.0, 1.0), odd_reals),
                                     max_size=3))
    else:
        table = draw(st.one_of(junk, grids(max(arity, 1)), odd_reals))
    # a keyed table is dense, size ** arity entries, so integer arities stay small
    arity = draw(st.one_of(st.just(arity), st.just(arity), st.integers(-1, 4), st.floats(),
                           st.booleans(), junk))
    return {"arity": arity, "table": table}


def tables_of(size, arity, entry):
    table = entry
    for _ in range(arity):
        table = st.lists(table, min_size=size, max_size=size)
    return table


@st.composite
def structure_objects(draw):
    metric = draw(metric_grids())
    obj = {"metric": metric}
    size = len(metric) if isinstance(metric, list) else 1
    shape = draw(st.sampled_from(["none", "one", "two", "odd"]))
    if shape == "odd":
        obj["relations"] = draw(st.one_of(junk, odd_reals, st.just([1])))
    elif shape != "none":
        names = ["R", "B"][:1 + (shape == "two")]
        obj["relations"] = {name: draw(relation_tables(size)) for name in names}
    return obj


@settings(max_examples=500)
@given(structure_objects())
def test_structure_matches_the_entrywise_parser(obj):
    assert structure_outcome(io.parse_structure, obj) == structure_outcome(entrywise_structure, obj)


ELEVEN = [[abs(i - j) for j in range(11)] for i in range(11)]


@pytest.mark.parametrize("obj, message", [
    ({"metric": [[0, "1"], ["1", 0]]}, "expected a real number, got '1'"),
    ({"metric": PATH3, "relations": {"R": {"arity": 1, "table": ["1", 0, 0]}}},
     "expected a real number, got '1'"),
    ({"metric": PATH3, "relations": {"R": {"arity": 1, "table": {"0": "2.5"}}}},
     "expected a real number, got '2.5'"),
    ({"metric": ELEVEN, "relations": {"R": {"arity": 1, "table": {"1_0": 5}}}},
     "table key '1_0' must be integers joined by commas"),
    ({"metric": PATH3, "relations": {"R": {"arity": 1, "table": {" 1": 5}}}},
     "table key ' 1' must be integers joined by commas"),
    ({"metric": PATH3, "relations": [1]}, '"relations" must be an object'),
    ({"metric": PATH3, "relations": "abc"}, '"relations" must be an object'),
])
def test_structure_values_of_the_wrong_type_are_input_errors(obj, message):
    # int() and float() used to read "1_0" as 10 and "1" as 1.0, and [1] had no .items()
    with pytest.raises(InputFormatError, match=message):
        io.parse_structure(obj)


def test_keyed_and_list_tables_agree():
    keyed = io.parse_structure({"metric": PATH3, "relations": {
        "B": {"arity": 2, "table": {"0,1": 0.5, "1,0": True, "02,2": 2}}}})
    listed = io.parse_structure({"metric": PATH3, "relations": {
        "B": {"arity": 2, "table": [[0, 0.5, 0], [1.0, 0, 0], [0, 0, 2]]}}})
    assert bits(keyed.relations["B"]) == bits(listed.relations["B"])


GENERATOR = {"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
def test_include_identity_takes_only_json_booleans(flag):
    # bool() used to read "false" as true and null as false
    with pytest.raises(InputFormatError, match='"include_identity" must be true or false'):
        io.parse_system({"generators": [GENERATOR], "include_identity": flag})


def test_include_identity_reads_booleans():
    assert io.parse_system({"generators": [GENERATOR]}).dim == 3
    assert io.parse_system({"generators": [GENERATOR], "include_identity": True}).dim == 3
    # the span of a nilpotent generator and its adjoint misses the identity
    with pytest.raises(NoUnitError):
        io.parse_system({"generators": [GENERATOR], "include_identity": False})


@pytest.mark.parametrize("value, want", [(True, 1.0), (-0.0, -0.0), (2 ** 63 + 1, 2.0 ** 63),
                                         (float("nan"), float("nan"))])
def test_real_numbers_are_json_numbers(value, want):
    assert np.array([io.parse_real(value)]).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("value", ["5.58", "1", None, [1.0], {}])
def test_real_numbers_are_never_strings_or_containers(value):
    with pytest.raises(InputFormatError, match="expected a real number"):
        io.parse_real(value)


def test_string_rotation_in_a_stored_report_is_an_input_error(tmp_path):
    # float() used to read "5.58" and pass the rigid-motion check
    angles = np.array([0.0, 0.8, 1.7, 3.1, 5.0])
    paths = []
    for name, phases in (("u", angles), ("v", 0.4 - angles)):
        rows = [[[np.cos(t), np.sin(t)] if i == j else [0.0, 0.0] for j in range(5)]
                for i, t in enumerate(phases)]
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"rows": rows}))
    buf = StringIO()
    assert run(["unitary-cois", *map(str, paths)], stdout=buf) == EXIT_OK
    report = json.loads(buf.getvalue())
    motion = report["certificate"]["motion"]
    motion["rotation"] = repr(motion["rotation"])
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(report))
    buf = StringIO()
    assert run(["verify", str(stored)], stdout=buf) == EXIT_INVALID
    error = json.loads(buf.getvalue())["error"]
    assert error["kind"] == "InputFormatError" and "expected a real number" in error["message"]


@dataclass
class Record:
    value: float
    items: list


writer_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.0, -2.0, 3.0, 1e16,
                     -1e16, 2.0 ** 53, 1e300, -1e300, 1e-9, 0.1]))
writer_leaves = st.one_of(
    writer_floats, st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
    st.builds(complex, writer_floats, writer_floats),
    writer_floats.map(np.float64), writer_floats.map(np.complex128),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.lists(writer_floats, max_size=4).map(np.array),
    st.lists(st.builds(complex, writer_floats, writer_floats), max_size=3).map(np.array),
    st.builds(Record, writer_floats, st.lists(writer_floats, max_size=2)))
writer_keys = st.text("abc_XYZ019", min_size=1, max_size=4)
reports = st.recursive(
    writer_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(writer_keys, inner, max_size=4)),
    max_leaves=12)


def plain(value):
    """The JSON value a report value stands for, by the writer's rules."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Record):
        return plain(vars(value))
    return value


def assert_same(got, want):
    """Equal as JSON values, with every float the same float, sign of zero included."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want


def sorted_pairs(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@settings(max_examples=300)
@given(reports)
def test_report_floats_read_back_bit_for_bit(report):
    text = io.canonical_report({"report": report})
    assert " " not in text
    back = json.loads(text, object_pairs_hook=sorted_pairs)
    assert_same(back, {"report": plain(report)})
    # writing a parsed report again gives the same bytes, as verify needs
    assert io.canonical_report(back) == text


@pytest.mark.parametrize("value, text", [(-0.0, "-0.0"), (2.0, "2.0"), (1e-09, "1e-09"),
                                         (1e16, "1e+16"), (0.1, "0.1"),
                                         (float("nan"), "NaN"), (float("inf"), "Infinity")])
def test_floats_are_written_shortest_and_read_by_json(value, text):
    assert io.canonical_report({"x": value}) == f'{{"x":{text}}}'
    assert json.loads(text).hex() == value.hex()


def test_signed_zeros_of_a_fingerprint_reach_the_report(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"metric": [[0, 1], [1, 0]],
                                "relations": {"R": {"arity": 1, "table": [-0.0, -0.0]}}}))
    buf = StringIO()
    assert run(["gh-theory", str(path), "--depth", "1"], stdout=buf) == EXIT_OK
    assert_same(json.loads(buf.getvalue())["fingerprint"], [-0.0, 0.0, 1.0])
