"""JSON dialect shared by the CLI: parsing of inputs and canonical reports.

One rule reads each JSON type.  A number is a JSON number, true and false
included as 1 and 0, never a string or null; a complex number is a number or
an [re, im] pair, and arrays of numbers are nested lists (:func:`_numbers`).
A count or index is an integer, never a boolean, float or string; a table key
joins decimal integers with commas.  A flag is true or false.  Reports have
sorted keys and 17-significant-digit floats: identical inputs, identical bytes.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np

from .degree1 import PointSet
from .errors import InputFormatError, OsclassError
from .metric import FiniteStructure
from .opsys import AmplifiedElement, OperatorSystemSpan, build_system


def as_input_error(parse):
    """Report a value of the wrong type or shape met by ``parse`` as InputFormatError."""

    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except OsclassError:
            raise
        except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputFormatError(f"malformed input: {exc}") from exc

    return checked


def parse_real(obj) -> float:
    """A JSON number; an integer past the float range raises OverflowError."""
    if isinstance(obj, (int, float)):
        return float(obj)
    raise InputFormatError(f"expected a real number, got {obj!r}")


def parse_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(t, (int, float)) for t in obj):
        return complex(obj[0], obj[1])
    raise InputFormatError(f"expected a complex number as [re, im], got {obj!r}")


def parse_integer(obj, what: str) -> int:
    """A JSON integer, never a bool, or a float or string ``int()`` would read."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise InputFormatError(f"{what} must be an integer, got {obj!r}")


def parse_boolean(obj, what: str) -> bool:
    """A JSON boolean, never a number, string or null that ``bool()`` would read."""
    if isinstance(obj, bool):
        return obj
    raise InputFormatError(f"{what} must be true or false, got {obj!r}")


def _numbers(obj, depth: int, read):
    """``obj`` as ``depth`` nested lists of numbers read by ``read``, for ``np.asarray``.

    A numeric array of that depth (of [re, im] pairs, viewed as complex with
    no arithmetic, for :func:`parse_complex`) takes one ``np.array`` call and
    keeps the bits ``read`` gives each entry; anything else is read item by
    item, one level down, for the same result or error.
    """
    if depth < 1:
        return read(obj)
    pairs = read is parse_complex
    try:
        arr = np.array(obj)
    except (OverflowError, TypeError, ValueError):
        arr = None
    if (arr is not None and arr.dtype.kind in "biuf" and arr.ndim == depth + pairs
            and (not pairs or arr.shape[-1] == 2)):
        out = arr.astype(np.float64, copy=False)
        return out.view(np.complex128)[..., 0] if pairs else out
    return [_numbers(x, depth - 1, read) for x in obj]


@as_input_error
def parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputFormatError('expected a matrix object with a "rows" key')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise InputFormatError('"rows" must be a nonempty list')
    data = _numbers(rows, 2, parse_complex)
    if len({len(r) for r in data}) != 1:
        raise InputFormatError("matrix rows have unequal lengths")
    return np.asarray(data, dtype=np.complex128)


@as_input_error
def parse_system(obj) -> OperatorSystemSpan:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise InputFormatError('expected a system object with a "generators" key')
    gens = [parse_matrix(g) for g in obj["generators"]]
    include_identity = parse_boolean(obj.get("include_identity", True), '"include_identity"')
    system = build_system(gens, include_identity=include_identity)
    if ("ambient_dim" in obj
            and parse_integer(obj["ambient_dim"], '"ambient_dim"') != system.ambient_dim):
        raise InputFormatError(
            f'declared ambient_dim {obj["ambient_dim"]} does not match generators'
        )
    return system


@as_input_error
def parse_point_set(obj) -> PointSet:
    if not isinstance(obj, dict) or "points" not in obj:
        raise InputFormatError('expected a point set object with a "points" key')
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise InputFormatError('"points" must be a nonempty list')
    data = _numbers(pts, 2, parse_complex)
    dim = parse_integer(obj["dim"], '"dim"') if "dim" in obj else len(data[0])
    return PointSet(ambient=dim, points=np.asarray(data, dtype=np.complex128))


def _parse_table(spec, arity: int, size: int) -> np.ndarray:
    if isinstance(spec, list):  # FiniteStructure checks its size
        return np.asarray(_numbers(spec, arity, parse_real), dtype=np.float64)
    if isinstance(spec, dict):
        arr = np.zeros((size,) * arity)
        for key, value in spec.items():
            # int() alone would also read " 1", "+1" and "1_0"
            if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", str(key)):
                raise InputFormatError(f"table key {key!r} must be integers joined by commas")
            idx = tuple(int(t) for t in str(key).split(","))
            if len(idx) != arity:
                raise InputFormatError(f"table key {key!r} does not match arity {arity}")
            if not all(0 <= i < size for i in idx):
                raise InputFormatError(f"table key {key!r} has an index outside range({size})")
            arr[idx] = parse_real(value)
        return arr
    raise InputFormatError("relation table must be a nested list or an index-keyed object")


@as_input_error
def parse_structure(obj) -> FiniteStructure:
    if not isinstance(obj, dict) or "metric" not in obj:
        raise InputFormatError('expected a structure object with a "metric" key')
    metric = np.asarray(_numbers(obj["metric"], 2, parse_real), dtype=np.float64)
    relations = obj.get("relations", {})
    if not isinstance(relations, dict):
        raise InputFormatError(f'"relations" must be an object, got {relations!r}')
    tables = {}
    for name, rel in relations.items():
        if not isinstance(rel, dict) or "arity" not in rel or "table" not in rel:
            raise InputFormatError(f'relation {name!r} needs "arity" and "table" keys')
        arity = parse_integer(rel["arity"], f"the arity of relation {name!r}")
        tables[name] = _parse_table(rel["table"], arity, len(metric))
    domains = tuple(tuple(parse_integer(i, "a domain index") for i in d)
                    for d in obj.get("domains") or [])
    return FiniteStructure(metric=metric, relations=tables, domains=domains)


@as_input_error
def parse_element(obj) -> AmplifiedElement:
    """An element of M_n(X): an n x n array of coefficient vectors."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputFormatError('element file needs a "coeffs" key')
    coeffs = np.asarray(_numbers(obj["coeffs"], 3, parse_complex), dtype=np.complex128)
    level = parse_integer(obj["level"], '"level"') if "level" in obj else coeffs.shape[0]
    return AmplifiedElement(level=level, coeffs=coeffs)


def parse_bijection(obj, size: int) -> np.ndarray:
    """A permutation of ``range(size)`` given as a list of indices."""
    if not (isinstance(obj, list)
            and all(isinstance(i, int) and not isinstance(i, bool) for i in obj)
            and sorted(obj) == list(range(size))):
        raise InputFormatError(f"expected a permutation of range({size}), got {obj!r}")
    return np.array(obj, dtype=int)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read JSON from {path}: {exc}") from exc


def _render(value, parts: list):
    """Append the canonical text of ``value``: dict keys as sorted strings,
    tuples and numpy arrays as lists, complex numbers as ``[re, im]``, numpy
    scalars as their Python values, other objects with attributes (such as
    dataclasses) as the dict of those, and anything else as its string."""
    if isinstance(value, dict):
        parts.append("{")
        for i, key in enumerate(sorted(value, key=str)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _render(value[key], parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(value):
            if i:
                parts.append(",")
            _render(v, parts)
        parts.append("]")
    elif isinstance(value, np.ndarray):
        _render(value.tolist(), parts)
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif isinstance(value, (complex, np.complexfloating)):
        parts.append(f"[{float(value.real):.17g},{float(value.imag):.17g}]")
    elif isinstance(value, (float, np.floating)):
        parts.append(format(float(value), ".17g"))
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif value is None:
        parts.append("null")
    elif not isinstance(value, str) and hasattr(value, "__dict__"):
        _render(vars(value), parts)
    else:
        parts.append(json.dumps(str(value)))


def canonical_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats."""
    parts: list = []
    _render(report, parts)
    return "".join(parts)
