"""JSON dialect shared by the CLI: parsing of inputs and canonical reports.

Complex numbers are two-element arrays [re, im]; matrices are {"rows": [...]};
reports are rendered with sorted keys and 17-significant-digit floats so that
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import functools
import json

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


def parse_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(t, (int, float)) for t in obj):
        return complex(obj[0], obj[1])
    raise InputFormatError(f"expected a complex number as [re, im], got {obj!r}")


def parse_integer(obj, what: str) -> int:
    """A JSON integer: an ``int`` that is not a ``bool``, never a float or a
    string that ``int()`` would truncate or parse."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise InputFormatError(f"{what} must be an integer, got {obj!r}")


def _complex_array(obj, ndim: int) -> np.ndarray | None:
    """``obj`` as an ndim-dimensional complex array of [re, im] pairs, or None.

    One ``np.array`` call reads the whole nested list.  Only a numeric array of
    shape (..., 2) is taken, and its planes are copied into the real and
    imaginary parts with no arithmetic, so every entry has the bits
    ``complex(re, im)`` gives (-0.0, NaN and inf included).  Anything else
    (bare reals, ragged rows, huge integers, junk) gives None, and the caller
    parses entry by entry for the result or the error message.
    """
    try:
        arr = np.array(obj)
    except (OverflowError, TypeError, ValueError):
        return None
    if arr.dtype.kind not in "biuf" or arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        return None
    out = np.empty(arr.shape[:-1], dtype=np.complex128)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out


@as_input_error
def parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputFormatError('expected a matrix object with a "rows" key')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise InputFormatError('"rows" must be a nonempty list')
    fast = _complex_array(rows, 2)
    if fast is not None:
        return fast
    data = [[parse_complex(e) for e in row] for row in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InputFormatError("matrix rows have unequal lengths")
    return np.array(data, dtype=np.complex128)


@as_input_error
def parse_system(obj) -> OperatorSystemSpan:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise InputFormatError('expected a system object with a "generators" key')
    gens = [parse_matrix(g) for g in obj["generators"]]
    include_identity = bool(obj.get("include_identity", True))
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
    data = _complex_array(pts, 2)
    if data is None:
        data = [[parse_complex(c) for c in p] for p in pts]
    dim = parse_integer(obj["dim"], '"dim"') if "dim" in obj else len(data[0])
    return PointSet(ambient=dim, points=np.asarray(data, dtype=np.complex128))


def _parse_table(spec, arity: int, size: int) -> np.ndarray:
    if isinstance(spec, list):
        arr = np.asarray(spec, dtype=np.float64)
        if arr.shape != (size,) * arity:
            raise InputFormatError(f"relation table has shape {arr.shape}, expected {(size,) * arity}")
        return arr
    if isinstance(spec, dict):
        arr = np.zeros((size,) * arity)
        for key, value in spec.items():
            idx = tuple(int(t) for t in str(key).split(","))
            if len(idx) != arity:
                raise InputFormatError(f"table key {key!r} does not match arity {arity}")
            if not all(0 <= i < size for i in idx):
                raise InputFormatError(f"table key {key!r} has an index outside range({size})")
            arr[idx] = float(value)
        return arr
    raise InputFormatError("relation table must be a nested list or an index-keyed object")


@as_input_error
def parse_structure(obj) -> FiniteStructure:
    if not isinstance(obj, dict) or "metric" not in obj:
        raise InputFormatError('expected a structure object with a "metric" key')
    metric = np.asarray(obj["metric"], dtype=np.float64)
    size = metric.shape[0] if metric.ndim == 2 else 0
    relations = {}
    for name, rel in (obj.get("relations") or {}).items():
        if not isinstance(rel, dict) or "arity" not in rel or "table" not in rel:
            raise InputFormatError(f'relation {name!r} needs "arity" and "table" keys')
        arity = parse_integer(rel["arity"], f"the arity of relation {name!r}")
        relations[name] = _parse_table(rel["table"], arity, size)
    domains = tuple(tuple(parse_integer(i, "a domain index") for i in d)
                    for d in obj.get("domains") or [])
    return FiniteStructure(metric=metric, relations=relations, domains=domains)


@as_input_error
def parse_element(obj) -> AmplifiedElement:
    """An element of M_n(X): an n x n array of coefficient vectors."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputFormatError('element file needs a "coeffs" key')
    coeffs = _complex_array(obj["coeffs"], 3)
    if coeffs is None:
        coeffs = np.array(
            [[[parse_complex(c) for c in vecs] for vecs in row] for row in obj["coeffs"]],
            dtype=np.complex128,
        )
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
