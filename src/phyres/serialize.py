"""JSON emission with full-precision decimal floats, and strict decoding.

The stock json encoder writes shortest-round-trip floats; file formats in
this package promise >= 15 significant digits, so floats are rendered with
'%.17g' (17 significant digits round-trip any binary64 exactly).
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import DataError


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite number")


def _parse_int(token: str):
    # '%.17g' writes -0.0 as "-0", which int() would read as 0
    return -0.0 if token == "-0" else int(token)


# json reads NaN and Infinity tokens; the files phyres reads hold finite numbers only
DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_int=_parse_int)

def _fmt_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not representable in the file formats")
    if x in (float("inf"), float("-inf")):
        raise ValueError("infinity is not representable in the file formats")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Serialize to compact JSON with 17-significant-digit floats."""
    if isinstance(obj, float) or isinstance(obj, np.floating):
        return _fmt_float(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_slots(shape: tuple, slot: str = "%.17g") -> str:
    """Nested JSON arrays of ``slot``s for an array of ``shape``: a
    '%'-format template whose float bytes are those of ``dumps`` when each
    slot is filled with its float, or with its float's ``format(x, ".17g")``
    through a "%s" slot."""
    return ("[" + ",".join([json_slots(shape[1:], slot)] * shape[0]) + "]"
            if shape else slot)


def check_numbers(value, ndim: int, what: str) -> None:
    """A DataError unless every leaf of ``value``, ``ndim`` nested lists
    deep, is a JSON number: float() would read "8.5" and true as numbers."""
    leaves = [value]
    for _ in range(ndim):
        leaves = itertools.chain.from_iterable(leaves)
    kinds = set(map(type, leaves)) - {int, float}
    if kinds:
        kind = {str: "string", bool: "true or false", type(None): "null"}.get(
            kinds.pop(), "array or object")
        raise DataError(f"{what} holds a JSON {kind}, not a number")


def json_number(obj: dict, key: str, kind: type = float):
    """``obj[key]`` as ``kind`` if it is a JSON number (an integer for int),
    else a ValueError: int() and float() would read "8" and true."""
    value = obj[key]
    if type(value) not in ((int,) if kind is int else (int, float)):
        raise ValueError(f"{key} is {value!r}, not a JSON "
                         f"{'integer' if kind is int else 'number'}")
    return kind(value)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            return DECODER.decode(fh.read())
        except ValueError as exc:
            raise DataError(f"{path}: malformed JSON: {exc}") from exc
