"""JSON emission with full-precision decimal floats, and strict decoding.

The stock json encoder writes shortest-round-trip floats; file formats in
this package promise >= 15 significant digits, so floats are rendered with
'%.17g' (17 significant digits round-trip any binary64 exactly).
"""

from __future__ import annotations

import itertools
import json
import sys

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


def number(value, what: str, kind: type = float):
    """``value`` as ``kind`` if it is a finite JSON number (for int, a JSON
    integer), else a DataError that begins with ``what``: float() would read
    "8" and true, and json reads 1e999 as infinity."""
    if type(value) in ((int,) if kind is int else (int, float)) and (
            kind is int or abs(value) <= sys.float_info.max):
        return kind(value)
    raise DataError(f"{what} is {value!r}, not a "
                    f"{'JSON integer' if kind is int else 'finite JSON number'}")


def numbers(value, ndim: int, what: str) -> np.ndarray:
    """``value``, ``ndim`` deep rectangular lists of finite JSON numbers, as a
    float64 array; else a DataError that begins with ``what``."""
    leaves = [value]
    for _ in range(ndim):
        if not all(type(v) is list for v in leaves) or len(set(map(len, leaves))) > 1:
            raise DataError(f"{what} is not a {ndim}-dimensional JSON array")
        leaves = list(itertools.chain.from_iterable(leaves))
    # number()'s float rule, for each leaf
    bad = [v for v in leaves if type(v) not in (int, float) or not abs(v) <= sys.float_info.max]
    if bad:
        raise DataError(f"{what} holds {bad[0]!r}, not a finite JSON number")
    return np.array(value, dtype=float)


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
