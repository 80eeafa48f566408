"""JSON emission with full-precision decimal floats, and strict decoding.

The stock json encoder writes shortest-round-trip floats; file formats in
this package promise >= 15 significant digits, so floats are rendered with
'%.17g' (17 significant digits round-trip any binary64 exactly).
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np

from .errors import DataError, NumericError


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
    return np.array(finite_numbers(value, ndim, what), dtype=float)


def finite_numbers(value, ndim: int, what: str):
    """``value`` as it is if it is ``ndim`` deep rectangular lists of finite
    JSON numbers, else a DataError that begins with ``what``."""
    leaves = [value]
    for _ in range(ndim):
        if not all(type(v) is list for v in leaves) or len(set(map(len, leaves))) > 1:
            raise DataError(f"{what} is not a {ndim}-dimensional JSON array")
        leaves = list(itertools.chain.from_iterable(leaves))
    if not finite_leaves(leaves):
        bad = next(v for v in leaves if not finite_leaves([v]))
        raise DataError(f"{what} holds {bad!r}, not a finite JSON number")
    return value


def finite_leaves(leaves: list) -> bool:
    """Whether every item of ``leaves`` is a finite JSON number, by number()'s float rule."""
    return set(map(type, leaves)) <= {int, float} \
        and max(map(abs, leaves), default=0) <= sys.float_info.max


def create(path, mode: str = "w"):
    """Make the folder that holds ``path``, then open it: UTF-8 text, or bytes for "wb"."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    binary = "b" in mode
    return open(path, mode, encoding=None if binary else "utf-8", newline=None if binary else "")


def write_json(path, obj) -> None:
    try:
        text = dumps(obj)
    except ValueError as exc:  # a NaN or an infinity: nothing is made
        raise NumericError(f"{path}: {exc}") from exc
    with create(path) as fh:
        fh.write(text)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            return DECODER.decode(fh.read())
        except ValueError as exc:
            raise DataError(f"{path}: malformed JSON: {exc}") from exc
