import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phyres import serialize
from phyres.errors import DataError


def test_float_seventeen_digits_round_trip():
    x = 0.1 + 0.2
    assert float(json.loads(serialize.dumps(x))) == x


def test_nested_structures():
    obj = {"a": [1, 2.5, None, True], "b": {"c": "text"}}
    assert json.loads(serialize.dumps(obj)) == obj


def test_numpy_types():
    obj = {"arr": np.array([1.5, 2.5]), "i": np.int64(3),
           "f": np.float64(0.25), "flag": np.bool_(True)}
    parsed = json.loads(serialize.dumps(obj))
    assert parsed == {"arr": [1.5, 2.5], "i": 3, "f": 0.25, "flag": True}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError):
        serialize.dumps({"x": bad})


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        serialize.dumps({"x": object()})


def test_write_and_read_json(tmp_path):
    path = tmp_path / "obj.json"
    obj = {"v": [0.1, 0.2, 0.30000000000000004]}
    serialize.write_json(path, obj)
    assert serialize.read_json(path) == obj


@pytest.mark.parametrize("text, detail", [
    ('{"x": NaN}', "NaN is not a finite number"),
    ('{"x": -Infinity}', "-Infinity is not a finite number"),
    ('{"x": ', "Expecting value"),
    (b'{"x": "\xff"}', "can't decode byte"),
], ids=["nan", "infinity", "truncated", "not-utf8"])
def test_read_json_malformed_is_data_error(tmp_path, text, detail):
    path = tmp_path / "obj.json"
    (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: malformed JSON: .*{re.escape(detail)}"):
        serialize.read_json(path)


def test_read_json_keeps_negative_zero(tmp_path):
    path = tmp_path / "obj.json"
    serialize.write_json(path, {"x": -0.0})
    assert math.copysign(1.0, serialize.read_json(path)["x"]) == -1.0


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_any_finite_float_round_trips_exactly(x):
    restored = float(json.loads(serialize.dumps(x)))
    assert restored == x or (x == 0.0 and restored == 0.0)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12), max_size=20))
@settings(max_examples=100, deadline=None)
def test_array_round_trip(values):
    arr = np.array(values, dtype=float)
    restored = np.array(json.loads(serialize.dumps(arr)), dtype=float)
    assert restored.shape == arr.shape
    assert all(a == b for a, b in zip(arr, restored))


def test_deterministic_output():
    obj = {"b": 2.0, "a": [1, math.pi]}
    assert serialize.dumps(obj) == serialize.dumps(obj)


@pytest.mark.parametrize("text, kind, expected", [
    ("2", float, 2.0), ("2.5", float, 2.5), ("-0", float, -0.0), ("7", int, 7),
])
def test_number_takes_a_finite_json_number(text, kind, expected):
    value = serialize.number(serialize.DECODER.decode(text), "w", kind)
    assert type(value) is kind and value == expected
    assert math.copysign(1, value) == math.copysign(1, expected)


BIG = "1" + "0" * 400  # an integer literal beyond the float range


@pytest.mark.parametrize("text, kind, message", [
    ('"8.5"', float, "'8.5', not a finite JSON number"),
    ("true", float, "True, not a finite JSON number"),
    ("null", float, "None, not a finite JSON number"),
    ("[1.0]", float, "[1.0], not a finite JSON number"),
    ('{"a": 1}', float, "{'a': 1}, not a finite JSON number"),
    ("1e999", float, "inf, not a finite JSON number"),
    (BIG, float, f"{BIG}, not a finite JSON number"),
    ("4.0", int, "4.0, not a JSON integer"),
    ("true", int, "True, not a JSON integer"),
    ('"4"', int, "'4', not a JSON integer"),
], ids=["string", "bool", "null", "array", "object", "overflow", "big-integer",
        "float-for-int", "bool-for-int", "string-for-int"])
def test_number_rejects_all_else(text, kind, message):
    with pytest.raises(DataError, match=f"^w is {re.escape(message)}$"):
        serialize.number(serialize.DECODER.decode(text), "w", kind)


def test_numbers_takes_nested_json_numbers():
    array = serialize.numbers([[1, 2.5], [-0.0, 3]], 2, "m")
    assert array.dtype == np.float64 and array.tolist() == [[1.0, 2.5], [-0.0, 3.0]]
    assert serialize.numbers(4, 0, "scalar").shape == ()
    assert serialize.numbers([], 1, "empty").shape == (0,)


@pytest.mark.parametrize("text, ndim, message", [
    ('["8.5"]', 1, "holds '8.5', not a finite JSON number"),
    ("[1, true]", 1, "holds True, not a finite JSON number"),
    ("[null]", 1, "holds None, not a finite JSON number"),
    ("[[1.0]]", 1, "holds [1.0], not a finite JSON number"),
    ('[{"a": 1}]', 1, "holds {'a': 1}, not a finite JSON number"),
    ('"8.5"', 0, "holds '8.5', not a finite JSON number"),
    ("null", 1, "is not a 1-dimensional JSON array"),
    ("[1, 2]", 2, "is not a 2-dimensional JSON array"),
    ("[[1, 2], [3]]", 2, "is not a 2-dimensional JSON array"),
    ("[1, 1e999]", 1, "holds inf, not a finite JSON number"),
    (f"[[1], [{BIG}]]", 2, f"holds {BIG}, not a finite JSON number"),
], ids=["string", "bool", "null", "nested-too-deep", "object", "scalar-string",
        "null-for-array", "flat-for-2d", "unequal-rows", "overflow", "big-integer"])
def test_numbers_rejects_all_else(text, ndim, message):
    with pytest.raises(DataError, match=f"^where {re.escape(message)}$"):
        serialize.numbers(serialize.DECODER.decode(text), ndim, "where")
