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


def test_check_numbers_accepts_json_numbers():
    serialize.check_numbers([[1, 2.5], [-0.0, 3]], 2, "m")
    serialize.check_numbers([], 1, "empty")


@pytest.mark.parametrize("value, kind", [
    (["8.5"], "string"), ([True], "true or false"), ([None], "null"),
    ([[1.0]], "array or object"), ([{"a": 1}], "array or object"),
])
def test_check_numbers_names_the_first_non_number_kind(value, kind):
    with pytest.raises(DataError, match=f"^where holds a JSON {kind}, not a number$"):
        serialize.check_numbers(value, 1, "where")
