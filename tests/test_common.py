import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homspace import common
from homspace.common import dumps_report, stable_sum


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 1.0), st.integers(-250, 250), st.booleans()),
                max_size=60))
def test_stable_sum_is_order_free(terms):
    values = np.array([(-m if neg else m) * 2.0**e for m, e, neg in terms])
    by_magnitude = values[np.argsort(np.abs(values), kind="stable")]
    assert stable_sum(values) == math.fsum(by_magnitude)
    assert stable_sum(values[::-1]) == stable_sum(values)


def test_dumps_report_float_lists():
    report = {
        "finite": [0.1, -2.5, 1e300, 5e-324, -0.0, 3.0],
        "mixed": [1.5, float("nan"), float("inf"), float("-inf")],
        "numbers": [1, 2.0, True, np.float64(0.25), np.int64(7), None],
        "numpy": np.array([[0.5, 1.0 / 3.0], [2.0, 4.0]]),
        "nested": {"empty": [], "one": [2.0]},
    }
    assert dumps_report(report) == """{
  "finite": [
    0.10000000000000001,
    -2.5,
    1.0000000000000001e+300,
    4.9406564584124654e-324,
    -0,
    3
  ],
  "mixed": [
    1.5,
    NaN,
    Infinity,
    -Infinity
  ],
  "nested": {
    "empty": [],
    "one": [
      2
    ]
  },
  "numbers": [
    1,
    2,
    true,
    0.25,
    7,
    null
  ],
  "numpy": [
    [
      0.5,
      0.33333333333333331
    ],
    [
      2,
      4
    ]
  ]
}
"""


def _per_element(obj, indent):
    """The report encoding of nested lists of numbers, written one element
    at a time: the reference for the encoder's one-format-per-row tables."""
    pad, pad_in = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(pad_in + _per_element(v, indent + 1) for v in obj) + "\n" + pad + "]"
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return format(obj, ".17g")
    return str(obj)


def _nested(obj, depth):
    """``obj`` under ``depth`` dict keys, so the encoder meets it at that indent."""
    for _ in range(depth):
        obj = {"t": obj}
    return obj


def _expected(obj, depth):
    """``dumps_report(_nested(obj, depth))`` by the per-element reference."""
    text = _per_element(obj, depth)
    for level in reversed(range(depth)):
        text = "{\n" + "  " * (level + 1) + '"t": ' + text + "\n" + "  " * level + "}"
    return text + "\n"


_bits = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.lists(st.lists(_bits, min_size=w, max_size=w),
                                                    min_size=1, max_size=6)),
       st.integers(0, 2))
def test_float_tables_and_lists_match_per_element_encoding(rows, depth):
    assert common._float_table(common.sanitize(rows))
    assert dumps_report(_nested(rows, depth)) == _expected(rows, depth)
    assert dumps_report(_nested(rows[0], depth)) == _expected(rows[0], depth)


def test_float_table_of_a_numpy_table():
    table = np.random.default_rng(7).standard_normal((9, 5)) * 1e150
    table[0, :3] = [0.0, -0.0, 5e-324]
    for depth in range(3):
        assert dumps_report(_nested(table, depth)) == _expected(table.tolist(), depth)


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0], [3.0]],                          # ragged
    [[1.0, 2.0], [3.0, float("nan")]],            # NaN
    [[float("inf"), 2.0], [3.0, 4.0]],            # +inf
    [[1.0, 2.0], [float("-inf"), 4.0]],           # -inf
    [[1, 2], [3, 4]],                             # int rows
    [[], []],                                     # empty rows
    [[1.0, 2], [3.0, 4.0]],                       # floats and ints mixed
    [[1.0, 2.0], [3, 4]],
    [[10**20, 2.0], [3.0, 4.0]],                  # an int that %.17g would round
], ids=["ragged", "nan", "inf", "-inf", "ints", "empty", "mixed", "int-row", "big-int"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_other_lists_take_the_generic_path(rows, depth):
    assert not common._float_table(common.sanitize(rows))
    assert dumps_report(_nested(rows, depth)) == _expected(rows, depth)
