import math

import numpy as np
from hypothesis import given, settings, strategies as st

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
