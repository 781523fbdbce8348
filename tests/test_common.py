import contextlib
import io
import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from homspace import cli, common
from homspace.common import dumps_report, read_json, stable_sum


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


# JSON documents shaped like space files, as literal text: finite doubles
# written three ways, integers within 64 bits, booleans, null, strings and
# nested lists and objects
_float_literals = st.builds(lambda x, fmt: fmt(x), _bits,
                            st.sampled_from([repr, "%.17g".__mod__, "%.20e".__mod__]))
_strings = st.builds(json.dumps, st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                     ensure_ascii=st.booleans())
_documents = st.recursive(
    _float_literals | st.integers(-2**63, 2**64 - 1).map(str) | _strings
    | st.sampled_from(["true", "false", "null"]),
    lambda inner: (st.lists(inner, max_size=6).map(lambda v: "[" + ", ".join(v) + "]")
                   | st.dictionaries(_strings, inner, max_size=4).map(
                       lambda d: "{" + ", ".join(f"{k}: {v}" for k, v in d.items()) + "}")),
    max_leaves=40)


def _same(a, b) -> bool:
    """Equal values of equal types all the way down, floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_read_json_parses_like_json(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_bytes(text.encode())
    expected = json.loads(text)
    # orjson itself accepts every such document, so read_json returns its parse
    assert _same(orjson.loads(path.read_bytes()), expected)
    assert _same(read_json(str(path)), expected)


def test_read_json_reads_valid_input_without_json(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text('{"weights": [1, 0.5], "points": [[0.25], [1e-3]]}')
    monkeypatch.setattr(common.json, "load", None)
    assert read_json(str(path)) == {"weights": [1, 0.5], "points": [[0.25], [0.001]]}


def _space(literal: bytes) -> bytes:
    return b'{"weights": [1, 1], "points": [[0.5], [' + literal + b']]}'


# inputs orjson refuses, with the exit code and message of ``gallery
# --space`` that the stdlib parser alone gave them; only "invalid-utf8"
# (which now names its file) and "depth-100000" (which raised RecursionError)
# read differently
REFUSED = {
    "nan": (_space(b"NaN"), "{path}: non-finite entry in 'points' at [1, 0]: nan"),
    "infinity": (_space(b"Infinity"), "{path}: non-finite entry in 'points' at [1, 0]: inf"),
    "-infinity": (_space(b"-Infinity"), "{path}: non-finite entry in 'points' at [1, 0]: -inf"),
    "1e400": (_space(b"1e400"), "{path}: non-finite entry in 'points' at [1, 0]: inf"),
    "400-digit-int": (_space(b"1" + b"0" * 400),
                      "{path}: 'points' must be a regular array of numbers"),
    "bom": (b"\xef\xbb\xbf" + _space(b"1.5"),
            "{path}: malformed JSON at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "invalid-utf8": (_space(b"1.5") + b" \xff",
                     "{path}: 'utf-8' codec can't decode byte 0xff in position 46: "
                     "invalid start byte"),
    "trailing-comma": (b'{"weights": [1, 1,], "points": [[0.5], [1.5]]}',
                       "{path}: malformed JSON at line 1: Expecting value"),
    "lone-surrogate": (b'{"weights": [1, 1], "points": [[0.5], [1.5]], "metric": "\\ud800"}',
                       "{path}: unknown metric '\\ud800'"),
    "depth-100000": (b"[" * 100_000, "{path}: JSON nested too deeply to parse"),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_refused_inputs_keep_their_verdicts(tmp_path, name):
    raw, message = REFUSED[name]
    path = tmp_path / "space.json"
    path.write_bytes(raw)
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["gallery", "--space", str(path), "--out", str(tmp_path / "out.json")])
    assert (code, err.getvalue()) == (2, "error: " + message.format(path=path) + "\n")
