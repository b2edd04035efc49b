"""jsonio's own JSON writer and row encoders, against the json module and
the element encoders they replace."""

import enum
import io
import json
import math
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfcert import jsonio
from pcfcert.cli import main
from pcfcert.factoring import iterate_factorization
from pcfcert.numfield import nf_new
from pcfcert.orbits import gleason
from test_golden import COMMANDS


def rows_json(rows, den: int) -> dict:
    """The shared format of (rows, den) over K as a dict, one coefficient at
    a time: the oracle of ``jsonio.RowsPoly``."""
    coeffs = []
    for row in rows:
        num = list(row)
        while num and not num[-1]:
            num.pop()
        shared = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        num = {"var": "c", "coeffs": [str(v // shared) for v in num]}
        coeffs.append({"num": num, "den": str(den // shared)})
    while coeffs and not coeffs[-1]["num"]["coeffs"]:
        coeffs.pop()
    return {"var": "x", "coeffs": coeffs}


def plain(obj):
    """``obj`` with every RowsPoly replaced by its ``rows_json`` dict."""
    if isinstance(obj, jsonio.RowsPoly):
        return rows_json(obj.rows, obj.den)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(plain(obj), indent=2, allow_nan=False)


def golden_objects():
    """Every object the golden command list hands to ``jsonio.dumps``."""
    seen = []
    dumps = jsonio.dumps

    def record(obj):
        seen.append(obj)
        return dumps(obj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "dumps", record)
        for command in COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(shlex.split(command))
    return seen


def test_golden_objects_match_json_module():
    objects = golden_objects()
    # every JSON line but the one that exits 4 before it writes anything
    assert len(objects) == sum(" --format json" in c for c in COMMANDS) - 1
    for obj in objects:
        assert jsonio.dumps(obj) == reference(obj)


STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é€", "\U0001f600", "</script>"]
)
SCALARS = (
    STRINGS | st.integers() | st.integers(-(2**70), 2**70) | st.booleans() | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    # bools equal 0 and 1, but must not be written as them, nor they as bools
    | st.sampled_from([True, 1, False, 0, -1, 1.0, 0.0, -0.0])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(obj=VALUES)
def test_random_values_match_json_module(obj):
    assert jsonio.dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, {"a": [{}, []]}, ""])
def test_empty_containers(obj):
    assert jsonio.dumps(obj) == reference(obj)


class Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("obj", [Small.ONE, [Small.ONE, 1, True], 1e300, -0.0, 2**64 + 0.5])
def test_other_scalars_match_json_module(obj):
    assert jsonio.dumps(obj) == reference(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_is_refused(bad):
    for obj in (bad, [1, bad], {"x": {"y": [bad]}}):
        with pytest.raises(ValueError):
            jsonio.dumps(obj)


def test_unencodable_value_is_a_type_error():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": {1, 2}})


# the factor products of the golden list, by (d, n, k)
GOLDEN_PRODUCTS = [(2, 2, 3), (2, 2, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 2, 2),
                   (3, 2, 3), (2, 3, 8), (2, 3, 11)]


def element_coeffs(K, rows, den):
    """The coefficient encoding through NFElem, as the output had it."""
    return [jsonio.element_json(c) for c in K.poly_from_rows(rows, den).coeffs]


@pytest.mark.parametrize("d, n, k", GOLDEN_PRODUCTS)
def test_factor_coefficients_match_element_json(d, n, k):
    K = nf_new(gleason(d, n))
    product = iterate_factorization(K, d, n, k, budget=5000)
    for e in product.entries:
        # as built, over a denominator that cancels in part, negated over a
        # denominator, with zero rows on top
        m = K.degree
        for rows, den in (
            (e.rows, e.den),
            ([[6 * x for x in r] for r in e.rows], 4),
            ([[-x for x in r] for r in e.rows], 3),
            (e.rows + [[0] * m, [0] * m], 1),
        ):
            assert rows_json(rows, den) == {
                "var": "x", "coeffs": element_coeffs(K, rows, den)
            }, (d, n, k, e.label, den)
            poly = jsonio.RowsPoly(rows, den)
            assert jsonio.dumps(poly) == reference(poly), (d, n, k, e.label, den)
        obj = jsonio.factor_product_json(replace(product, entries=(e,)))
        poly = json.loads(jsonio.dumps(obj))["factors"][0]["poly"]
        assert poly["coeffs"] == element_coeffs(K, e.rows, e.den)


def test_zero_row_encoding():
    poly = jsonio.RowsPoly([[0, 0], [5, 0]], 5)
    assert json.loads(jsonio.dumps(poly))["coeffs"][0] == {
        "num": {"var": "c", "coeffs": []}, "den": "1"
    }
    for rows in ([], [[0, 0]], [[0, 0], [0, 0]]):
        assert jsonio.dumps(jsonio.RowsPoly(rows, 3)) == '{\n  "var": "x",\n  "coeffs": []\n}'


ROWS = st.lists(
    st.lists(st.integers(-(2**70), 2**70) | st.sampled_from([0, 0, 1]), min_size=3,
             max_size=3),
    max_size=5,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=ROWS, den=st.integers(1, 60), depth=st.integers(0, 3))
def test_rows_poly_matches_json_module(rows, den, depth):
    # at any nesting level, as a dict value and as a list item
    copy = [list(row) for row in rows]
    obj = jsonio.RowsPoly(rows, den)
    for _ in range(depth):
        obj = {"poly": obj, "more": [obj, "x"]}
    assert jsonio.dumps(obj) == reference(obj)
    assert rows == copy  # only read: a factor's rows are shared
