"""jsonio's own JSON writer and row encoders, against the json module and
the element encoders they replace."""

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


def reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


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
SCALARS = STRINGS | st.integers() | st.integers(-(2**70), 2**70) | st.booleans() | st.none()
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
            assert jsonio._rows_json(rows, den) == {
                "var": "x", "coeffs": element_coeffs(K, rows, den)
            }, (d, n, k, e.label, den)
        poly = jsonio.factor_product_json(replace(product, entries=(e,)))["factors"][0]
        assert poly["poly"]["coeffs"] == element_coeffs(K, e.rows, e.den)


def test_zero_row_encoding():
    assert jsonio._rows_json([[0, 0], [5, 0]], 5)["coeffs"][0] == {
        "num": {"var": "c", "coeffs": []}, "den": "1"
    }
