"""Deterministic JSON encoding for the artifact's domain objects.

Shared polynomial format: {"var": name, "coeffs": [...]} in ascending degree.
Integers are emitted as decimal strings (JSON numbers would silently lose
precision in some consumers); rationals as {"num": ..., "den": ...} with a
positive denominator.  All encoders are pure functions of their input, so
identical inputs yield byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from .certificates import Certificate
from .numfield import NFElem, NumberField
from .polyring import ZZ, Poly


def _coeff_json(c):
    if isinstance(c, int):
        return str(c)
    if isinstance(c, Fraction):
        return {"num": str(c.numerator), "den": str(c.denominator)}
    if isinstance(c, NFElem):
        return element_json(c)
    if isinstance(c, tuple):  # cyclotomic integer in the power basis of zeta
        return [str(x) for x in c]
    raise TypeError(f"no JSON encoding for coefficient {c!r}")


def poly_json(p: Poly, var: str = "x") -> dict:
    return {"var": var, "coeffs": [_coeff_json(c) for c in p.coeffs]}


def cyc_poly_json(p: Poly, var: str = "c") -> dict:
    return {"d": p.ring.d, "var": var, "coeffs": [[str(x) for x in c] for c in p.coeffs]}


def element_json(x: NFElem) -> dict:
    return {"num": poly_json(Poly(ZZ, x.num), "c"), "den": str(x.den)}


def field_json(fieldK: NumberField) -> dict:
    return {"g": poly_json(fieldK.g, "c")}


def _rows_json(rows, den: int) -> dict:
    """poly_json of (rows, den) over K, straight from the rows (deg g
    entries): each coefficient in the bytes element_json gives its NFElem."""
    coeffs = []
    for row in rows:
        num = list(row)
        while num and not num[-1]:
            num.pop()
        shared = gcd(den, *num) if den > 0 else -gcd(den, *num)
        num = {"var": "c", "coeffs": [str(v // shared) for v in num]}
        coeffs.append({"num": num, "den": str(den // shared)})
    while coeffs and not coeffs[-1]["num"]["coeffs"]:
        coeffs.pop()
    return {"var": "x", "coeffs": coeffs}


def factor_product_json(product) -> dict:
    return {
        "d": product.d,
        "n": product.n,
        "k": product.k,
        "field": field_json(product.field),
        "factors": [
            {
                "label": e.label,
                "poly": _rows_json(e.rows, e.den),
                "exp": e.exp,
            }
            for e in product.entries
        ],
        "count": product.distinct_count,
    }


def _witness_json(value):
    if isinstance(value, dict):
        return {k: _witness_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_witness_json(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return value if abs(value) < 2**53 else str(value)
    return value


def certificate_json(cert: Certificate) -> dict:
    return {
        "claim": cert.claim,
        "verdict": cert.verdict.value,
        "witnesses": [_witness_json(w) for w in cert.witnesses],
        "diagnostics": list(cert.diagnostics),
        "taint": cert.taint,
    }


def ideal_audit_json(audit) -> dict:
    return {
        "i": audit.i,
        "A_emp": audit.a_emp,
        "A_printed_div": audit.a_printed_div,
        "A_printed_nondiv": audit.a_printed_nondiv,
        "branch_match": audit.branch_match,
        "norm_identity": audit.norm_identity,
        "unit_verified": audit.unit_verified,
        "details": [list(row) for row in audit.details],
    }


def disc_trace_json(trace) -> dict:
    return {
        "k": trace.k,
        "x0": element_json(trace.x0),
        "oracle_checked": list(trace.oracle_checked),
        "steps": [
            {
                "k": s.k,
                "sign": s.sign,
                "d_exponent": s.d_exponent,
                "critical_factor": element_json(s.critical_factor),
                "value": element_json(s.value),
            }
            for s in trace.steps
        ],
    }


def dumps(obj) -> str:
    """Stable rendering: fixed separators, preserved key order, no NaN.

    The bytes of json.dumps(obj, indent=2, allow_nan=False) for str keys,
    written here because any indent sends json to its pure-Python encoder:
    strings go through json's C escaper, other scalars and empty containers
    through json.dumps."""
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    """``obj`` at the nesting level that ``newline`` (a newline and the
    indent) opens; a str item is escaped in place, without a call."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (dict, list, tuple)) and obj:
        inner = newline + "  "
        escape = encode_basestring_ascii
        if isinstance(obj, dict):
            items = [
                escape(k) + ": " + (escape(v) if type(v) is str else _dumps(v, inner))
                for k, v in obj.items()
            ]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        items = [escape(v) if type(v) is str else _dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj, allow_nan=False)

