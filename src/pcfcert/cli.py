"""Command-line front end: parameters, factorizations, certificates.

Exit codes: 0 success/Verified, 1 Refuted or a falsified identity, 2
Inconclusive or a hypothesis unmet, 3 usage or input error, 4 no applicable
backend or degree budget exceeded.  With --format json the output is
byte-identical across runs for identical arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache, lru_cache
from math import isqrt

from . import jsonio
from .certificates import HypothesisUnmet, OracleMismatch, Unsupported, Verdict
from .factoring import (
    NotUnit,
    ShapeViolation,
    f_irreducibility_certificate,
    factor_product_certificates,
    iterate_factorization,
    stability_certificate,
    verify_factorization,
)
from .numfield import NFElem, NotIntegral, NumberField, Reducible, nf_new
from .obstructions import (
    CASES,
    disc_iterate,
    ideal_power_audit,
    nonabelian_certificate,
)
from .orbits import (
    DEFAULT_DEGREE_BUDGET,
    BoundExceeded,
    exact_type,
    gleason,
    misiurewicz,
    orbit_poly,
)
from .polyring import BudgetExceeded, NotDivisible, Poly, ZZ

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_UNSUPPORTED = 4

FIELD_CACHE_SIZE = 32  # fields kept across requests (``_field``)

_VERDICT_EXIT = {
    Verdict.VERIFIED: EXIT_OK,
    Verdict.REFUTED: EXIT_REFUTED,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # some Pythons read "--opt=--" as an empty list for a one-value option
        value = super()._get_values(action, arg_strings)
        if action.nargs is None and isinstance(value, list):
            raise argparse.ArgumentError(action, "expected one argument")
        return value


_TERM_RE = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:(\*)?c(?:\^(\d+))?)?")


def parse_scalar_literal(text: str, fieldK) -> NFElem:
    """Parse an element literal: integer, rational, or polynomial in c.

    Accepts forms like "4", "-3/2", "c", "c^2", "2*c^2-c+3".
    """
    s = text.replace(" ", "")
    if not s:
        raise UsageError("empty element literal")
    total = fieldK.zero
    pos = 0
    matched = False
    while pos < len(s):
        mo = _TERM_RE.match(s, pos)
        if not mo or mo.end() == pos:
            raise UsageError(f"cannot parse element literal {text!r}")
        sign, coeff, _, power = mo.groups()
        if coeff is None and power is None and "c" not in s[pos:mo.end()]:
            raise UsageError(f"cannot parse element literal {text!r}")
        try:
            q = Fraction(coeff) if coeff else Fraction(1)
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in element literal {text!r}") from None
        if sign == "-":
            q = -q
        term = fieldK.from_rational(q)
        if "c" in s[pos:mo.end()]:
            exp = int(power) if power else 1
            term = term * fieldK.gen() ** exp
        total = total + term
        pos = mo.end()
        matched = True
    if not matched:
        raise UsageError(f"cannot parse element literal {text!r}")
    return total


_INT_RE = re.compile(r"-?[0-9]+")


def _load_field_file(path: str) -> Poly:
    """g from {"g": {"coeffs": [...]}}, ascending, each coefficient a JSON
    int or a decimal-integer string (as jsonio writes them)."""
    with open(path) as fh:
        data = json.load(fh)
    g = data.get("g") if isinstance(data, dict) else None
    coeffs = g.get("coeffs") if isinstance(g, dict) else None
    if not isinstance(coeffs, list) or not all(
        isinstance(c, (int, str)) and _INT_RE.fullmatch(str(c)) for c in coeffs
    ):  # str(True) is "True": a JSON boolean is rejected
        raise UsageError(f"{path}: expected integer coefficients at g.coeffs")
    return Poly.from_ints(ZZ, [int(c) for c in coeffs])


def _parse_mn(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected m,n but got {text!r}")
    return int(parts[0]), int(parts[1])


def resolve_field(args):
    """The number field of --field / --gleason-n / --misiurewicz: one per g."""
    sources = [args.field, args.gleason_n, args.misiurewicz]
    if sum(x is not None for x in sources) != 1:
        raise UsageError("exactly one of --field, --gleason-n, --misiurewicz required")
    if args.field is not None:
        g = _load_field_file(args.field)
    elif args.gleason_n is not None:
        g = gleason(args.d, args.gleason_n, args.budget)
    else:
        m, n = _parse_mn(args.misiurewicz)
        g = misiurewicz(args.d, m, n, args.budget)[1]
    return _field(g.coeffs)


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _field(coeffs: tuple) -> NumberField:
    """One field per defining polynomial, kept across requests with all it
    caches (disc g, its irreducibility certificate, primes, iterates, orbit
    values).  A reducible g raises, and nothing is kept for it."""
    return nf_new(Poly(ZZ, coeffs))


def _field_flags(sub):
    sub.add_argument("--field", help="path to a JSON file with the defining polynomial")
    sub.add_argument("--gleason-n", type=int, help="use the period-n parameter field")
    sub.add_argument(
        "--misiurewicz", help="m,n: use the type-(m,n) parameter field (norm form)"
    )


def _common_flags(sub, field=True):
    sub.add_argument("--d", type=int, required=True, help="degree of x^d + c")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--budget", type=int, default=DEFAULT_DEGREE_BUDGET)
    sub.add_argument("--precision", type=int, default=3)
    if field:
        _field_flags(sub)


def build_parser() -> _Parser:
    parser = _Parser(prog="pcfcert")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gleason", help="period-n parameter polynomial")
    _common_flags(p, field=False)
    p.add_argument("--n", type=int, required=True)

    p = subs.add_parser("misiurewicz", help="type-(m,n) parameter polynomial")
    _common_flags(p, field=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = subs.add_parser("orbit", help="critical-orbit polynomial a_i(c)")
    _common_flags(p, field=False)
    p.add_argument("--i", type=int, required=True)

    p = subs.add_parser("exact-type", help="orbit type of the critical point")
    _common_flags(p)

    for name in ("factor", "verify-factor"):
        p = subs.add_parser(name, help="closed-form factorization of f^k")
        _common_flags(p)
        p.add_argument("--k", type=int, required=True)
        if name == "factor":
            p.add_argument("--verify", action="store_true")

    p = subs.add_parser("stability-cert", help="Eisenstein stability certificate")
    _common_flags(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = subs.add_parser("f-irred-cert", help="irreducibility certificates for factors")
    _common_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, help="cofactor index (omit for all factors of f^k)")

    p = subs.add_parser("disc-check", help="discriminant recursion with oracle check")
    _common_flags(p)
    p.add_argument("--x0", default="0")
    p.add_argument("--k", type=int, required=True)

    p = subs.add_parser("ideal-audit", help="ideal-power audit for a_i")
    _common_flags(p)
    p.add_argument("--i", type=int, required=True)

    p = subs.add_parser("nonabelian-cert", help="non-abelian obstruction certificate")
    _common_flags(p)
    p.add_argument("--case", required=True, choices=CASES)
    p.add_argument("--alpha", required=True)
    return parser


def _emit(args, text_value: str, json_obj) -> None:
    if args.format == "json":
        print(jsonio.dumps(json_obj))
    else:
        print(text_value)


def _cert_text(cert) -> str:
    lines = [f"{cert.claim}: {cert.verdict.value}"]
    for w in cert.witnesses:
        lines.append("  witness " + json.dumps(jsonio._witness_json(w)))
    for msg in cert.diagnostics:
        lines.append("  note: " + msg)
    if cert.taint:
        lines.append("  taint: field irreducibility assumed, not certified")
    return "\n".join(lines)


def _emit_cert(args, cert) -> int:
    _emit(args, _cert_text(cert), jsonio.certificate_json(cert))
    return _VERDICT_EXIT[cert.verdict]


def _period_of(args, fieldK) -> int:
    if args.gleason_n is not None:
        return args.gleason_n
    typ = exact_type(fieldK, args.d)
    if typ.kind != "periodic":
        raise UsageError("the parameter is not periodic; factorization undefined")
    return typ.n


def _require_prime_d(d: int) -> None:
    """x^d + c needs d prime: Z[zeta_d] and the prime above d assume it."""
    if d < 2 or any(d % q == 0 for q in range(2, isqrt(d) + 1)):
        raise UsageError(f"--d must be a prime >= 2, got {d}")


@cache
def _parser() -> _Parser:
    """The parser, built on the first ``run`` and reused: parsing keeps no
    state between calls, and building it costs more than a small request."""
    return build_parser()


def run(argv) -> int:
    args = _parser().parse_args(argv)
    cmd = args.command
    _require_prime_d(args.d)
    if args.precision < 1:
        raise UsageError(f"--precision must be >= 1, got {args.precision}")

    if cmd == "gleason":
        g = gleason(args.d, args.n, args.budget)
        _emit(args, g.to_string("c"), jsonio.poly_json(g, "c"))
        return EXIT_OK

    if cmd == "misiurewicz":
        cyc, norm = misiurewicz(args.d, args.m, args.n, args.budget)
        _emit(
            args,
            f"cyclotomic: {cyc.to_string('c')}\nnorm form: {norm.to_string('c')}",
            {"cyclotomic": jsonio.cyc_poly_json(cyc), "norm_form": jsonio.poly_json(norm, "c")},
        )
        return EXIT_OK

    if cmd == "orbit":
        a = orbit_poly(args.d, args.i, args.budget)
        _emit(args, a.to_string("c"), jsonio.poly_json(a, "c"))
        return EXIT_OK

    fieldK = resolve_field(args)

    if cmd == "exact-type":
        typ = exact_type(fieldK, args.d)
        _emit(
            args,
            str(typ),
            {"kind": typ.kind, "m": typ.m, "n": typ.n, "field": jsonio.field_json(fieldK)},
        )
        return EXIT_OK

    if cmd in ("factor", "verify-factor"):
        n = _period_of(args, fieldK)
        product = iterate_factorization(fieldK, args.d, n, args.k, args.budget)
        cert = None
        if cmd == "verify-factor" or args.verify:
            cert = verify_factorization(product, args.budget)
        if args.format == "json":  # build only the requested rendering
            obj = jsonio.factor_product_json(product)
            if cert:
                obj = {"product": obj, "certificate": jsonio.certificate_json(cert)}
            print(jsonio.dumps(obj))
        else:
            for e in product.entries:
                poly = fieldK.poly_from_rows(e.rows, e.den)
                print(f"{e.label}: ({poly.to_string()})^{e.exp}")
            print(f"distinct factors: {product.distinct_count}")
            if cert:
                print(f"verification: {cert.verdict.value}")
        return _VERDICT_EXIT[cert.verdict] if cert else EXIT_OK

    if cmd == "stability-cert":
        alpha = parse_scalar_literal(args.alpha, fieldK)
        typ = exact_type(fieldK, args.d)
        cert = stability_certificate(fieldK, args.d, typ, alpha, args.kmax, args.budget)
        return _emit_cert(args, cert)

    if cmd == "f-irred-cert":
        n = _period_of(args, fieldK)
        if args.i is not None:
            cert = f_irreducibility_certificate(
                fieldK, args.d, n, args.k, args.i, args.budget
            )
            return _emit_cert(args, cert)
        product = iterate_factorization(fieldK, args.d, n, args.k, args.budget)
        certs = factor_product_certificates(product, args.budget)
        worst = max(_VERDICT_EXIT[c.verdict] for c in certs.values())
        _emit(
            args,
            "\n".join(_cert_text(c) for _, c in sorted(certs.items())),
            {lab: jsonio.certificate_json(c) for lab, c in sorted(certs.items())},
        )
        return worst

    if cmd == "disc-check":
        x0 = parse_scalar_literal(args.x0, fieldK)
        trace = disc_iterate(fieldK, args.d, x0, args.k, budget=args.budget)
        _emit(
            args,
            f"disc(f^{args.k} - x0) = {trace.value} "
            f"(oracle-checked at k = {list(trace.oracle_checked)})",
            jsonio.disc_trace_json(trace),
        )
        return EXIT_OK

    if cmd == "ideal-audit":
        typ = exact_type(fieldK, args.d)
        audit = ideal_power_audit(fieldK, args.d, typ, args.i)
        text = (
            f"i = {audit.i}: A_emp = {audit.a_emp}, printed branches "
            f"{audit.a_printed_div} (n | m-1) / {audit.a_printed_nondiv} (n ∤ m-1), "
            f"match = {audit.branch_match}"
        )
        _emit(args, text, jsonio.ideal_audit_json(audit))
        return EXIT_OK

    if cmd == "nonabelian-cert":
        alpha = parse_scalar_literal(args.alpha, fieldK)
        cert = nonabelian_certificate(
            args.case, fieldK, args.d, alpha, budget=args.budget
        )
        return _emit_cert(args, cert)

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Reducible, BoundExceeded, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisUnmet, NotIntegral, NotUnit) as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (Unsupported, BudgetExceeded) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OracleMismatch as exc:
        print(f"refuted (internal oracle mismatch): {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (ShapeViolation, NotDivisible) as exc:
        print(f"refuted (falsified identity): {exc}", file=sys.stderr)
        return EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
