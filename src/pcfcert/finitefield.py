"""Polynomial factorization over finite fields and Hensel lifting.

F_q = F_p[t]/(G) for G monic irreducible of degree f over F_p, with G = t
for F_p itself.  An element of F_q is a row of f residues in [0, p), its
coordinates in 1, t, ..., t^(f-1), and a polynomial over F_q is a list of
rows, ascending, with no zero top row (the zero polynomial is []): the row
form of K[x] in polyring.  Every function takes the field as (G, p), and
``field_modulus`` checks once that the pair defines a field.

Inside, a polynomial is held as its f columns (entry j of every row), as
polyring's row kernels hold theirs; at f = 1 that is one list of residues,
and the kernels take a width-1 path.  Products are polyring's Kronecker
products, reduced modulo G and p a column at a time.  Each step of the
remainder by a monic divisor subtracts c times the divisor from whole
columns, products in t left unreduced, and reduces only the next leading
element modulo G and p.

Factorization is squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree splitting (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 14), from a fixed seed: ``factor`` sorts its output
by (degree, coefficient rows), so it does not depend on the draws.  At p =
2 the split uses the trace map, as the random-power method degenerates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest
from math import isqrt
from typing import Sequence

from .certificates import OracleMismatch
from .polyring import (
    NotDivisible,
    Poly,
    ZZ,
    _mul_columns,
    _pack,
    _reduce_columns,
    _slot_bytes,
    _times,
    _trim,
    _unpack,
    inverse_mod,
    pow_rows,
    reduce_monic,
)


class NotSquarefree(ArithmeticError):
    """Seed factorization is not squarefree mod p; Hensel lifting is unsound."""


def field_modulus(G: Sequence[int], p: int) -> tuple[int, ...]:
    """G mod p, checked to define F_q = F_p[t]/(G): ValueError unless p is a
    prime and G is monic and irreducible over F_p (Rabin's test)."""
    if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        raise ValueError("modulus must be a prime >= 2")
    G = tuple(c % p for c in G)
    if len(G) < 2 or G[-1] != 1:
        raise ValueError("defining polynomial must be monic nonconstant")
    if not is_irreducible([[c] for c in G], (0, 1), p):
        raise ValueError("defining polynomial is reducible over F_p")
    return G


# -- kernels on columns ---------------------------------------------------------


def _cols(rows, f: int) -> list:
    return _trim([list(col) for col in zip(*rows)]) if rows else [[] for _ in range(f)]


def _rows(cols) -> list:
    return [list(row) for row in zip(*cols)]


def _monomial(f: int, k: int) -> list:
    """x^k."""
    return [[0] * k + [1]] + [[0] * (k + 1) for _ in range(f - 1)]


def _deg(a) -> int:
    return len(a[0]) - 1


def _add(a, b, p: int, sign: int = 1) -> list:
    """a + sign * b."""
    sums = (zip_longest(u, v, fillvalue=0) for u, v in zip(a, b))
    return _trim([[(x + sign * y) % p for x, y in col] for col in sums])


def _mul(a, b, G, p: int) -> list:
    if not (a[0] and b[0]):
        return [[] for _ in a]
    if len(a) == 1:  # width 1: one product of the packed residues
        (x,), (y,) = a, b
        k = _slot_bytes(min(len(x), len(y)) * (p - 1) ** 2)
        vx = _pack(a, len(x), 1, k)
        vy = vx if b is a else _pack(b, len(y), 1, k)
        return [[v % p for v in _unpack(vx * vy, len(x) + len(y) - 1, k)]]
    ta = (a, len(a[0]))
    return _mul_columns(ta, ta if b is a else (b, len(b[0])), G, p)[0]


def _inverse(x, G, p: int) -> list:
    """The inverse of a nonzero element from its adjugate (polyring.inverse_mod):
    x adj = n modulo G, and p does not divide n when F_q is a field."""
    if len(x) == 1:
        return [pow(x[0], -1, p)]
    adj, n = inverse_mod(x, G)
    k = pow(n, -1, p)
    return [v * k % p for v in adj]


def _scale(a, c, G, p: int) -> list:
    """a times the element c."""
    if len(a) == 1:
        return [[x * c[0] % p for x in a[0]]]
    return _reduce_columns(_times(c, a), len(a[0]), G, p)


def _monic(a, G, p: int) -> list:
    lead = [col[-1] for col in a]
    if lead[0] == 1 and not any(lead[1:]):
        return a
    return _scale(a, _inverse(lead, G, p), G, p)


def _divmod(a, b, G, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by the monic b."""
    f, na, nb = len(a), len(a[0]), len(b[0]) - 1
    if na <= nb:
        return [[] for _ in a], a
    cols = [list(col) for col in a] + [[0] * na for _ in range(f - 1)]
    tail = [col[:nb] for col in b]
    quo = [[0] * (na - nb) for _ in a]
    for top in range(na - 1, nb - 1, -1):
        lo = top - nb
        if f == 1:
            lead = [cols[0][top] % p]
        else:
            lead = reduce_monic([col[top] for col in cols], G, p)
        for i, c in enumerate(lead):
            if c:
                quo[i][lo] = c
                for col, y in zip(cols[i:], tail):
                    col[lo:top] = [x - c * v for x, v in zip(col[lo:top], y)]
    if f == 1:
        return quo, _trim([[x % p for x in cols[0][:nb]]])
    return quo, _trim(_reduce_columns([col[:nb] for col in cols], nb, G, p))


def _exact_div(a, b, G, p: int) -> list:
    quo, rem = _divmod(a, b, G, p)
    if rem[0]:
        raise NotDivisible("nonzero remainder in an exact division over F_q")
    return quo


def _gcd(a, b, G, p: int) -> list:
    """The monic gcd; ValueError for gcd(0, 0)."""
    if not (a[0] or b[0]):
        raise ValueError("gcd(0, 0) undefined")
    while b[0]:
        b = _monic(b, G, p)
        a, b = b, _divmod(a, b, G, p)[1]
    return _monic(a, G, p)


def _xgcd(a, b, G, p: int) -> tuple[list, list, list]:
    """(h, s, t) with h = s a + t b the monic gcd of a and b, b nonzero."""
    one, zero = _monomial(len(a), 0), [[] for _ in a]
    r0, r1, s0, s1, t0, t1 = a, b, one, zero, zero, one
    while r1[0]:
        inv = _inverse([col[-1] for col in r1], G, p)
        r1, s1, t1 = (_scale(v, inv, G, p) for v in (r1, s1, t1))
        quo, rem = _divmod(r0, r1, G, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _add(s0, _mul(quo, s1, G, p), p, -1)
        t0, t1 = t1, _add(t0, _mul(quo, t1, G, p), p, -1)
    return r0, s0, t0


def _powmod(a, e: int, m, G, p: int) -> list:
    """a^e modulo the monic m, for e >= 1."""
    base = result = _divmod(a, m, G, p)[1]
    for bit in bin(e)[3:]:
        result = _divmod(_mul(result, result, G, p), m, G, p)[1]
        if bit == "1":
            result = _divmod(_mul(result, base, G, p), m, G, p)[1]
    return result


# -- factoring -------------------------------------------------------------------


def is_irreducible(g, G: Sequence[int], p: int) -> bool:
    """Rabin's test for g over F_q = F_p[t]/(G): x^(q^n) = x mod g, and
    x^(q^(n/l)) - x coprime to g for each prime l | n; n = deg g."""
    f = len(G) - 1
    g = _cols(g, f)
    n = _deg(g)
    if n <= 1:
        return n == 1
    g, x = _monic(g, G, p), _monomial(f, 1)
    checks = {n // ell for ell in range(2, n + 1)
              if n % ell == 0 and all(ell % r for r in range(2, isqrt(ell) + 1))}
    xq = x
    for k in range(1, n + 1):
        xq = _powmod(xq, p**f, g, G, p)
        if k in checks and _deg(_gcd(_add(xq, x, p, -1), g, G, p)):
            return False
    return xq == x


def _pth_root(h, G, p: int) -> list:
    """The p-th root of h = sum h_(pi) x^(pi): a -> a^(p^(f-1)) on each
    h_(pi), the inverse of Frobenius on F_q."""
    f = len(G) - 1
    h = [col[::p] for col in h]
    if f == 1:
        return h
    return _cols([pow_rows([row], p ** (f - 1), G, p)[0] for row in _rows(h)], f)


def _squarefree(g, G, p: int) -> list[tuple[list, int]]:
    """[(part, multiplicity)] for the monic g, in characteristic p."""
    out: dict[int, list] = {}

    def sqf(h, scale: int):
        if _deg(h) <= 0:
            return
        dh = _trim([[j * x % p for j, x in enumerate(col)][1:] for col in h])
        if not dh[0]:
            sqf(_pth_root(h, G, p), scale * p)
            return
        c = _gcd(h, dh, G, p)
        w = _exact_div(h, c, G, p)
        m = 1
        while _deg(w) > 0:
            y = _gcd(w, c, G, p)
            part = _exact_div(w, y, G, p)
            if _deg(part) > 0:
                k = m * scale
                out[k] = _mul(out[k], part, G, p) if k in out else part
            c = _exact_div(c, y, G, p)
            w = y
            m += 1
        if _deg(c) > 0:
            sqf(_pth_root(c, G, p), scale * p)

    sqf(g, 1)
    return sorted(((part, mult) for mult, part in out.items()), key=lambda it: it[1])


def squarefree_decomposition(g, G: Sequence[int], p: int) -> list[tuple[list, int]]:
    """Squarefree decomposition of g != 0 over F_q = F_p[t]/(G): [(monic
    part as rows, multiplicity)] by multiplicity, p-th powers handled."""
    parts = _squarefree(_monic(_cols(g, len(G) - 1), G, p), G, p)
    return [(_rows(part), mult) for part, mult in parts]


def _distinct_degree(g, G, p: int) -> list[tuple[list, int]]:
    """The squarefree monic g split into products of irreducibles of one
    degree: [(product, degree)]."""
    x, q = _monomial(len(G) - 1, 1), p ** (len(G) - 1)
    out, xq, d, rest = [], x, 0, g
    while _deg(rest) >= 2 * (d + 1):
        d += 1
        xq = _powmod(xq, q, rest, G, p)
        part = _gcd(_add(xq, x, p, -1), rest, G, p)
        if _deg(part) > 0:
            out.append((part, d))
            rest = _exact_div(rest, part, G, p)
            xq = _divmod(xq, rest, G, p)[1]
    if _deg(rest) > 0:
        out.append((rest, _deg(rest)))
    return out


SPLIT_DRAWS = 64  # a draw splits with chance >= 1/2 over a field


def _equal_degree(g, d: int, G, p: int, rng: random.Random) -> list:
    """The squarefree monic product g of degree-d irreducibles, split.
    ValueError after SPLIT_DRAWS draws that all fail, which over a field
    happens with chance at most 2^-64: G is then not irreducible mod p, or
    g is not such a product."""
    f, n = len(G) - 1, _deg(g)
    if n == d:
        return [g]
    for _ in range(SPLIT_DRAWS):
        a = _trim([[rng.randrange(p) for _ in range(n)] for _ in range(f)])
        if _deg(a) < 1:
            continue
        split = _gcd(a, g, G, p)
        if not 0 < _deg(split) < n:
            if p == 2:
                # the trace a + a^2 + a^4 + ... (d*f terms), summed mod 2
                t = acc = a
                for _ in range(d * f - 1):
                    t = _divmod(_mul(t, t, G, p), g, G, p)[1]
                    acc = _add(acc, t, p)
            else:
                b = _powmod(a, (p ** (d * f) - 1) // 2, g, G, p)
                acc = _add(b, _monomial(f, 0), p, -1)
            split = _gcd(acc, g, G, p)
        if 0 < _deg(split) < n:
            rest = _exact_div(g, split, G, p)
            return _equal_degree(split, d, G, p, rng) + _equal_degree(rest, d, G, p, rng)
    raise ValueError(
        f"no equal-degree split of a degree-{n} product in {SPLIT_DRAWS} draws "
        f"over F_p[t]/(G), G = {tuple(G)}, p = {p}"
    )


def degree_pattern(g, G: Sequence[int], p: int) -> list[int]:
    """The degrees of the irreducible factors of the squarefree g over F_q =
    F_p[t]/(G), ascending, from the distinct-degree split alone.  That g is
    squarefree is the caller's to know (for g mod p, from p not dividing
    disc g); a square factor makes the pattern wrong."""
    if not g:
        raise ValueError("cannot factor the zero polynomial")
    parts = _distinct_degree(_monic(_cols(g, len(G) - 1), G, p), G, p)
    return sorted(d for part, d in parts for _ in range(_deg(part) // d))


def factor(g, G: Sequence[int], p: int) -> list[tuple[list, int]]:
    """Complete factorization of g over F_q = F_p[t]/(G) into monic
    irreducibles: [(irreducible as rows, multiplicity)], sorted by degree,
    then coefficient rows, then multiplicity."""
    if not g:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(1)
    out = []
    for part, mult in _squarefree(_monic(_cols(g, len(G) - 1), G, p), G, p):
        for same, d in _distinct_degree(part, G, p):
            out += [(_rows(irr), mult) for irr in _equal_degree(same, d, G, p, rng)]
    return sorted(out, key=lambda it: (len(it[0]), tuple(map(tuple, it[0])), it[1]))


# -- Hensel lifting ---------------------------------------------------------


@dataclass(frozen=True)
class LiftedFactorization:
    """Monic factors of g modulo p^T, pairwise coprime mod p."""

    p: int
    T: int
    factors: tuple[Poly, ...]  # over ZZ, coefficients reduced into [0, p^T)


FP = (0, 1)  # F_p = F_p[t]/(t)


def _reduce_mod(poly: Poly, m: int) -> Poly:
    return Poly.make(ZZ, [c % m for c in poly.coeffs])


def _fp(poly: Poly, p: int) -> list:
    return _trim([[c % p for c in poly.coeffs]])


def _lift_pair(g: Poly, u: Poly, v: Poly, p: int, T: int) -> tuple[Poly, Poly]:
    """Lift monic u*v = g (mod p) to monic U*V = g (mod p^T): with s u + t v
    = 1 and e = (g - u v) / p^k, du = t e mod u and dv = s e mod v."""
    u_p, v_p = _fp(u, p), _fp(v, p)  # the same mod p at every step
    one, s, t = _xgcd(u_p, v_p, FP, p)
    if _deg(one) != 0:
        raise NotSquarefree("lift factors share a root mod p")
    pk = p
    for _ in range(T - 1):
        e = _fp(Poly.make(ZZ, [c // pk for c in (g - u * v).coeffs]), p)
        du = _divmod(_mul(t, e, FP, p), u_p, FP, p)[1]
        dv = _divmod(_mul(s, e, FP, p), v_p, FP, p)[1]
        u = _reduce_mod(u + Poly.make(ZZ, [c * pk for c in du[0]]), pk * p)
        v = _reduce_mod(v + Poly.make(ZZ, [c * pk for c in dv[0]]), pk * p)
        pk *= p
        if any(c % pk for c in (g - u * v).coeffs):
            raise OracleMismatch("Hensel step failed")
    return u, v


def _lift_list(g: Poly, seeds: list[Poly], p: int, T: int) -> list[Poly]:
    if len(seeds) == 1:
        return [_reduce_mod(g, p**T)]
    half = len(seeds) // 2
    u0 = Poly.one(ZZ)
    for f_ in seeds[:half]:
        u0 = _reduce_mod(u0 * f_, p)
    v0 = Poly.one(ZZ)
    for f_ in seeds[half:]:
        v0 = _reduce_mod(v0 * f_, p)
    u, v = _lift_pair(g, u0, v0, p, T)
    return _lift_list(u, seeds[:half], p, T) + _lift_list(v, seeds[half:], p, T)


def hensel_lift(
    g: Poly, factorization: list[tuple[list, int]], p: int, T: int
) -> LiftedFactorization:
    """Lift a squarefree factorization of g mod p to precision p^T.

    ``g`` is monic over Z; ``factorization`` is [(factor, multiplicity)] with
    factors over F_p as ``factor`` returns them (rows of one residue).
    Raises NotSquarefree when any multiplicity exceeds 1 or factors share a
    root mod p.
    """
    if not g.is_monic():
        raise ValueError("hensel_lift requires a monic input")
    if T < 1:
        raise ValueError("precision T must be >= 1")
    seeds = []
    for rows, mult in factorization:
        if mult != 1:
            raise NotSquarefree(f"seed factor with multiplicity {mult}")
        seeds.append(_trim([[row[0] % p for row in rows]]))
    prod = [[1]]
    for s in seeds:
        prod = _mul(prod, s, FP, p)
    if prod != _fp(g, p):
        raise NotSquarefree("seed factorization does not match g mod p")
    dprod = _trim([[j * x % p for j, x in enumerate(prod[0])][1:]])
    if _deg(_gcd(prod, dprod, FP, p)) != 0:  # the seeds are squarefree and coprime
        raise NotSquarefree("seed factors share a root mod p")
    seeds_z = [Poly.make(ZZ, s[0]) for s in seeds]
    lifted = _lift_list(_reduce_mod(g, p**T), seeds_z, p, T)
    # re-verify: product of lifts must equal g mod p^T
    check = Poly.one(ZZ)
    for f_ in lifted:
        check = _reduce_mod(check * f_, p**T)
    if check != _reduce_mod(g, p**T):
        raise OracleMismatch("Hensel lift verification failed")
    return LiftedFactorization(p=p, T=T, factors=tuple(lifted))
