"""Polynomial factorization over finite fields and Hensel lifting.

Finite fields are Ring adapters for the generic Poly type: PrimeField for
F_p (elements are ints in [0, p)) and ExtField for F_{p^f} (elements are
length-f tuples of ints, coordinates in the power basis of the class of t
modulo the defining polynomial).  ``fp_rem`` and ``fp_gcd`` work on F_p[x]
directly, on plain lists of residues, without the adapter.

Factorization is squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree splitting.  The equal-degree stage is seeded so
runs replay bit-for-bit; at p = 2 it uses the trace map instead of the
random-power method, which degenerates in characteristic 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .polyring import Poly, Ring, ZZ, gcd_poly, mul_mod, ring_pow, xgcd_poly

DEFAULT_SEED = 1


class NotSquarefree(ArithmeticError):
    """Seed factorization is not squarefree mod p; Hensel lifting is unsound."""


class PrimeField(Ring):
    """F_p with elements stored as ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError("modulus must be a prime >= 2")
        self.p = p
        self.degree = 1
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def from_int(self, n):
        return n % self.p

    def pth_root(self, a):
        return a

    def element_key(self, a):
        return (a,)

    def random_element(self, rng: random.Random):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class ExtField(Ring):
    """F_{p^f} = F_p[t]/(h) for h monic irreducible of degree f over F_p."""

    is_field = True

    def __init__(self, p: int, modpoly: Poly):
        base = PrimeField(p)
        if modpoly.ring != base:
            modpoly = modpoly.map_coeffs(base, base.from_int)
        if not modpoly.is_monic() or modpoly.degree < 1:
            raise ValueError("defining polynomial must be monic nonconstant")
        if modpoly.degree > 1 and not is_irreducible(modpoly):
            raise ValueError("defining polynomial is reducible over F_p")
        self.p = p
        self.base = base
        self.modpoly = modpoly
        self.degree = modpoly.degree
        self.order = p**self.degree
        self.zero = (0,) * self.degree
        self.one = tuple([1 % p] + [0] * (self.degree - 1))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return tuple(mul_mod(a, b, self.modpoly.coeffs, self.p))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def inv(self, a):
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of zero in F_q")
        apoly = Poly.make(self.base, a)
        g, s, _ = xgcd_poly(apoly, self.modpoly)
        if g.degree != 0:
            raise ZeroDivisionError("non-invertible element")
        inv = s.scale(self.base.div(1, g.constant_term))
        _, rem = inv.divmod(self.modpoly)
        out = list(rem.coeffs) + [0] * (self.degree - len(rem.coeffs))
        return tuple(out)

    def from_int(self, n):
        return tuple([n % self.p] + [0] * (self.degree - 1))

    def pth_root(self, a):
        # Frobenius is x -> x^p; its inverse is x -> x^(p^(f-1)).
        return ring_pow(self, a, self.p ** (self.degree - 1))

    def element_key(self, a):
        return tuple(a)

    def random_element(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.degree))

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modpoly.coeffs == self.modpoly.coeffs
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.modpoly.coeffs))


def fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b in F_p[x], on lists of residues (ascending) with no trailing
    zeros; so is the result."""
    a, db, inv = list(a), len(b) - 1, pow(b[-1], -1, p)
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top] * inv % p
        if c:
            a[top - db : top] = [(x - c * y) % p for x, y in zip(a[top - db : top], b)]
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return a


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[x] of lists as ``fp_rem`` takes them, as ``gcd_poly``
    over PrimeField(p) computes it; ValueError for gcd(0, 0)."""
    if not (a or b):
        raise ValueError("gcd(0, 0) undefined")
    while b:
        a, b = b, fp_rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _field_params(F) -> tuple[int, int, int]:
    """(p, f, q) for a PrimeField or ExtField adapter."""
    return F.p, F.degree, F.order


def poly_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.one(base.ring)
    base = base.divmod(mod)[1]
    while e:
        if e & 1:
            result = (result * base).divmod(mod)[1]
        e >>= 1
        if e:
            base = (base * base).divmod(mod)[1]
    return result


def is_irreducible(g: Poly) -> bool:
    """Rabin's test: x^(q^n) = x mod g, and x^(q^(n/l)) - x coprime to g."""
    F = g.ring
    _, _, q = _field_params(F)
    n = g.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    x = Poly.x(F)
    for ell in sorted({ell for ell in _prime_factors(n)}):
        xp = poly_pow_mod(x, q ** (n // ell), g)
        if gcd_poly(xp - x, g).degree != 0:
            return False
    xp = poly_pow_mod(x, q**n, g)
    return (xp - x).divmod(g)[1].is_zero


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        else:
            p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_decomposition(g: Poly) -> list[tuple[Poly, int]]:
    """Squarefree decomposition in characteristic p, handling p-th powers."""
    F = g.ring
    p, _, _ = _field_params(F)
    out: dict[int, Poly] = {}

    def accumulate(part: Poly, mult: int):
        if part.degree > 0:
            out[mult] = out.get(mult, Poly.one(F)) * part

    def pth_root(h: Poly) -> Poly:
        return Poly.make(F, [F.pth_root(h.coeff(i)) for i in range(0, h.degree + 1, p)])

    def sqf(h: Poly, scale: int):
        if h.degree <= 0:
            return
        dh = h.derivative()
        if dh.is_zero:
            sqf(pth_root(h), scale * p)
            return
        c = gcd_poly(h, dh)
        w = h.exact_div(c)
        m = 1
        while w.degree > 0:
            y = gcd_poly(w, c)
            accumulate(w.exact_div(y), m * scale)
            c = c.exact_div(y)
            w = y
            m += 1
        if c.degree > 0:
            sqf(pth_root(c), scale * p)

    sqf(g.monic(), 1)
    return sorted(
        ((poly.monic(), mult) for mult, poly in out.items()), key=lambda it: it[1]
    )


def distinct_degree_split(g: Poly) -> list[tuple[Poly, int]]:
    """Split squarefree monic g into products of irreducibles of equal degree."""
    F = g.ring
    _, _, q = _field_params(F)
    out = []
    x = Poly.x(F)
    xq = x
    d = 0
    rest = g
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        xq = poly_pow_mod(xq, q, rest)
        part = gcd_poly(xq - x, rest)
        if part.degree > 0:
            out.append((part, d))
            rest = rest.exact_div(part)
            xq = xq.divmod(rest)[1] if rest.degree > 0 else xq
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def equal_degree_split(g: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Split a squarefree monic product of degree-d irreducibles completely."""
    F = g.ring
    p, f, q = _field_params(F)
    if g.degree == d:
        return [g]
    while True:
        a = Poly.make(F, [F.random_element(rng) for _ in range(g.degree)])
        if a.degree < 1:
            continue
        h = gcd_poly(a, g) if a.degree > 0 else Poly.one(F)
        if 0 < h.degree < g.degree:
            split = h
        elif p == 2:
            # trace map over F_2: T(a) = a + a^2 + a^4 + ... (d*f terms)
            t = a.divmod(g)[1]
            acc = t
            for _ in range(d * f - 1):
                t = (t * t).divmod(g)[1]
                acc = (acc + t).divmod(g)[1]
            split = gcd_poly(acc, g) if not acc.is_zero else Poly.one(F)
        else:
            b = poly_pow_mod(a, (q**d - 1) // 2, g)
            split = gcd_poly(b - Poly.one(F), g)
        if 0 < split.degree < g.degree:
            return sorted(
                equal_degree_split(split, d, rng)
                + equal_degree_split(g.exact_div(split), d, rng),
                key=_poly_key,
            )


def _poly_key(poly: Poly):
    F = poly.ring
    return (poly.degree, tuple(F.element_key(c) for c in poly.coeffs))


def factor(g: Poly, seed: int = DEFAULT_SEED) -> list[tuple[Poly, int]]:
    """Complete factorization into monic irreducibles, canonically sorted.

    Returns [(irreducible, multiplicity), ...].  The equal-degree stage is
    randomized but the output ordering is canonical, so results are
    deterministic up to the seed only through running time.
    """
    F = g.ring
    if g.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    out = []
    for sqfree, mult in squarefree_decomposition(g):
        for part, d in distinct_degree_split(sqfree):
            for irr in equal_degree_split(part, d, rng):
                out.append((irr, mult))
    return sorted(out, key=lambda it: (_poly_key(it[0]), it[1]))


# -- Hensel lifting ---------------------------------------------------------


@dataclass(frozen=True)
class LiftedFactorization:
    """Monic factors of g modulo p^T, pairwise coprime mod p."""

    p: int
    T: int
    factors: tuple[Poly, ...]  # over ZZ, coefficients reduced into [0, p^T)

    @property
    def modulus(self) -> int:
        return self.p**self.T


def _reduce_mod(poly: Poly, m: int) -> Poly:
    return Poly.make(ZZ, [c % m for c in poly.coeffs])


def _to_fp(poly: Poly, F: PrimeField) -> Poly:
    return poly.map_coeffs(F, F.from_int)


def _lift_pair(g: Poly, u: Poly, v: Poly, p: int, T: int) -> tuple[Poly, Poly]:
    """Lift monic u*v = g (mod p) to monic U*V = g (mod p^T)."""
    F = PrimeField(p)
    one, s, t = xgcd_poly(_to_fp(u, F), _to_fp(v, F))
    if one.degree != 0:
        raise NotSquarefree("lift factors share a root mod p")
    pk = p
    for _ in range(T - 1):
        err = g - u * v
        e = Poly.make(ZZ, [c // pk for c in err.coeffs])
        e_fp = _to_fp(e, F)
        te = t * e_fp
        quo, du = te.divmod(_to_fp(u, F))
        dv = (s * e_fp + _to_fp(v, F) * quo).divmod(_to_fp(v, F))[1]
        u = _reduce_mod(u + Poly.make(ZZ, [c * pk for c in du.coeffs]), pk * p)
        v = _reduce_mod(v + Poly.make(ZZ, [c * pk for c in dv.coeffs]), pk * p)
        pk *= p
        if any(c % pk for c in (g - u * v).coeffs):
            raise AssertionError("Hensel step failed")
    return u, v


def _lift_list(g: Poly, seeds: list[Poly], p: int, T: int) -> list[Poly]:
    if len(seeds) == 1:
        return [_reduce_mod(g, p**T)]
    half = len(seeds) // 2
    F = PrimeField(p)
    u0 = Poly.one(ZZ)
    for f_ in seeds[:half]:
        u0 = _reduce_mod(u0 * f_, p)
    v0 = Poly.one(ZZ)
    for f_ in seeds[half:]:
        v0 = _reduce_mod(v0 * f_, p)
    u, v = _lift_pair(g, u0, v0, p, T)
    return _lift_list(u, seeds[:half], p, T) + _lift_list(v, seeds[half:], p, T)


def hensel_lift(
    g: Poly, factorization: list[tuple[Poly, int]], p: int, T: int
) -> LiftedFactorization:
    """Lift a squarefree factorization of g mod p to precision p^T.

    ``g`` is monic over Z; ``factorization`` is [(factor, multiplicity)] with
    factors over F_p (or over Z, reduced here).  Raises NotSquarefree when any
    multiplicity exceeds 1 or factors share a root mod p.
    """
    if not g.is_monic():
        raise ValueError("hensel_lift requires a monic input")
    if T < 1:
        raise ValueError("precision T must be >= 1")
    F = PrimeField(p)
    seeds = []
    for f_, mult in factorization:
        if mult != 1:
            raise NotSquarefree(f"seed factor with multiplicity {mult}")
        fp = f_ if isinstance(f_.ring, PrimeField) else _to_fp(f_, F)
        seeds.append(fp)
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            if gcd_poly(seeds[i], seeds[j]).degree != 0:
                raise NotSquarefree("seed factors share a root mod p")
    prod = Poly.one(F)
    for s in seeds:
        prod = prod * s
    if prod != _to_fp(g, F):
        raise NotSquarefree("seed factorization does not match g mod p")
    seeds_z = [Poly.make(ZZ, [c % p for c in s.coeffs]) for s in seeds]
    lifted = _lift_list(_reduce_mod(g, p**T), seeds_z, p, T)
    # re-verify: product of lifts must equal g mod p^T
    check = Poly.one(ZZ)
    for f_ in lifted:
        check = _reduce_mod(check * f_, p**T)
    if check != _reduce_mod(g, p**T):
        raise AssertionError("Hensel lift verification failed")
    return LiftedFactorization(p=p, T=T, factors=tuple(lifted))
