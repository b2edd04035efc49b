"""Exact reference implementations for differential tests.

``prs_resultant`` is the subresultant PRS one ring element at a time, over
any Ring adapter whose exact division works (Z, number fields, Z[c] through
``PolyCoeffRing``).  The package runs the same PRS on integer columns
(``polyring.resultant_rows``); these tests compare the two.

The package holds a polynomial over K as (rows, den); the rest of this file
keeps the Poly-over-K paths that form replaced, as oracles: the exact
division that defines F(k, i), the structural form read off ``iterate``, and
the resultant of two Polys over K.  ``structural_form_on_rows`` is the
structural form read off the exact rows of f^k, which the package replaced
by residues mod d.

The last section keeps finite fields as Ring adapters of Poly (``PrimeField``
and ``ExtField``, one Python call per coefficient product) with the
factorization that ran on them, ``factor_on_poly``: the oracle for
finitefield's kernels on integer rows.
"""

import random
from math import gcd, lcm

from pcfcert import factoring
from pcfcert.factoring import NotUnit, ShapeViolation, iterate
from pcfcert.numfield import NFElem, NotIntegral, is_unit
from pcfcert.orbits import DEFAULT_DEGREE_BUDGET, orbit_value
from pcfcert.polyring import Poly, Ring, ZZ, gcd_poly, mul_mod, resultant_rows, ring_pow


def _pseudo_rem(A: Poly, B: Poly) -> Poly:
    """prem(A, B) = lc(B)^(deg A - deg B + 1) * A  mod  B, division-free."""
    R = A.ring
    d = B.lc
    delta = A.degree - B.degree
    rem = A
    for _ in range(delta + 1):
        if rem.degree < B.degree:
            rem = rem.scale(d)
            continue
        k = rem.degree - B.degree
        rem = rem.scale(d) - Poly(R, (R.zero,) * k + B.scale(rem.lc).coeffs)
    return rem


def prs_resultant(p: Poly, q: Poly):
    """Resultant of p and q as a ring element, via the subresultant PRS
    (Brown and Traub), one ring element at a time.

    Exact over any integral domain whose adapter implements exact division
    (the intermediate divisions are exact by the subresultant theory).
    """
    R = p.ring
    if p.is_zero or q.is_zero:
        if p.degree <= 0 and q.degree <= 0:
            return R.one
        return R.zero
    if p.degree == 0 and q.degree == 0:
        return R.one
    sign = 1
    A, B = p, q
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            sign = -sign
        A, B = B, A
    if B.degree == 0:
        res = ring_pow(R, B.constant_term, A.degree)
        return R.neg(res) if sign < 0 else res
    g = R.one
    h = R.one
    while True:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            sign = -sign
        Rm = _pseudo_rem(A, B)
        A = B
        denom = R.mul(g, ring_pow(R, h, delta))
        B = Poly.make(R, [R.div(c, denom) for c in Rm.coeffs])
        g = A.lc
        if delta > 0:
            # h = g^delta / h^(delta-1), exact
            h = R.div(ring_pow(R, g, delta), ring_pow(R, h, delta - 1))
        if B.is_zero:
            return R.zero
        if B.degree == 0:
            break
    # h' = lc(B)^(deg A) / h^(deg A - 1)
    res = R.div(ring_pow(R, B.constant_term, A.degree), ring_pow(R, h, A.degree - 1))
    return R.neg(res) if sign < 0 else res


class PolyCoeffRing(Ring):
    """Polynomials over Z viewed as a coefficient ring (for Res_z)."""

    zero = Poly.zero(ZZ)
    one = Poly.one(ZZ)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a.exact_div(b)

    def is_zero(self, a):
        return a.is_zero

    def from_int(self, n):
        return Poly.from_ints(ZZ, [n])


Z_C = PolyCoeffRing()


def norm_form_oracle(cyc: Poly) -> Poly:
    """Res_z(Phi_d(z), cyc) by ``prs_resultant`` over Z[c], for cyc over
    CyclotomicIntegers(d) with d > 2: cyc as a polynomial in z."""
    B = Poly.make(Z_C, [Poly.make(ZZ, col) for col in zip(*cyc.coeffs)])
    return prs_resultant(Poly.make(Z_C, [Z_C.one] * cyc.ring.d), B)


# -- polynomials over K as Polys ------------------------------------------------


def as_rows(poly: Poly) -> tuple[list[list[int]], int]:
    """A Poly over K as (rows, den): the numerators over the least common
    denominator, rows of deg g entries."""
    K = poly.ring
    den = lcm(*(c.den for c in poly.coeffs))
    return [
        [x * (den // c.den) for x in c.num] + [0] * (K.degree - len(c.num))
        for c in poly.coeffs
    ], den


def expand(product) -> Poly:
    """The factor product as a Poly over K."""
    return product.field.poly_from_rows(*product.expanded_rows())


def f_factor_by_division(K, d: int, n: int, k: int, i: int) -> Poly:
    """F(k, i) by its definition, (f^{k+1} - a_{i+1}) / (f^k - a_i), orbit
    indices cycling mod n."""
    numer = iterate(K, d, k + 1) - Poly.constant(K, orbit_value(K, d, (i + 1) % n))
    denom = iterate(K, d, k) - Poly.constant(K, orbit_value(K, d, i % n))
    return numer.exact_div(denom)


def structural_form_on_poly(K, d: int, k: int, typ) -> tuple:
    """The structural form read off the Poly ``iterate(K, d, k)``:
    (middle as a Poly, constant, constant index, unit residual), or the
    exception of a failed check."""
    f_k = iterate(K, d, k)
    constant = f_k.constant_term
    middle = Poly.make(K, [K.zero] + list(f_k.coeffs[1:-1]))
    for idx in range(min(d, middle.degree + 1)):
        if not middle.coeff(idx).is_zero:
            raise ShapeViolation(f"middle part has a monomial of degree {idx} < d")
    for cf in middle.coeffs:
        if not cf.is_zero and not (cf.is_integral and all(c % d == 0 for c in cf.num)):
            raise ShapeViolation("middle coefficient not divisible by d")
    n = typ.n
    if typ.kind == "periodic":
        r = k % n
        i = r if r else n
        expected = K.zero if r == 0 else orbit_value(K, d, i)
        if constant != expected:
            raise ShapeViolation(f"constant of f^{k} is not a_{i} for the periodic parameter")
        return middle, constant, i, None
    i = gcd(k, n)
    a_k = orbit_value(K, d, k)
    if constant != a_k:
        raise ShapeViolation(f"constant of f^{k} is not a_{k}")
    u = a_k / orbit_value(K, d, i)
    if not u.is_integral:
        raise NotIntegral(f"a_{k}/a_{i} is not an algebraic integer")
    if not is_unit(u):
        raise NotUnit(f"a_{k}/a_{i} is not an algebraic unit")
    return middle, constant, i, u


def structural_form_on_rows(K, d: int, k: int, typ, budget: int = DEFAULT_DEGREE_BUDGET) -> tuple:
    """The structural form read off the exact rows of f^k
    (``factoring.iterate_rows``): (middle rows, row 0 zeroed; constant;
    constant index; unit residual), or the exception of a failed check."""
    if k < 1:
        raise ValueError("structural_form requires k >= 1")
    rows = factoring.iterate_rows(K, d, k, budget)
    constant = NFElem(K, rows[0])
    middle = [[0] * K.degree, *rows[1:-1]]
    for idx in range(min(d, len(middle))):
        if any(middle[idx]):
            raise ShapeViolation(f"middle part has a monomial of degree {idx} < d")
    if any(x % d for row in middle for x in row):
        raise ShapeViolation("middle coefficient not divisible by d")
    n = typ.n
    if typ.kind == "periodic":
        r = k % n
        i = r if r else n
        if constant != orbit_value(K, d, r):
            raise ShapeViolation(f"constant of f^{k} is not a_{i} for the periodic parameter")
        return middle, constant, i, None
    i = gcd(k, n)
    a_k = orbit_value(K, d, k)
    if constant != a_k:
        raise ShapeViolation(f"constant of f^{k} is not a_{k}")
    u = a_k / orbit_value(K, d, i)
    if not u.is_integral:
        raise NotIntegral(f"a_{k}/a_{i} is not an algebraic integer")
    if not is_unit(u):
        raise NotUnit(f"a_{k}/a_{i} is not an algebraic unit")
    return middle, constant, i, u


def poly_resultant(p: Poly, q: Poly) -> NFElem:
    """Res(p, q) of two Polys over K: denominators cleared, then
    ``resultant_rows``, Res(A/a, B/b) = Res(A, B) / (a^deg B * b^deg A)."""
    K = p.ring
    rows_p, a = as_rows(p)
    rows_q, b = as_rows(q)
    res = resultant_rows(rows_p, rows_q, K.g.coeffs)
    return NFElem(K, res, a ** max(q.degree, 0) * b ** max(p.degree, 0))


def poly_discriminant(p: Poly) -> NFElem:
    """disc(p) = (-1)^(n(n-1)/2) * Res(p, p') / lc(p), for p over K."""
    n = p.degree
    res = poly_resultant(p, p.derivative()) / p.lc
    return -res if (n * (n - 1) // 2) % 2 else res


def relative_norm_on_poly(h: Poly, P: Poly) -> NFElem:
    """Norm of P(beta) from K(beta) to K, beta a root of the monic h."""
    if not h.is_monic():
        raise ValueError("relative_norm requires a monic minimal polynomial")
    if P.degree < 1:
        return P.constant_term ** h.degree if h.degree else h.ring.one
    return poly_resultant(h, P)


# -- finite fields as Ring adapters ---------------------------------------------


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
    """F_{p^f} = F_p[t]/(h) for h monic irreducible of degree f over F_p;
    elements are length-f tuples of ints."""

    is_field = True

    def __init__(self, p: int, modpoly: Poly):
        base = PrimeField(p)
        if modpoly.ring != base:
            modpoly = modpoly.map_coeffs(base, base.from_int)
        if not modpoly.is_monic() or modpoly.degree < 1:
            raise ValueError("defining polynomial must be monic nonconstant")
        if modpoly.degree > 1 and not is_irreducible_on_poly(modpoly):
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
        g, s, _ = xgcd_poly(Poly.make(self.base, a), self.modpoly)
        if g.degree != 0:
            raise ZeroDivisionError("non-invertible element")
        _, rem = s.scale(self.base.div(1, g.constant_term)).divmod(self.modpoly)
        return tuple(list(rem.coeffs) + [0] * (self.degree - len(rem.coeffs)))

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


def xgcd_poly(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with g = s*p + t*q, g the monic gcd, over a field."""
    R = p.ring
    a, b = p, q
    sa, sb = Poly.one(R), Poly.zero(R)
    ta, tb = Poly.zero(R), Poly.one(R)
    while not b.is_zero:
        quo, rem = a.divmod(b)
        a, b = b, rem
        sa, sb = sb, sa - quo * sb
        ta, tb = tb, ta - quo * tb
    if a.is_zero:
        raise ValueError("xgcd(0, 0) undefined")
    inv_lc = R.div(R.one, a.lc)
    return a.scale(inv_lc), sa.scale(inv_lc), ta.scale(inv_lc)


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


def _prime_factors(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def is_irreducible_on_poly(g: Poly) -> bool:
    """Rabin's test: x^(q^n) = x mod g, and x^(q^(n/l)) - x coprime to g."""
    F = g.ring
    n = g.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    x = Poly.x(F)
    for ell in _prime_factors(n):
        xp = poly_pow_mod(x, F.order ** (n // ell), g)
        if gcd_poly(xp - x, g).degree != 0:
            return False
    xp = poly_pow_mod(x, F.order**n, g)
    return (xp - x).divmod(g)[1].is_zero


def squarefree_decomposition_on_poly(g: Poly) -> list[tuple[Poly, int]]:
    """Squarefree decomposition in characteristic p, handling p-th powers."""
    F = g.ring
    p = F.p
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
    return sorted(((poly.monic(), mult) for mult, poly in out.items()), key=lambda it: it[1])


def _distinct_degree_split(g: Poly) -> list[tuple[Poly, int]]:
    F = g.ring
    out = []
    x = Poly.x(F)
    xq = x
    d = 0
    rest = g
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        xq = poly_pow_mod(xq, F.order, rest)
        part = gcd_poly(xq - x, rest)
        if part.degree > 0:
            out.append((part, d))
            rest = rest.exact_div(part)
            xq = xq.divmod(rest)[1] if rest.degree > 0 else xq
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _equal_degree_split(g: Poly, d: int, rng: random.Random) -> list[Poly]:
    F = g.ring
    if g.degree == d:
        return [g]
    while True:
        a = Poly.make(F, [F.random_element(rng) for _ in range(g.degree)])
        if a.degree < 1:
            continue
        h = gcd_poly(a, g)
        if 0 < h.degree < g.degree:
            split = h
        elif F.p == 2:
            # trace map over F_2: T(a) = a + a^2 + a^4 + ... (d*f terms)
            t = a.divmod(g)[1]
            acc = t
            for _ in range(d * F.degree - 1):
                t = (t * t).divmod(g)[1]
                acc = (acc + t).divmod(g)[1]
            split = gcd_poly(acc, g) if not acc.is_zero else Poly.one(F)
        else:
            b = poly_pow_mod(a, (F.order**d - 1) // 2, g)
            split = gcd_poly(b - Poly.one(F), g)
        if 0 < split.degree < g.degree:
            return _equal_degree_split(split, d, rng) + _equal_degree_split(
                g.exact_div(split), d, rng
            )


def poly_key(poly: Poly):
    """(degree, coefficient keys): the order ``factor`` sorts by."""
    return (poly.degree, tuple(poly.ring.element_key(c) for c in poly.coeffs))


def factor_on_poly(g: Poly, seed: int = 1) -> list[tuple[Poly, int]]:
    """Complete factorization into monic irreducibles, canonically sorted."""
    if g.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    out = []
    for sqfree, mult in squarefree_decomposition_on_poly(g):
        for part, d in _distinct_degree_split(sqfree):
            for irr in _equal_degree_split(part, d, rng):
                out.append((irr, mult))
    return sorted(out, key=lambda it: (poly_key(it[0]), it[1]))


def field_of(G, p: int):
    """The adapter of F_p[t]/(G): PrimeField for G of degree 1."""
    F = PrimeField(p)
    return F if len(G) == 2 else ExtField(p, Poly.from_ints(F, list(G)))


def to_poly(rows, F) -> Poly:
    """Rows over F_q as a Poly over its adapter."""
    return Poly.make(F, [row[0] if F.degree == 1 else tuple(row) for row in rows])


def to_rows(poly: Poly) -> list[list[int]]:
    """A Poly over a finite-field adapter as rows."""
    F = poly.ring
    return [[c] if F.degree == 1 else list(c) for c in poly.coeffs]
