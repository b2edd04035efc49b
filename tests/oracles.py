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
"""

from math import gcd, lcm

from pcfcert import factoring
from pcfcert.factoring import NotUnit, ShapeViolation, iterate
from pcfcert.numfield import NFElem, NotIntegral, is_unit
from pcfcert.orbits import DEFAULT_DEGREE_BUDGET, orbit_value
from pcfcert.polyring import Poly, Ring, ZZ, resultant_rows, ring_pow


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
