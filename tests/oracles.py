"""Exact reference implementations for differential tests.

``prs_resultant`` is the subresultant PRS one ring element at a time, over
any Ring adapter whose exact division works (Z, number fields, Z[c] through
``PolyCoeffRing``).  The package runs the same PRS on integer columns
(``polyring.resultant_rows``); these tests compare the two.
"""

from pcfcert.polyring import Poly, Ring, ZZ, ring_pow


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
        rem = rem.scale(d) - B.scale(rem.lc).shift(k)
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
