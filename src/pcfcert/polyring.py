"""Dense univariate polynomials over exact coefficient rings.

A polynomial is a tuple of coefficients in ascending degree with no trailing
zeros (the zero polynomial is the empty tuple).  The coefficient ring is an
explicit adapter object passed around with the polynomial, so the same code
serves Z, Q, finite fields, cyclotomic integers and number fields.

Products go through the ring's ``mul_coeffs``.  Its default is the generic
schoolbook/Karatsuba ``_mul`` on ring elements.  A ring whose elements are
integer rows (a number field Q[c]/(g) over a common denominator) multiplies
by Kronecker substitution instead: ``kronecker_mul`` packs every row into one
Python int, does one big-integer product and unpacks the signed slots from
the product's bytes.  ``mul_rows`` and ``pow_rows`` multiply and power row
polynomials over Z[c]/(g) or, given a modulus q, over (Z/q)[c]/(g): they
hold the rows as columns (entry j of every row), so one list operation
reduces a whole column modulo g and q.  An element of Z[c]/(g), Z[zeta]/(Phi_d)
or F_p[t]/(h) is a row of ints: ``mul_mod`` is their one product (schoolbook,
then ``reduce_monic``), and ``ring_pow`` the one power in any Ring adapter.

All operations are pure; polynomials are immutable after construction.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd
from typing import Any, NamedTuple, Sequence

KARATSUBA_THRESHOLD = 32


class NotDivisible(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


class BudgetExceeded(RuntimeError):
    """Raised when a computation would exceed the configured degree budget."""


def mobius(n: int) -> int:
    """Mobius function, by trial factorization (n is tiny here)."""
    if n < 1:
        raise ValueError("mobius undefined for n < 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if n > 1:
        result = -result
    return result


class Ring:
    """Coefficient ring adapter protocol.

    Subclasses supply zero/one and the arithmetic on raw coefficient values.
    ``div`` is exact division: in a field it is ordinary division, elsewhere
    it must raise NotDivisible when the quotient does not exist in the ring.
    """

    is_field = False
    zero: Any
    one: Any

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def mul_coeffs(self, a: tuple, b: tuple) -> list:
        """Coefficients of the product of two nonzero coefficient tuples."""
        return _mul(self, a, b)

    def div(self, a, b):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        raise NotImplementedError

    def coeff_repr(self, a) -> str:
        return str(a)


class IntegerRing(Ring):
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Z")
        q, r = divmod(a, b)
        if r:
            raise NotDivisible(f"{a} not divisible by {b} in Z")
        return q

    def from_int(self, n):
        return n


class RationalField(Ring):
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return Fraction(a) / b

    def from_int(self, n):
        return Fraction(n)


ZZ = IntegerRing()
QQ = RationalField()


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over ``ring``, coefficients ascending."""

    ring: Ring
    coeffs: tuple

    @staticmethod
    def make(ring: Ring, coeffs: Sequence) -> "Poly":
        cs = list(coeffs)
        while cs and ring.is_zero(cs[-1]):
            cs.pop()
        return Poly(ring, tuple(cs))

    @staticmethod
    def from_ints(ring: Ring, ints: Sequence[int]) -> "Poly":
        return Poly.make(ring, [ring.from_int(n) for n in ints])

    @staticmethod
    def zero(ring: Ring) -> "Poly":
        return Poly(ring, ())

    @staticmethod
    def one(ring: Ring) -> "Poly":
        return Poly(ring, (ring.one,))

    @staticmethod
    def x(ring: Ring) -> "Poly":
        return Poly(ring, (ring.zero, ring.one))

    @staticmethod
    def constant(ring: Ring, value) -> "Poly":
        return Poly.make(ring, [value])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.ring.zero

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lc == self.ring.one

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = R.add(out[i], c)
        return Poly.make(R, out)

    def __neg__(self) -> "Poly":
        R = self.ring
        return Poly(R, tuple(R.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(R, ())
        return Poly.make(R, R.mul_coeffs(a, b))

    def scale(self, k) -> "Poly":
        R = self.ring
        return Poly.make(R, [R.mul(k, c) for c in self.coeffs])

    def shift(self, n: int) -> "Poly":
        """Multiply by x^n."""
        if self.is_zero:
            return self
        return Poly(self.ring, (self.ring.zero,) * n + self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def compose(self, other: "Poly") -> "Poly":
        """self(other(x)), by Horner's rule."""
        result = Poly.zero(self.ring)
        for c in reversed(self.coeffs):
            result = result * other + Poly.constant(self.ring, c)
        return result

    def __call__(self, point):
        """Evaluate at a ring element."""
        R = self.ring
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, point), c)
        return acc

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder.

        Requires the divisor monic or the ring a field; over a non-field a
        non-monic divisor raises NotDivisible as soon as a leading-coefficient
        division fails.
        """
        R = self.ring
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return Poly.zero(R), self
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = divisor.degree
        dlc = divisor.lc
        q = [R.zero] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if R.is_zero(c):
                continue
            factor = c if dlc == R.one else R.div(c, dlc)
            q[i - dn] = factor
            for j, dc in enumerate(dcs):
                rem[i - dn + j] = R.sub(rem[i - dn + j], R.mul(factor, dc))
        return Poly.make(R, q), Poly.make(R, rem[:dn])

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient; raises NotDivisible on a nonzero remainder."""
        q, r = self.divmod(divisor)
        if not r.is_zero:
            raise NotDivisible(
                f"remainder of degree {r.degree} in exact polynomial division"
            )
        return q

    def monic(self) -> "Poly":
        R = self.ring
        if self.is_zero:
            return self
        if self.lc == R.one:
            return self
        inv_lc = R.div(R.one, self.lc)
        return self.scale(inv_lc)

    def derivative(self) -> "Poly":
        R = self.ring
        return Poly.make(
            R, [R.mul(R.from_int(i), c) for i, c in enumerate(self.coeffs)][1:]
        )

    def map_coeffs(self, ring: Ring, fn) -> "Poly":
        return Poly.make(ring, [fn(c) for c in self.coeffs])

    # -- display ------------------------------------------------------------

    def to_string(self, var: str = "x") -> str:
        """Human-readable form, descending degree."""
        if self.is_zero:
            return "0"
        R = self.ring
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if R.is_zero(c):
                continue
            cs = R.coeff_repr(c)
            neg = cs.startswith("-") and "(" not in cs
            mag = cs[1:] if neg else cs
            if i == 0:
                term = mag
            else:
                xpow = var if i == 1 else f"{var}^{i}"
                term = xpow if mag == "1" else f"{mag}*{xpow}"
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("- " if neg else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_string()})"


def _mul(R: Ring, a: tuple, b: tuple) -> list:
    if min(len(a), len(b)) < KARATSUBA_THRESHOLD:
        out = [R.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if R.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                out[i + j] = R.add(out[i + j], R.mul(ai, bj))
        return out
    # Karatsuba split at half the shorter length
    m = min(len(a), len(b)) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    z0 = _mul(R, a0, b0) if a0 and b0 else []
    z2 = _mul(R, a1, b1)
    asum = _add_lists(R, a0, a1)
    bsum = _add_lists(R, b0, b1)
    z1 = _mul(R, asum, bsum)
    z1 = _sub_lists(R, z1, z0)
    z1 = _sub_lists(R, z1, z2)
    out = [R.zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] = R.add(out[i], c)
    for i, c in enumerate(z1):
        out[i + m] = R.add(out[i + m], c)
    for i, c in enumerate(z2):
        out[i + 2 * m] = R.add(out[i + 2 * m], c)
    return out


def _add_lists(R: Ring, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = R.add(out[i], c)
    return out


def _sub_lists(R: Ring, a, b):
    out = list(a) + [R.zero] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = R.sub(out[i], c)
    return out


def reduce_monic(coeffs: list, g: Sequence[int], p: int = 0) -> list:
    """``coeffs`` modulo the monic integer polynomial ``g``, both ascending.

    Returns exactly deg g entries, reduced into [0, p) when ``p`` is given.
    ``coeffs`` is overwritten.
    """
    m = len(g) - 1
    tail = [(j, -c) for j, c in enumerate(g[:m]) if c]
    for k in range(len(coeffs) - 1, m - 1, -1):
        c = coeffs[k]
        if c:
            base = k - m
            for j, gj in tail:
                coeffs[base + j] += c * gj
    out = coeffs[:m]
    out += [0] * (m - len(out))
    return [c % p for c in out] if p else out


def mul_mod(a: Sequence[int], b: Sequence[int], g: Sequence[int], p: int = 0) -> list:
    """The product of two elements of Z[c]/(g), or of (Z/p)[c]/(g), given as
    integer rows in the basis 1, c, ...: deg g entries, in [0, p) for p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return reduce_monic(out, g, p)


# -- Kronecker substitution ----------------------------------------------------


def _bias(slots: int, nbytes: int) -> int:
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")


# slots of 1, 2, 4 or 8 bytes convert through an array of machine words on
# little-endian hosts; the byte-by-byte path serves every width
_WORD_FORMAT = (
    {array(t).itemsize: t for t in "bhiq"} if sys.byteorder == "little" else {}
)


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for |v| <= bound, rounded up to a machine word when
    that is at most 8 bytes."""
    nbytes = bound.bit_length() // 8 + 1
    return min((w for w in _WORD_FORMAT if w >= nbytes), default=nbytes)


def _max_abs(rows) -> int:
    return max(map(abs, chain.from_iterable(rows)), default=0)


def _columns(rows) -> tuple[list, int]:
    """Rows as (columns, row count), a short row padded with zeros."""
    return list(zip_longest(*rows, fillvalue=0)), len(rows)


def _pack(cols, count: int, stride: int, nbytes: int) -> int:
    """Rows in column form packed into one int, as in ``PackedRows``."""
    flat = [0] * (count * stride)
    for j, col in enumerate(cols):
        flat[j::stride] = col
    if word := _WORD_FORMAT.get(nbytes):
        buf = array(word, flat).tobytes()
    else:
        buf = b"".join([v.to_bytes(nbytes, "little", signed=True) for v in flat])
    bias = _bias(len(flat), nbytes)
    return (int.from_bytes(buf, "little") ^ bias) - bias


def _unpack(value: int, slots: int, nbytes: int) -> list[int]:
    """The signed slots of a packed int, in order."""
    bias = _bias(slots, nbytes)
    buf = ((value + bias) ^ bias).to_bytes(slots * nbytes, "little")
    if word := _WORD_FORMAT.get(nbytes):
        return array(word, buf).tolist()
    step = range(0, len(buf), nbytes)
    return [int.from_bytes(buf[i : i + nbytes], "little", signed=True) for i in step]


class PackedRows(NamedTuple):
    """Rows of signed integers packed into one int.

    A row is a list of integers (a polynomial in a second variable).  Row r
    fills slots r*stride .. r*stride + stride - 1, ``nbytes`` bytes each, so
    ``value`` = sum_i v_i 256^(nbytes*i).  Adding the bias (2^(8*nbytes-1) in
    every slot) makes every slot nonnegative, and one XOR with the bias then
    leaves each slot in two's complement; a slot holds |v| < 2^(8*nbytes-1).
    """

    value: int
    count: int
    stride: int
    nbytes: int

    @staticmethod
    def pack(rows: Sequence[Sequence[int]], stride: int) -> "PackedRows":
        """Pack rows of at most ``stride`` entries."""
        cols, count = _columns(rows)
        nbytes = _slot_bytes(_max_abs(cols))
        return PackedRows(_pack(cols, count, stride, nbytes), count, stride, nbytes)

    def rows(self) -> list[list[int]]:
        """Every row, ``stride`` entries each."""
        stride = self.stride
        flat = _unpack(self.value, self.count * stride, self.nbytes)
        return [flat[i : i + stride] for i in range(0, len(flat), stride)]


def _product(a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
    """Product of polynomials with integer-row coefficients, in column form:
    row j is sum_i a[i] * b[j - i], rows of length wa + wb - 1.  One big-int
    product, a square when ``a is b`` (CPython squares one object)."""
    (ca, na), (cb, nb) = a, b
    wa, wb = max(1, len(ca)), max(1, len(cb))
    stride = wa + wb - 1
    # a product slot sums at most min(len) * min(width) products of two
    # entries; the slots must also hold the entries themselves
    ma, mb = _max_abs(ca), _max_abs(cb)
    nbytes = _slot_bytes(max(ma * mb * min(na, nb) * min(wa, wb), ma, mb))
    va = _pack(ca, na, stride, nbytes)
    vb = va if b is a else _pack(cb, nb, stride, nbytes)
    flat = _unpack(va * vb, (na + nb - 1) * stride, nbytes)
    return [flat[j::stride] for j in range(stride)], na + nb - 1


def kronecker_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """``_product`` on rows; every row of the result has wa + wb - 1 entries."""
    ca = _columns(a)
    cols, _ = _product(ca, ca if b is a else _columns(b))
    return list(map(list, zip(*cols)))


def _mul_columns(a, b, g: Sequence[int], modulus: int) -> tuple[list, int]:
    """``_product`` reduced modulo the monic g (m = deg g), and then into
    [0, modulus), a whole column at a time: from the top column k down to
    m, column k - m + j gains -g_j times column k for each nonzero g_j."""
    cols, count = _product(a, b)
    m = len(g) - 1
    tail = [(j, -c) for j, c in enumerate(g[:m]) if c]
    for k in range(len(cols) - 1, m - 1, -1):
        top = cols[k]
        for j, gj in tail:
            i = k - m + j
            cols[i] = [x + gj * t for x, t in zip(cols[i], top)]
    cols = cols[:m] + [[0] * count] * (m - len(cols))
    if modulus:
        cols = [[x % modulus for x in col] for col in cols]
    return cols, count


def mul_rows(
    a: list[list[int]], b: list[list[int]], g: Sequence[int], modulus: int = 0
) -> list[list[int]]:
    """Product of polynomials over Z[c]/(g), given as integer rows.

    With a ``modulus`` q the ring is (Z/q)[c]/(g) and every entry of the
    result lies in [0, q).  Every row has deg g entries.
    """
    ca = _columns(a)
    cols, _ = _mul_columns(ca, ca if b is a else _columns(b), g, modulus)
    return list(map(list, zip(*cols)))


def pow_rows(
    a: list[list[int]], e: int, g: Sequence[int], modulus: int = 0
) -> list[list[int]]:
    """``a`` to the power e >= 1 over Z[c]/(g), or (Z/modulus)[c]/(g).

    Reducing after every squaring or multiply keeps each big-int product at
    rows of length 2m - 1 (m = deg g), where one e-th power would need
    e(m - 1) + 1.  Rows go to column form once, and back once.
    """
    base = result = _columns(a)
    for bit in bin(e)[3:]:
        result = _mul_columns(result, result, g, modulus)
        if bit == "1":
            result = _mul_columns(result, base, g, modulus)
    return a if result is base else list(map(list, zip(*result[0])))


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic gcd over a field, by Euclid with monic normalization."""
    R = p.ring
    if not R.is_field:
        raise TypeError("gcd_poly requires field coefficients")
    a, b = p, q
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) undefined")
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
        if not b.is_zero:
            b = b.monic()
    return a.monic()


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


def resultant(p: Poly, q: Poly):
    """Resultant of p and q as a ring element, via the subresultant PRS.

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


def ring_pow(R: Ring, a, n: int):
    """a^n for n >= 0 in the ring R, by square-and-multiply."""
    result = R.one
    base = a
    while n:
        if n & 1:
            result = R.mul(result, base)
        n >>= 1
        if n:
            base = R.mul(base, base)
    return result


def discriminant(p: Poly):
    """disc(p) = (-1)^(n(n-1)/2) * resultant(p, p') / lc(p)."""
    if p.degree < 1:
        raise ValueError("discriminant requires a nonconstant polynomial")
    R = p.ring
    n = p.degree
    res = resultant(p, p.derivative())
    res = R.div(res, p.lc)
    if (n * (n - 1) // 2) % 2 == 1:
        res = R.neg(res)
    return res


def content(p: Poly) -> int:
    """Integer content (gcd of coefficients) of a polynomial over Z."""
    g = 0
    for c in p.coeffs:
        g = gcd(g, c)
    return g


def primitive_part(p: Poly) -> Poly:
    """p divided by its content, sign-normalized to a positive lead, over Z."""
    if p.is_zero:
        return p
    c = content(p)
    if p.lc < 0:
        c = -c
    return Poly(ZZ, tuple(x // c for x in p.coeffs))


def gcd_int_poly(p: Poly, q: Poly) -> Poly:
    """Gcd over Z: gcd of contents times the primitive gcd via Q."""
    if p.is_zero:
        return q if q.is_zero else primitive_part(q).scale(abs(content(q)))
    if q.is_zero:
        return primitive_part(p).scale(abs(content(p)))
    # fall through: both nonzero
    cg = gcd(content(p), content(q))
    pq = p.map_coeffs(QQ, Fraction)
    qq = q.map_coeffs(QQ, Fraction)
    g = gcd_poly(pq, qq)
    # clear denominators, take primitive part
    den = 1
    for c in g.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    gi = Poly.make(ZZ, [int(c * den) for c in g.coeffs])
    return primitive_part(gi).scale(cg)
