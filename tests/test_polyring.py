"""Exact polynomial arithmetic, resultants, discriminants."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import prs_resultant, xgcd_poly
from pcfcert.polyring import (
    NotDivisible,
    PackedRows,
    Poly,
    QQ,
    ZZ,
    _columns,
    _div_columns,
    _product,
    content,
    discriminant,
    gcd_int_poly,
    gcd_poly,
    inverse_mod,
    mobius,
    mul_mod,
    mul_rows,
    pow_rows,
    primitive_part,
    reduce_monic,
    resultant,
)

ints = st.integers(min_value=-50, max_value=50)
int_polys = st.lists(ints, min_size=0, max_size=8).map(lambda c: Poly.make(ZZ, c))


def qq_poly(coeffs):
    return Poly.make(QQ, [Fraction(c) for c in coeffs])


class TestBasicArithmetic:
    def test_make_strips_leading_zeros(self):
        p = Poly.make(ZZ, [1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs == (1, 2)

    def test_zero_degree_convention(self):
        assert Poly.zero(ZZ).degree == -1
        assert Poly.zero(ZZ).is_zero

    def test_eval(self):
        p = Poly.make(ZZ, [1, 2, 3])  # 3x^2 + 2x + 1
        assert p(2) == 17
        assert p(0) == 1

    def test_compose(self):
        p = Poly.make(ZZ, [0, 0, 1])  # x^2
        q = Poly.make(ZZ, [1, 1])  # x + 1
        assert p.compose(q) == Poly.make(ZZ, [1, 2, 1])

    def test_pow(self):
        x = Poly.x(ZZ)
        assert (x + Poly.one(ZZ)) ** 3 == Poly.make(ZZ, [1, 3, 3, 1])

    def test_to_string_descending(self):
        p = Poly.make(ZZ, [1, 1, 2, 1])
        assert p.to_string("c") == "c^3 + 2*c^2 + c + 1"

    @given(int_polys, int_polys, int_polys)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(int_polys, int_polys)
    @settings(max_examples=60)
    def test_karatsuba_agrees_with_schoolbook(self, a, b):
        # force degrees across the Karatsuba threshold
        a_big = a * Poly.x(ZZ) ** 40 + b
        prod = a_big * b
        if b.is_zero:
            assert prod.is_zero
        else:
            assert prod.degree == a_big.degree + b.degree or a_big.is_zero
        # evaluation homomorphism as the independent check
        for t in (-2, 1, 3):
            assert prod(t) == a_big(t) * b(t)


class TestDivision:
    def test_divmod_monic(self):
        f = Poly.make(ZZ, [2, 0, 1])  # x^2 + 2
        g = Poly.make(ZZ, [1, 1])  # x + 1
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_exact_div_recovers_factor(self):
        a = Poly.make(ZZ, [1, 2, 1])
        b = Poly.make(ZZ, [3, 0, 0, 5])
        assert (a * b).exact_div(a) == b

    def test_exact_div_rejects_nondivisor(self):
        with pytest.raises(NotDivisible):
            Poly.make(ZZ, [1, 0, 1]).exact_div(Poly.make(ZZ, [1, 1]))

    @given(int_polys, int_polys)
    @settings(max_examples=60)
    def test_exact_div_roundtrip(self, a, b):
        if a.is_zero:
            return
        assert (a * b).exact_div(a) == b


# integer rows: signed entries from one bit to a few hundred bits, empty rows
# (zero coefficients) included
big_ints = st.integers(min_value=-(2**300), max_value=2**300) | ints
rows_st = st.lists(st.lists(big_ints, max_size=5), min_size=1, max_size=7).filter(
    lambda rows: any(rows)
)


def schoolbook_rows(a, b):
    wa, wb = max(map(len, a)), max(map(len, b))
    out = [[0] * (wa + wb - 1) for _ in range(len(a) + len(b) - 1)]
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            for k, x in enumerate(ra):
                for l, y in enumerate(rb):
                    out[i + j][k + l] += x * y
    return out


class TestKronecker:
    @given(rows_st, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_pack_roundtrip(self, rows, extra):
        stride = max(map(len, rows)) + extra - 1
        packed = PackedRows.pack(rows, stride)
        assert packed.rows() == [row + [0] * (stride - len(row)) for row in rows]

    @pytest.mark.parametrize(
        "bound", [0, 127, 128, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**100]
    )
    def test_pack_roundtrip_at_slot_widths(self, bound):
        # word-sized slots go through an array, the others byte by byte
        packed = PackedRows.pack([[bound, -bound, 0], [-bound, 1], []], 3)
        assert packed.rows() == [[bound, -bound, 0], [-bound, 1, 0], [0, 0, 0]]

    @given(rows_st, rows_st)
    @settings(max_examples=80)
    def test_product_matches_schoolbook(self, a, b):
        cols, count = _product(_columns(a), _columns(b))
        assert count == len(a) + len(b) - 1
        assert list(map(list, zip(*cols))) == schoolbook_rows(a, b)

    @given(rows_st)
    @settings(max_examples=40)
    def test_square_matches_schoolbook(self, a):
        ca = _columns(a)
        cols, _ = _product(ca, ca)  # one big-int square
        assert list(map(list, zip(*cols))) == schoolbook_rows(a, a)


class TestReduceMonic:
    @given(
        st.lists(big_ints, max_size=12),
        st.lists(ints, min_size=1, max_size=5),
        st.sampled_from([0, 2, 3, 7]),
    )
    @settings(max_examples=80)
    def test_matches_divmod(self, coeffs, tail, p):
        g = Poly.make(ZZ, tail + [1])
        expected = list(Poly.make(ZZ, coeffs).divmod(g)[1].coeffs)
        expected += [0] * (g.degree - len(expected))
        if p:
            expected = [c % p for c in expected]
        assert reduce_monic(list(coeffs), g.coeffs, p) == expected


def per_row_mul(a, b, g, q):
    """The per-row product: each row of the schoolbook product reduced on
    its own."""
    return [reduce_monic(row, g, q) for row in schoolbook_rows(a, b)]


# monic g of degree 1..5, with negative and zero tail coefficients
monic_st = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(lambda t: t + [1])
modulus_st = st.sampled_from([0, 8, 27])
BIG = [[2**100, -(2**90), 3], [-(2**80)]]  # slots wider than 8 bytes


class TestMulRows:
    """Whole-column reduction against the per-row oracle."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(rows_st, rows_st, monic_st, modulus_st, st.booleans())
    @example(BIG, [[1, -1], [2**70]], [-3, 0, 1], 27, False)
    @example(BIG, BIG, [5, 0, -1, 0, 0, 1], 8, True)
    @example([[7]], [[-2, 0, 1]], [0, 0, 1], 0, False)
    def test_mul_rows_matches_per_row(self, a, b, g, q, square):
        if square:
            b = a
        assert mul_rows(a, b, g, q) == per_row_mul(a, b, g, q)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(rows_st, st.integers(1, 5), monic_st, modulus_st)
    @example(BIG, 3, [2, -1, 0, 1], 0)
    @example(BIG, 2, [-1, 1], 27)
    def test_pow_rows_matches_per_row(self, a, e, g, q):
        expected = a
        for _ in range(e - 1):
            expected = per_row_mul(expected, a, g, q)
        assert pow_rows(a, e, g, q) == expected


class TestMulMod:
    """The element product against reduce_monic of the product over Z."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(big_ints, max_size=8),
        st.lists(big_ints, max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(lambda t: t + [1]),
        st.sampled_from([0, 2, 3, 27]),
    )
    @example([], [], [5, 1], 0)
    @example([3, 0, -2, 0], [-1, 4], [-2, 0, 0, 1], 27)
    @example([2**100, -1], [-(2**90), 0, 7], [0, -1, 0, 0, 0, 0, 1], 2)
    def test_matches_poly_product(self, a, b, g, p):
        product = Poly.make(ZZ, a) * Poly.make(ZZ, b)
        assert mul_mod(a, b, g, p) == reduce_monic(list(product.coeffs), g, p)


def xgcd_inverse(a, g):
    """a^-1 modulo g over Q by the extended Euclidean algorithm (the element
    inverse before ``inverse_mod``), or None when gcd(a, g) is not 1."""
    one, s, _ = xgcd_poly(qq_poly(a), qq_poly(g))
    if one.degree != 0:
        return None
    return s.scale(1 / one.constant_term)


class TestInverseMod:
    """Bareiss adjugates against the inverse over Q by xgcd_poly."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(big_ints, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(lambda t: t + [1]),
    )
    @example([], [3, 1])  # zero
    @example([5], [7, 1])  # degree 1
    @example([-1, 1], [-1, 0, 1])  # c - 1, a zero divisor modulo c^2 - 1
    @example([0, 0, 2**200], [-2, 0, 0, 1])  # c^2 = 2^(1/3)^2 times a unit
    def test_matches_xgcd(self, a, g):
        a = a[: len(g) - 1]
        adj, n = inverse_mod(a, g)
        expected = xgcd_inverse(a, g)
        if expected is None:
            assert n == 0
            return
        assert n > 0 and gcd(n, *adj) == 1 and len(adj) == len(g) - 1
        assert mul_mod(a, adj, g) == [n] + [0] * (len(g) - 2)
        assert qq_poly([Fraction(x, n) for x in adj]) == expected


class TestExactDivision:
    def test_forged_inexact_division(self):
        g = (1, 0, 1)  # Z[i]
        assert _div_columns([[2, 4], [6, 0]], [2], g) == [[1, 2], [3, 0]]
        # (1 + i) / 2 is not in Z[i], and neither is x / (1 + i)
        with pytest.raises(NotDivisible):
            _div_columns([[1], [1]], [2], g)
        with pytest.raises(NotDivisible):
            _div_columns([[0, 1], [0, 0]], [1, 1], g)
        assert _div_columns([[0, 2], [0, 0]], [1, 1], g) == [[0, 1], [0, -1]]

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            _div_columns([[1]], [], (3, 1))
        with pytest.raises(ZeroDivisionError):
            _div_columns([[1], [0]], [-1, 1], (-1, 0, 1))


class TestGcd:
    def test_qq_gcd(self):
        a = qq_poly([1, 2, 1])  # (x+1)^2
        b = qq_poly([1, 1])
        g = gcd_poly(a, b)
        assert g == qq_poly([1, 1])

    def test_xgcd_bezout(self):
        a = qq_poly([2, 0, 1])
        b = qq_poly([1, 1])
        g, s, t = xgcd_poly(a, b)
        assert s * a + t * b == g

    def test_int_gcd_primitive(self):
        a = Poly.make(ZZ, [2, 4, 2])  # 2(x+1)^2
        b = Poly.make(ZZ, [3, 3])  # 3(x+1)
        assert gcd_int_poly(a, b) == Poly.make(ZZ, [1, 1])

    def test_content_primitive_part(self):
        p = Poly.make(ZZ, [6, -9, 12])
        assert content(p) == 3
        assert primitive_part(p).scale(3) == p


class TestResultant:
    def test_resultant_linear_pair(self):
        # res(x - a, x - b) = a - b
        a = Poly.make(ZZ, [-3, 1])
        b = Poly.make(ZZ, [-5, 1])
        assert resultant(a, b) == 3 - 5

    def test_resultant_shared_root_is_zero(self):
        a = Poly.make(ZZ, [-1, 0, 1])  # (x-1)(x+1)
        b = Poly.make(ZZ, [-1, 1])
        assert resultant(a, b) == 0

    def test_resultant_of_quadratics(self):
        # res(x^2 - 2, x^2 - 3) = (2 - 3)^2 = 1
        a = Poly.make(ZZ, [-2, 0, 1])
        b = Poly.make(ZZ, [-3, 0, 1])
        assert resultant(a, b) == 1

    def test_resultant_multiplicative(self):
        f = Poly.make(ZZ, [1, 3, 1])
        g = Poly.make(ZZ, [-2, 1, 2])
        h = Poly.make(ZZ, [4, 1])
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_discriminant_quadratic(self):
        # disc(ax^2 + bx + c) = b^2 - 4ac
        for a, b, c in [(1, 3, 1), (2, 5, -1), (1, 0, -7)]:
            p = Poly.make(ZZ, [c, b, a])
            assert discriminant(p) == b * b - 4 * a * c

    def test_discriminant_cubic_forces_27(self):
        # disc(x^3 + a) = -27 a^2: pins the convention used everywhere else
        for a in (1, -1, 2, 5):
            p = Poly.make(ZZ, [a, 0, 0, 1])
            assert discriminant(p) == -27 * a * a

    def test_discriminant_depressed_cubic(self):
        # disc(x^3 + px + q) = -4p^3 - 27q^2
        p_, q_ = 2, -3
        poly = Poly.make(ZZ, [q_, p_, 0, 1])
        assert discriminant(poly) == -4 * p_**3 - 27 * q_**2


def exact_degree(n):
    """Integer polynomials of degree exactly n, with big coefficients."""
    return st.lists(big_ints, min_size=n + 1, max_size=n + 1).filter(
        lambda cs: cs[-1] != 0
    ).map(lambda cs: Poly.make(ZZ, cs))


odd_degree_polys = st.sampled_from([1, 3, 5]).flatmap(exact_degree)
constants = st.integers(-9, 9).map(lambda c: Poly.make(ZZ, [c]))  # zero too


def assert_int_resultants_match(A, B):
    """The column PRS over Z = Z[c]/(c) against the element PRS, both orders."""
    for P, Q in ((A, B), (B, A)):
        assert resultant(P, Q) == prs_resultant(P, Q)


class TestIntegerResultant:
    """ZZ resultants and discriminants (``resultant_rows`` on one-entry rows)
    against ``prs_resultant``."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(int_polys, int_polys)
    def test_random_operands(self, a, b):
        assert_int_resultants_match(a, b)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(odd_degree_polys, odd_degree_polys)
    def test_odd_degrees_flip_the_sign(self, a, b):
        assert resultant(a, b) == -resultant(b, a)
        assert_int_resultants_match(a, b)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(constants, int_polys | constants)
    @example(Poly.zero(ZZ), Poly.zero(ZZ))
    @example(Poly.zero(ZZ), Poly.make(ZZ, [5]))
    @example(Poly.zero(ZZ), Poly.make(ZZ, [1, 1]))
    @example(Poly.make(ZZ, [-3]), Poly.make(ZZ, [1, 0, 0, 2]))
    def test_zero_and_degree_zero_operands(self, a, b):
        assert_int_resultants_match(a, b)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        st.integers(1, 3).flatmap(exact_degree),
        st.integers(0, 3).flatmap(exact_degree),
        st.integers(0, 3).flatmap(exact_degree),
    )
    def test_shared_factor_is_zero(self, f, g, h):
        assert resultant(f * g, f * h) == 0
        assert_int_resultants_match(f * g, f * h)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 9).flatmap(exact_degree))
    @example(Poly.make(ZZ, [5, 0, 0, 1]))
    def test_discriminant(self, p):
        n = p.degree
        expected = prs_resultant(p, p.derivative()) // p.lc
        assert discriminant(p) == (-1) ** (n * (n - 1) // 2) * expected

    def test_ring_without_hook(self):
        with pytest.raises(TypeError, match="RationalField"):
            resultant(qq_poly([1, 1]), qq_poly([2, 1]))


class TestMobius:
    def test_small_values(self):
        assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_divisor_sum_vanishes(self):
        for n in range(2, 40):
            assert sum(mobius(k) for k in range(1, n + 1) if n % k == 0) == 0
