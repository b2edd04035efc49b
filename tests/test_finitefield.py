"""Finite-field factorization and Hensel lifting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfcert.finitefield import (
    DEFAULT_SEED,
    ExtField,
    NotSquarefree,
    PrimeField,
    factor,
    fp_gcd,
    fp_rem,
    hensel_lift,
    is_irreducible,
    squarefree_decomposition,
)
from pcfcert.polyring import Poly, ZZ, gcd_poly


def fp(p, coeffs):
    return Poly.from_ints(PrimeField(p), coeffs)


class TestPrimeField:
    def test_inverse(self):
        F = PrimeField(7)
        for a in range(1, 7):
            assert F.mul(a, F.div(F.one, a)) == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(6)


class TestIrreducibility:
    def test_known_irreducible_mod_2(self):
        assert is_irreducible(fp(2, [1, 1, 1]))  # x^2 + x + 1
        assert is_irreducible(fp(2, [1, 1, 0, 1]))  # x^3 + x + 1

    def test_known_reducible(self):
        assert not is_irreducible(fp(2, [1, 0, 1]))  # (x+1)^2
        assert not is_irreducible(fp(5, [4, 0, 1]))  # (x-2)(x+2)

    def test_frobenius_count_matches(self):
        # number of monic irreducible quadratics over F_3 is (9 - 3)/2 = 3
        count = 0
        for b in range(3):
            for c in range(3):
                if is_irreducible(fp(3, [c, b, 1])):
                    count += 1
        assert count == 3


class TestSquarefree:
    def test_separates_multiplicities(self):
        f = fp(5, [1, 1]) ** 3 * fp(5, [2, 1]) ** 2
        parts = squarefree_decomposition(f)
        assert dict((m, g.coeffs) for g, m in parts) == {
            3: (1, 1),
            2: (2, 1),
        }

    def test_char_p_power(self):
        # x^2 + 1 = (x + 1)^2 over F_2; derivative vanishes identically
        parts = squarefree_decomposition(fp(2, [1, 0, 1]))
        assert parts == [(fp(2, [1, 1]), 2)]


class TestFactor:
    def test_product_of_factors(self):
        f = fp(7, [3, 0, 5, 1, 1])
        fac = factor(f)
        prod = Poly.one(f.ring)
        for g, m in fac:
            prod = prod * g**m
            assert is_irreducible(g)
        assert prod == f.monic()

    def test_deterministic(self):
        f = fp(13, [1, 4, 0, 0, 2, 1])
        assert factor(f, seed=DEFAULT_SEED) == factor(f, seed=DEFAULT_SEED)

    def test_p2_equal_degree_split(self):
        # product of the two irreducible quadratics... over F_2 there is one,
        # so use two distinct cubics: (x^3+x+1)(x^3+x^2+1)
        f = fp(2, [1, 1, 0, 1]) * fp(2, [1, 0, 1, 1])
        fac = factor(f)
        assert sorted(g.degree for g, _ in fac) == [3, 3]
        assert all(m == 1 for _, m in fac)

    def test_ext_field_factor(self):
        F9 = ExtField(3, fp(3, [1, 0, 1]))  # F_3[t]/(t^2+1)
        x = Poly.x(F9)
        t = Poly.constant(F9, (0, 1))
        f = (x - t) * (x + t) * (x - Poly.one(F9))
        fac = factor(f)
        assert sorted(g.degree for g, _ in fac) == [1, 1, 1]
        prod = Poly.one(F9)
        for g, m in fac:
            prod = prod * g**m
        assert prod == f

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=7))
    @settings(max_examples=40)
    def test_factor_recombines(self, coeffs):
        f = Poly.from_ints(PrimeField(5), coeffs + [1])
        fac = factor(f)
        prod = Poly.one(f.ring)
        for g, m in fac:
            prod = prod * g**m
        assert prod == f


class TestFpKernel:
    """The list kernels against gcd_poly and divmod over PrimeField."""

    @given(
        p=st.sampled_from([2, 3, 5, 13]),
        a=st.lists(st.integers(-30, 30), max_size=8),
        b=st.lists(st.integers(-30, 30), max_size=8),
        common=st.lists(st.integers(-30, 30), max_size=4),
        equal=st.booleans(),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_poly_path(self, p, a, b, common, equal):
        c = fp(p, common)
        A = fp(p, a) * (c if not c.is_zero else Poly.one(c.ring))
        B = A if equal else fp(p, b) * (c if not c.is_zero else Poly.one(c.ring))

        a, b = list(A.coeffs), list(B.coeffs)
        if A.is_zero and B.is_zero:
            with pytest.raises(ValueError):
                gcd_poly(A, B)
            with pytest.raises(ValueError):
                fp_gcd(a, b, p)
            return
        assert fp_gcd(a, b, p) == list(gcd_poly(A, B).coeffs)
        if b:
            assert fp_rem(a, b, p) == list(A.divmod(B)[1].coeffs)


class TestHensel:
    def test_lift_squares_with_product(self):
        g = Poly.make(ZZ, [-1, 0, 0, 0, 1])  # x^4 - 1
        fac = factor(fp(3, [-1, 0, 0, 0, 1]))
        lifted = hensel_lift(g, fac, 3, 4)
        prod = Poly.one(ZZ)
        for G in lifted.factors:
            prod = prod * G
        mod = 3**4
        assert [(a - b) % mod for a, b in zip(prod.coeffs, g.coeffs)] == [0] * 5

    def test_rejects_repeated_factors(self):
        g = Poly.make(ZZ, [1, 2, 1])
        fac = factor(fp(3, [1, 2, 1]))  # (x+1)^2
        with pytest.raises(NotSquarefree):
            hensel_lift(g, fac, 3, 3)
