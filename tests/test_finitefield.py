"""Finite-field factorization and Hensel lifting on integer rows, against the
Poly-over-adapter oracle in ``oracles``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    factor_on_poly,
    field_of,
    is_irreducible_on_poly,
    squarefree_decomposition_on_poly,
    to_poly,
    to_rows,
)
from pcfcert import finitefield
from pcfcert.finitefield import (
    SPLIT_DRAWS,
    NotSquarefree,
    _cols,
    _equal_degree,
    _divmod,
    _gcd,
    _inverse,
    _monic,
    _rows,
    degree_pattern,
    factor,
    field_modulus,
    hensel_lift,
    is_irreducible,
    squarefree_decomposition,
)
from pcfcert.polyring import Poly, ZZ, gcd_poly, mul_mod, mul_rows

FP = (0, 1)  # F_p = F_p[t]/(t)


def fp(coeffs):
    """Residues as rows over F_p."""
    return [[c] for c in coeffs]


def gcd_rows(a, b, G, p):
    f = len(G) - 1
    return _rows(_gcd(_cols(a, f), _cols(b, f), G, p))


def divmod_rows(a, b, G, p):
    """Quotient and remainder by the monic multiple of b."""
    f = len(G) - 1
    quo, rem = _divmod(_cols(a, f), _monic(_cols(b, f), G, p), G, p)
    return _rows(quo), _rows(rem)


def product(factors, G, p):
    out = [[1] + [0] * (len(G) - 2)]
    for rows, mult in factors:
        for _ in range(mult):
            out = mul_rows(out, rows, G, p)
    return out


def first_irreducible(p, f):
    """The least monic irreducible of degree f over F_p, as G for F_{p^f}."""
    for n in range(p**f):
        G = tuple(n // p**j % p for j in range(f)) + (1,)
        if f == 1 or is_irreducible(fp(G), FP, p):
            return G


class TestPrimeField:
    def test_inverse(self):
        for a in range(1, 7):
            (inv,) = _inverse([a], FP, 7)
            assert a * inv % 7 == 1
        # and in F_9 = F_3[t]/(t^2 + 1), as x^(q - 2)
        for x in ([a, b] for a in range(3) for b in range(3) if a or b):
            assert mul_mod(x, _inverse(x, (1, 0, 1), 3), (1, 0, 1), 3) == [1, 0]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            field_modulus(FP, 6)


class TestIrreducibility:
    def test_known_irreducible_mod_2(self):
        assert is_irreducible(fp([1, 1, 1]), FP, 2)  # x^2 + x + 1
        assert is_irreducible(fp([1, 1, 0, 1]), FP, 2)  # x^3 + x + 1

    def test_known_reducible(self):
        assert not is_irreducible(fp([1, 0, 1]), FP, 2)  # (x+1)^2
        assert not is_irreducible(fp([4, 0, 1]), FP, 5)  # (x-2)(x+2)

    def test_frobenius_count_matches(self):
        # number of monic irreducible quadratics over F_3 is (9 - 3)/2 = 3
        count = 0
        for b in range(3):
            for c in range(3):
                if is_irreducible(fp([c, b, 1]), FP, 3):
                    count += 1
        assert count == 3

    def test_field_modulus_refuses_reducible(self):
        assert field_modulus((-1, 1, 1), 2) == (1, 1, 1)  # t^2 + t + 1
        for G, p in (((1, 0, 1), 2), ((6, 5, 1), 5), ((1, 0, 0, 0, 1), 3)):
            with pytest.raises(ValueError, match="reducible over F_p"):
                field_modulus(G, p)
        with pytest.raises(ValueError, match="monic"):
            field_modulus((1, 2), 2)


class TestSquarefree:
    def test_separates_multiplicities(self):
        f = product([(fp([1, 1]), 3), (fp([2, 1]), 2)], FP, 5)
        parts = squarefree_decomposition(f, FP, 5)
        assert parts == [(fp([2, 1]), 2), (fp([1, 1]), 3)]

    def test_char_p_power(self):
        # x^2 + 1 = (x + 1)^2 over F_2; derivative vanishes identically
        parts = squarefree_decomposition(fp([1, 0, 1]), FP, 2)
        assert parts == [(fp([1, 1]), 2)]


class TestFactor:
    def test_product_of_factors(self):
        f = fp([3, 0, 5, 1, 1])
        fac = factor(f, FP, 7)
        for g, _ in fac:
            assert is_irreducible(g, FP, 7)
        assert product(fac, FP, 7) == f

    def test_deterministic(self):
        # no seed to pass: the output is sorted, whatever the draws
        f = fp([1, 4, 0, 0, 2, 1])
        assert factor(f, FP, 13) == factor(f, FP, 13)
        assert factor(f, FP, 13) == [
            (to_rows(g), m) for g, m in factor_on_poly(to_poly(f, field_of(FP, 13)))
        ]

    def test_p2_equal_degree_split(self):
        # two distinct cubics over F_2: (x^3+x+1)(x^3+x^2+1)
        f = product([(fp([1, 1, 0, 1]), 1), (fp([1, 0, 1, 1]), 1)], FP, 2)
        fac = factor(f, FP, 2)
        assert [(len(g) - 1, m) for g, m in fac] == [(3, 1), (3, 1)]

    def test_ext_field_factor(self):
        G = (1, 0, 1)  # F_9 = F_3[t]/(t^2+1)
        t, one = [0, 1], [1, 0]
        f = product([([[0, 2], one], 1), ([t, one], 1), ([[2, 0], one], 1)], G, 3)
        fac = factor(f, G, 3)
        assert [(len(g) - 1, m) for g, m in fac] == [(1, 1)] * 3
        assert product(fac, G, 3) == f

    @pytest.mark.parametrize("p", [2, 5])
    def test_equal_degree_split_gives_up(self, monkeypatch, p):
        # a split that never succeeds, as a faulty kernel or a reducible G
        # would give: the draws are bounded, and the error names G and p
        draws = []

        def never_splits(a, g, G, p):
            draws.append(a)
            return [[1]]

        monkeypatch.setattr(finitefield, "_gcd", never_splits)
        g = _cols(product([(fp([1, 1]), 1), (fp([0, 1]), 1)], FP, p), 1)
        with pytest.raises(ValueError, match=rf"G = \(0, 1\), p = {p}$"):
            _equal_degree(g, 1, FP, p, random.Random(1))
        assert 0 < len(draws) <= 2 * SPLIT_DRAWS

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=7))
    @settings(max_examples=40)
    def test_factor_recombines(self, coeffs):
        f = fp(coeffs + [1])
        assert product(factor(f, FP, 5), FP, 5) == f


def random_rows(rng, p, f, n):
    rows = [[rng.randrange(p) for _ in range(f)] for _ in range(n)]
    return rows + [[1] + [0] * (f - 1)]


FIELDS = [(p, f, first_irreducible(p, f)) for p in (2, 3, 5, 13) for f in (1, 2, 3)]


class TestFpKernel:
    """The row kernels against the Poly-over-adapter oracle, over F_{p^f} for
    p in {2, 3, 5, 13} and f in {1, 2, 3}."""

    @given(
        field=st.sampled_from(FIELDS),
        seed=st.integers(0, 2**32),
        degrees=st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 3)),
        power=st.sampled_from([1, 2, "p"]),
    )
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_matches_poly_path(self, field, seed, degrees, power):
        p, f, G = field
        rng = random.Random(seed)
        F = field_of(G, p)
        a, b, c = (random_rows(rng, p, f, n) for n in degrees)
        g = product([(a, 1), (b, p if power == "p" else power)], G, p)
        gp = to_poly(g, F)
        fac = factor(g, G, p)
        assert fac == [(to_rows(h), m) for h, m in factor_on_poly(gp)]
        if {m for _, m in fac} == {1}:  # squarefree: the degrees alone
            assert degree_pattern(g, G, p) == [len(h) - 1 for h, _ in fac]
        assert is_irreducible(g, G, p) is is_irreducible_on_poly(gp)
        assert squarefree_decomposition(g, G, p) == [
            (to_rows(h), m) for h, m in squarefree_decomposition_on_poly(gp)
        ]
        ac, bc = product([(a, 1), (c, 1)], G, p), product([(b, 1), (c, 1)], G, p)
        for u, v in ((g, c), (c, g), (ac, bc)):
            U, V = to_poly(u, F), to_poly(v, F)
            assert gcd_rows(u, v, G, p) == to_rows(gcd_poly(U, V))
            quo, rem = U.divmod(V.monic())
            assert divmod_rows(u, v, G, p) == (to_rows(quo), to_rows(rem))

    def test_degree_100_at_11(self):
        rng = random.Random(11)
        a, b = random_rows(rng, 11, 1, 40), random_rows(rng, 11, 1, 30)
        g = product([(a, 1), (b, 2)], FP, 11)
        assert len(g) == 101
        gp = to_poly(g, field_of(FP, 11))
        fac = factor(g, FP, 11)
        assert fac == [(to_rows(h), m) for h, m in factor_on_poly(gp)]
        assert product(fac, FP, 11) == g
        assert squarefree_decomposition(g, FP, 11) == [
            (to_rows(h), m) for h, m in squarefree_decomposition_on_poly(gp)
        ]
        assert gcd_rows(g, a, FP, 11) == a and divmod_rows(g, b, FP, 11)[1] == []
        assert not is_irreducible(g, FP, 11)

    def test_zero(self):
        with pytest.raises(ValueError):
            gcd_rows([], [], FP, 5)
        with pytest.raises(ValueError):
            factor([], FP, 5)
        with pytest.raises(ValueError):
            degree_pattern([], FP, 5)
        assert gcd_rows([], fp([2, 4]), FP, 5) == fp([3, 1])


class TestHensel:
    def test_lift_squares_with_product(self):
        g = Poly.make(ZZ, [-1, 0, 0, 0, 1])  # x^4 - 1
        fac = factor(fp([2, 0, 0, 0, 1]), FP, 3)
        lifted = hensel_lift(g, fac, 3, 4)
        prod = Poly.one(ZZ)
        for G in lifted.factors:
            prod = prod * G
        mod = 3**4
        assert [(a - b) % mod for a, b in zip(prod.coeffs, g.coeffs)] == [0] * 5

    def test_rejects_repeated_factors(self):
        g = Poly.make(ZZ, [1, 2, 1])
        fac = factor(fp([1, 2, 1]), FP, 3)  # (x+1)^2
        with pytest.raises(NotSquarefree):
            hensel_lift(g, fac, 3, 3)
        # the same factor twice, each of multiplicity 1, shares its root
        with pytest.raises(NotSquarefree, match="share a root"):
            hensel_lift(g, [(fp([1, 1]), 1), (fp([1, 1]), 1)], 3, 3)
        with pytest.raises(NotSquarefree, match="does not match"):
            hensel_lift(g, [(fp([1, 1]), 1), (fp([2, 1]), 1)], 3, 3)
