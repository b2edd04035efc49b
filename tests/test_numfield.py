"""Number field arithmetic, valuations, and irreducibility certification."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcfcert import numfield
from pcfcert.certificates import HypothesisUnmet, Unsupported, Verdict
from pcfcert.finitefield import factor
from pcfcert.numfield import (
    NFElem,
    NotIntegral,
    Reducible,
    Valuation,
    _tiny_factor_search,
    backend_a_primes,
    irreducibility_certificate,
    irreducible_mod_prime,
    is_unit,
    nf_new,
    nf_norm,
    prime_with_valuation,
    primes_above,
    reduce_poly_mod_prime,
    residue_field,
    valuation,
)
from pcfcert.polyring import QQ, Poly, ZZ, _mul, xgcd_poly


def field(coeffs):
    return nf_new(Poly.from_ints(ZZ, coeffs))


class TestElements:
    def test_gen_satisfies_g(self):
        K = field([1, 1, 2, 1])
        c = K.gen()
        assert (c**3 + K.from_int(2) * c**2 + c + K.one).is_zero

    def test_inverse(self):
        K = field([1, 0, 1])
        c = K.gen()
        assert (c * c.inverse()) == K.one
        x = c + K.from_int(3)
        assert (x * x.inverse()) == K.one

    def test_rational_normalization(self):
        K = field([1, 0, 1])
        x = K.from_rational(Fraction(6, 4))
        assert x.den == 2 and list(x.num) == [3]

    def test_pow_negative(self):
        K = field([1, 0, 1])
        c = K.gen()
        assert c**-2 == (c * c).inverse()


# fields of degree 1 to 4, including two of the benchmark's parameter fields
MUL_FIELDS = [field(g) for g in ([2, 1], [1, 0, 1], [1, 1, 2, 1], [3, 0, 3, 0, 1])]


@st.composite
def elem_tuples(draw, K):
    """Coefficient tuples over K: negative, non-integral and zero entries."""
    size = draw(st.integers(min_value=1, max_value=6))
    out = []
    for _ in range(size):
        num = draw(st.lists(st.integers(-(10**12), 10**12), max_size=K.degree + 2))
        den = draw(st.integers(min_value=1, max_value=12))
        out.append(K.element(num, den))
    return tuple(out)


class TestKroneckerMul:
    """NumberField.mul_coeffs against the generic _mul as the oracle."""

    @given(st.data(), st.sampled_from(MUL_FIELDS))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_generic(self, data, K):
        a = data.draw(elem_tuples(K))
        b = data.draw(elem_tuples(K))
        assert K.mul_coeffs(a, b) == _mul(K, a, b)

    @given(st.data(), st.sampled_from(MUL_FIELDS))
    @settings(max_examples=40, deadline=None)
    def test_square_matches_generic(self, data, K):
        a = data.draw(elem_tuples(K))
        assert K.mul_coeffs(a, a) == _mul(K, a, a)

    def test_edge_cases(self):
        K = MUL_FIELDS[2]
        c = K.gen()
        half = K.from_rational(Fraction(-1, 2))
        for a, b in (
            ((c,), (half,)),  # length 1
            ((K.zero, c, K.zero), (half, K.zero)),  # zero coefficients
            ((half, c * c, K.from_int(-7)), (c,)),  # unequal lengths
        ):
            assert K.mul_coeffs(a, b) == _mul(K, a, b)
            assert K.mul_coeffs(b, a) == _mul(K, b, a)


def as_qq(x):
    """x as a polynomial over Q in c, the oracle's representation."""
    return Poly.make(QQ, [Fraction(c, x.den) for c in x.num])


def row_invariants(x):
    K = x.field
    assert len(x.num) <= K.degree and (not x.num or x.num[-1] != 0)
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.num or x.den == 1
    scaled = K.element([3 * c for c in x.num] + [0], 3 * x.den)  # same value
    assert scaled == x and hash(scaled) == hash(x)


# the fields above and x^3 - 2, whose tail is negative with a zero
ELEM_FIELDS = MUL_FIELDS + [field([-2, 0, 0, 1])]
raw_elements = st.tuples(
    st.lists(st.integers(-(10**6), 10**6), max_size=6), st.integers(-12, 12).filter(bool)
)


class TestElementRow:
    """NFElem on integer rows against Poly over Q modulo g as the oracle."""

    @given(raw_elements, raw_elements, st.integers(-3, 5), st.sampled_from(ELEM_FIELDS))
    @settings(max_examples=120, derandomize=True, deadline=None)
    @example(([0, 0, 0], 5), ([], -3), -2, MUL_FIELDS[2])
    @example(([4, -6, 2, 8], -4), ([1, 1], 1), 3, ELEM_FIELDS[-1])
    def test_operations_match_qq(self, ra, rb, n, K):
        gq = K.g.map_coeffs(QQ, Fraction)

        def mod_g(poly):
            return poly.divmod(gq)[1]

        a, b = K.element(*ra), K.element(*rb)
        A = mod_g(Poly.make(QQ, [Fraction(c, ra[1]) for c in ra[0]]))
        B = mod_g(Poly.make(QQ, [Fraction(c, rb[1]) for c in rb[0]]))
        assert as_qq(a) == A and as_qq(b) == B
        assert as_qq(a + b) == A + B
        assert as_qq(a - b) == A - B
        assert as_qq(-a) == -A
        assert as_qq(a * b) == mod_g(A * B)
        for x in (a, b, a + b, a - b, -a, a * b):
            row_invariants(x)
        if B.is_zero:
            with pytest.raises(ZeroDivisionError):
                b.inverse()
            return
        one = Poly.one(QQ)
        assert mod_g(as_qq(b.inverse()) * B) == one
        assert mod_g(as_qq(a / b) * B) == A
        power = b**n
        if n >= 0:
            assert as_qq(power) == mod_g(B**n)
        else:
            assert mod_g(as_qq(power) * B**-n) == one
        for x in (b.inverse(), a / b, power):
            row_invariants(x)

    def test_inverse_computed_once(self, monkeypatch):
        calls = []

        def counting(p, q):
            calls.append(p)
            return xgcd_poly(p, q)

        monkeypatch.setattr(numfield, "xgcd_poly", counting)
        K = field([1, 1, 2, 1])
        c = K.gen()
        x = c + K.from_rational(Fraction(3, 2))
        assert x.inverse() is x.inverse() and len(calls) == 1
        assert (x / c) * c == x and (K.one / c) * c == K.one
        assert len(calls) == 2


class TestNormTrace:
    def test_norm_of_generator(self):
        # norm(c0) = (-1)^deg * g(0)
        K = field([1, 1, 2, 1])
        assert nf_norm(K.gen()) == -1

    def test_norm_multiplicative(self):
        K = field([1, 1, 2, 1])
        x = K.gen() + K.from_int(2)
        y = K.gen() ** 2 - K.one
        assert nf_norm(x * y) == nf_norm(x) * nf_norm(y)

    def test_quadratic_norms(self):
        K = field([1, 0, 1])  # Q(i)
        c = K.gen()
        assert nf_norm(c - K.one) == 2  # |i - 1|^2
        assert nf_norm(K.from_int(3)) == 9

    def test_is_unit(self):
        K = field([1, 1, 2, 1])
        assert is_unit(K.gen())
        assert not is_unit(K.from_int(2))
        with pytest.raises(NotIntegral):
            is_unit(K.from_rational(Fraction(1, 2)))


class TestIrreducibility:
    def test_linear_trivial(self):
        cert = irreducibility_certificate(Poly.from_ints(ZZ, [5, 1]))
        assert cert.verdict is Verdict.VERIFIED

    def test_integer_root_refutes(self):
        cert = irreducibility_certificate(Poly.from_ints(ZZ, [-2, 1, 1]))  # (x-1)(x+2)
        assert cert.verdict is Verdict.REFUTED

    def test_mod_p_witness(self):
        cert = irreducibility_certificate(Poly.from_ints(ZZ, [1, 1, 2, 1]))
        assert cert.verdict is Verdict.VERIFIED

    def test_rootless_product_refuted(self):
        # (x^2+1)(x^2+2): no rational roots, reducible
        g = Poly.from_ints(ZZ, [2, 0, 3, 0, 1])
        cert = irreducibility_certificate(g)
        assert cert.verdict is Verdict.REFUTED

    def test_cyclotomic_style_verified(self):
        cert = irreducibility_certificate(Poly.from_ints(ZZ, [3, 0, 3, 0, 1]))
        assert cert.verdict is Verdict.VERIFIED

    def test_recombination_exhausted(self):
        # x^4 + 1 splits mod every prime, so only recombination certifies it
        cert = irreducibility_certificate(Poly.from_ints(ZZ, [1, 0, 0, 0, 1]))
        assert cert.verdict is Verdict.VERIFIED
        assert cert.witnesses == [{"step": "recombination-exhausted", "p": 3}]

    def test_repeated_factor_mod_p_is_not_verified(self, monkeypatch):
        # a factorization with a repeated factor gives the search nothing to
        # lift: the certificate must say so, not claim an exhausted search
        def repeated(poly, seed=1):
            (f, _), *rest = factor(poly)
            return [(f, 2), *rest]

        monkeypatch.setattr(numfield, "factor", repeated)
        cert = irreducibility_certificate(Poly.from_ints(ZZ, [1, 0, 0, 0, 1]))
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.diagnostics == [
            "recombination search not applicable: g is not squarefree mod 3"
        ]

    def test_one_factor_mod_p_is_not_applicable(self):
        # x^2 + 1 is irreducible mod 3: there is nothing to recombine
        g = Poly.from_ints(ZZ, [1, 0, 1])
        assert _tiny_factor_search(g, 3) == "g mod 3 has one factor: nothing to recombine"
        assert _tiny_factor_search(g, 5) is None  # (x - 2)(x + 2): no factor over Z

    def test_reducible_field_rejected(self):
        with pytest.raises(Reducible):
            field([-2, 1, 1])


class TestPrimes:
    def test_backend_a_inert(self):
        K = field([1, 1, 2, 1])  # disc -23
        (P,) = primes_above(K, 2)
        assert P.backend == "A" and P.residue_degree == 3

    def test_backend_a_split(self):
        K = field([1, 0, 1])
        primes = primes_above(K, 5)  # 5 splits in Q(i)
        assert [P.residue_degree for P in primes] == [1, 1]

    def test_backend_b_eisenstein(self):
        K = field([3, 0, 3, 0, 1])
        (P,) = primes_above(K, 3)
        assert P.backend == "B" and P.ramification == 4

    def test_backend_b_shifted(self):
        K = field([1, 0, 1])  # 2 ramifies in Q(i), g not Eisenstein at 2
        (P,) = primes_above(K, 2)
        assert P.backend == "B" and P.gen_shift == 1

    def test_unsupported(self):
        K = field([3, 0, 1])  # 2 | disc, no Eisenstein shift
        with pytest.raises(Unsupported):
            primes_above(K, 2)


class TestPrimeSearch:
    def test_backend_a_primes_skips_unsupported_and_backend_b(self):
        K = field([3, 0, 1])  # 2: Unsupported; 3: backend B; 7 splits; 5 inert
        found = [(p, idx, P.residue_degree) for p, idx, P in backend_a_primes(K, (2, 3, 7, 5))]
        assert found == [(7, 0, 1), (7, 1, 1), (5, 0, 2)]
        assert all(P.backend == "A" for _, _, P in backend_a_primes(K, (2, 3, 7, 5)))

    def test_irreducible_mod_prime_first_irreducible_reduction(self):
        K = field([0, 1])  # Q
        x = Poly.x(K)
        one = Poly.constant(K, K.one)
        # x^2 + 1 splits mod 5 and is irreducible mod 3 and mod 7
        p, idx, P = irreducible_mod_prime(x * x + one, (5, 3, 7))
        assert (p, idx, P.p) == (3, 0, 3)
        assert irreducible_mod_prime(x * x - one, (3, 5, 7)) is None  # splits

    def test_irreducible_mod_prime_rejects_lost_degree(self):
        K = field([0, 1])
        x = Poly.x(K)
        # 3x^2 + x + 1 reduces to the irreducible x + 1 mod 3, of lower degree
        poly = Poly.constant(K, K.from_int(3)) * x * x + x + Poly.constant(K, K.one)
        assert irreducible_mod_prime(poly, (3,)) is None

    def test_irreducible_mod_prime_ignores_backend_b(self):
        K = field([1, 0, 1])  # Q(i): 2 is backend B, 3 is inert
        x = Poly.x(K)
        # x^2 + x + 1 is irreducible mod the prime above 2 but splits over F_9
        assert irreducible_mod_prime(x * x + x + Poly.constant(K, K.one), (2, 3)) is None

    def test_prime_with_valuation_first_qualifying_index(self):
        K = field([1, 0, 1])  # two primes above 5 in Q(i)
        def is_one(v):
            return v.exact and v.value == 1

        alpha = K.gen() - K.from_int(2)  # valuations 0, 1
        P, idx, v = prime_with_valuation(alpha, 5, is_one, "= 1")
        assert (idx, v) == (1, Valuation.of(1)) and P is primes_above(K, 5)[1]
        _, idx, _ = prime_with_valuation(K.from_int(5), 5, is_one, "= 1")  # 1, 1
        assert idx == 0

    def test_prime_with_valuation_unmet_lists_every_valuation(self):
        K = field([1, 0, 1])
        alpha = K.gen() - K.from_int(2)
        with pytest.raises(HypothesisUnmet) as exc:
            prime_with_valuation(alpha, 5, lambda v: v.value >= 2, ">= 2")
        assert str(exc.value) == "no prime above 5 with v(alpha) >= 2; found v=0, v=1"

    def test_prime_with_valuation_unsupported_propagates(self):
        K = field([3, 0, 1])
        with pytest.raises(Unsupported):
            prime_with_valuation(K.from_int(4), 2, lambda v: True, ">= 0")


class TestValuation:
    def test_rational_prime_valuations(self):
        K = field([1, 1, 2, 1])
        (P,) = primes_above(K, 2)
        assert valuation(K.from_int(2), P) == Valuation.of(1)
        assert valuation(K.gen(), P) == Valuation.of(0)
        assert valuation(K.from_int(12), P) == Valuation.of(2)

    def test_zero_is_infinite(self):
        K = field([1, 0, 1])
        (P,) = primes_above(K, 2)
        assert valuation(K.zero, P).infinite

    def test_ramified_valuations(self):
        K = field([3, 0, 3, 0, 1])
        (P,) = primes_above(K, 3)
        assert valuation(K.gen(), P) == Valuation.of(1)
        assert valuation(K.from_int(3), P) == Valuation.of(4)

    def test_additivity(self):
        K = field([1, 1, 2, 1])
        (P,) = primes_above(K, 2)
        x = K.from_int(2) * K.gen()
        y = K.from_int(4) * (K.gen() + K.one)
        vx = valuation(x, P).value
        vy = valuation(y, P).value
        assert valuation(x * y, P).value == vx + vy

    def test_denominator_shifts_valuation(self):
        K = field([1, 0, 1])
        (P,) = primes_above(K, 2)
        half = K.from_rational(Fraction(1, 2))
        assert valuation(half, P) == Valuation.of(-2)

    def test_precision_cutoff_is_lower_bound(self):
        K = field([1, 1, 2, 1])
        (P,) = primes_above(K, 2)  # default T = 3
        v = valuation(K.from_int(8), P)
        assert not v.exact and v.value == 3


class TestResidue:
    def test_reduction_is_homomorphic(self):
        for g, p, idx in (
            ([1, 1, 2, 1], 5, 0),  # backend A, f = 1
            ([1, 1, 2, 1], 5, 1),  # backend A, f = 2
            ([1, 1, 2, 1], 3, 0),  # backend A, f = 3
            ([3, 0, 3, 0, 1], 3, 0),  # backend B, Eisenstein at 3
            ([1, 0, 1], 2, 0),  # backend B, shift 1
            ([4, -2, 1], 3, 0),  # backend B, shift 1: g(c + 1) = c^2 + 3
        ):
            K = field(g)
            P = primes_above(K, p)[idx]
            x = K.gen() + K.from_rational(Fraction(7, 11))
            y = K.gen() ** 2 - K.one

            def reduce(z):
                return reduce_poly_mod_prime(Poly.constant(K, z), P).constant_term

            R = residue_field(P)
            assert reduce(x * y) == R.mul(reduce(x), reduce(y)), (g, p, idx)
            assert reduce(x + y) == R.add(reduce(x), reduce(y)), (g, p, idx)
