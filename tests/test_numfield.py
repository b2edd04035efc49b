"""Number field arithmetic, valuations, and irreducibility certification."""

import io
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import as_rows, prs_resultant
from pcfcert import numfield
from pcfcert.certificates import HypothesisUnmet, Unsupported, Verdict
from pcfcert.cli import main
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
    nf_resultant,
    prime_with_valuation,
    primes_above,
    reduce_poly_mod_prime,
    residue_modulus,
    valuation,
)
from pcfcert.factoring import iterate
from pcfcert.orbits import gleason, misiurewicz, orbit_value
from pcfcert.polyring import (
    QQ,
    Poly,
    ZZ,
    _mul,
    discriminant,
    inverse_mod,
    mul_mod,
    mul_rows,
)


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


def row_product(K, a: tuple, b: tuple) -> list:
    """The product of two coefficient tuples over K as (rows, den) pairs:
    ``mul_rows`` on the rows, over the product of the denominators."""
    (rows_a, den_a), (rows_b, den_b) = as_rows(Poly(K, a)), as_rows(Poly(K, b))
    product = mul_rows(rows_a, rows_a if b is a else rows_b, K.g.coeffs)
    return [K.element(row, den_a * den_b) for row in product]


class TestKroneckerMul:
    """Products of (rows, den) polynomials over K (``mul_rows``) against the
    generic _mul on NFElem coefficients as the oracle."""

    @given(st.data(), st.sampled_from(MUL_FIELDS))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_generic(self, data, K):
        a = data.draw(elem_tuples(K))
        b = data.draw(elem_tuples(K))
        assert row_product(K, a, b) == _mul(K, a, b)

    @given(st.data(), st.sampled_from(MUL_FIELDS))
    @settings(max_examples=40, deadline=None)
    def test_square_matches_generic(self, data, K):
        a = data.draw(elem_tuples(K))
        assert row_product(K, a, a) == _mul(K, a, a)

    def test_edge_cases(self):
        K = MUL_FIELDS[2]
        c = K.gen()
        half = K.from_rational(Fraction(-1, 2))
        for a, b in (
            ((c,), (half,)),  # length 1
            ((K.zero, c, K.zero), (half, K.zero)),  # zero coefficients
            ((half, c * c, K.from_int(-7)), (c,)),  # unequal lengths
        ):
            assert row_product(K, a, b) == _mul(K, a, b)
            assert row_product(K, b, a) == _mul(K, b, a)


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

        def counting(a, g):
            calls.append(a)
            return inverse_mod(a, g)

        monkeypatch.setattr(numfield, "inverse_mod", counting)
        K = field([1, 1, 2, 1])
        c = K.gen()
        x = c + K.from_rational(Fraction(3, 2))
        assert x.inverse() is x.inverse() and len(calls) == 1
        assert (x / c) * c == x and (K.one / c) * c == K.one
        assert len(calls) == 2


# deg g = 1, 1, 2, 2, 3, 4, 6: the cert-mix fields, the quartic of
# --misiurewicz 2,1 at d = 3 and the sextic of --gleason-n 4 at d = 2
PRS_FIELDS = [
    nf_new(g)
    for g in (
        gleason(2, 2),
        misiurewicz(2, 2, 1)[1],
        gleason(3, 2),
        Poly.from_ints(ZZ, [3, 0, 1]),
        gleason(2, 3),
        misiurewicz(3, 2, 1)[1],
        gleason(2, 4),
    )
]
small_elements = st.tuples(st.lists(st.integers(-40, 40), max_size=6), st.integers(1, 6))


@st.composite
def polys_over(draw, K, max_degree=5):
    """Polynomials over K, non-monic, with rational and zero coefficients."""
    coeffs = draw(st.lists(small_elements, max_size=max_degree + 1))
    return Poly.make(K, [K.element(num, den) for num, den in coeffs])


def assert_resultants_match(A, B):
    """The column PRS on (rows, den) against the NFElem PRS, both orders."""
    K = A.ring
    for P, Q in ((A, B), (B, A)):
        assert nf_resultant(K, as_rows(P), as_rows(Q)) == prs_resultant(P, Q)


class TestColumnResultant:
    """nf_resultant (polyring.resultant_rows) against prs_resultant."""

    @given(st.data(), st.sampled_from(PRS_FIELDS))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_random_operands(self, data, K):
        assert_resultants_match(data.draw(polys_over(K)), data.draw(polys_over(K)))

    @given(st.data(), st.sampled_from(PRS_FIELDS))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_shared_factor_is_zero(self, data, K):
        F = data.draw(polys_over(K, 3).filter(lambda p: p.degree >= 1))
        G = data.draw(polys_over(K, 2).filter(lambda p: not p.is_zero))
        H = data.draw(polys_over(K, 2).filter(lambda p: not p.is_zero))
        assert nf_resultant(K, as_rows(F * G), as_rows(F * H)) == K.zero
        assert_resultants_match(F * G, F * H)

    @given(st.data(), st.sampled_from(PRS_FIELDS))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_degree_zero_operands(self, data, K):
        A = data.draw(polys_over(K, 0))
        assert_resultants_match(A, data.draw(polys_over(K)))
        assert_resultants_match(A, data.draw(polys_over(K, 0)))

    @given(
        st.sampled_from(PRS_FIELDS),
        st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]),
        small_elements,
    )
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_iterate_shapes(self, K, dj, x0):
        """f^j - x0 against its derivative: sparse, with degree gaps."""
        d, j = dj
        h = iterate(K, d, j) - Poly.constant(K, K.element(*x0))
        assert_resultants_match(h, h.derivative())

    def test_large_degree_gaps(self):
        # d = 3, k = 4 on c^2 + 1: the PRS of f^4 - x0 and its derivative
        # drops degree by 1, 2, 4, 14, 40, 14, 4
        K = PRS_FIELDS[2]
        h = iterate(K, 3, 4) - Poly.constant(K, K.gen() + K.from_int(4))
        assert_resultants_match(h, h.derivative())

    def test_zero_operands(self):
        K = PRS_FIELDS[4]
        zero, one, x = Poly.zero(K), Poly.one(K), Poly.x(K)
        for A, B in ((zero, zero), (zero, one), (zero, x), (one, x)):
            assert_resultants_match(A, B)


class TestZeroDivisor:
    def test_reducible_modulus_assumed_irreducible(self):
        # (c^3 - 2)(c^4 + 1): degree 7, so no certificate either way
        K = numfield.NumberField(
            Poly.from_ints(ZZ, [-2, 0, 0, 1]) * Poly.from_ints(ZZ, [1, 0, 0, 0, 1]),
            assume_irreducible=True,
        )
        assert K.assumed
        c = K.gen()
        with pytest.raises(ZeroDivisionError):
            (c**3 - K.from_int(2)).inverse()
        with pytest.raises(ZeroDivisionError):
            K.zero.inverse()
        assert (c * c.inverse()) == K.one


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

    def test_kept_norms_equal_fresh_ones(self, monkeypatch):
        # the orbit values a field keeps carry their norms; a copy of each
        # element (or a zero, or a non-integral one) computes its own
        K = nf_new(gleason(2, 4))
        orbit = [orbit_value(K, 2, i) for i in range(1, 9)]
        scaled = [x * K.from_rational(Fraction(2, 3)) for x in orbit]
        kept = [nf_norm(x) for x in (*orbit, *scaled, K.zero)]
        calls = []
        monkeypatch.setattr(numfield, "resultant", lambda *a: calls.append(a))
        assert [nf_norm(x) for x in (*orbit, *scaled, K.zero)] == kept and not calls
        monkeypatch.undo()
        fresh = [nf_norm(NFElem(K, x.num, x.den)) for x in (*orbit, *scaled, K.zero)]
        assert fresh == kept
        assert fresh[len(orbit):-1] == [x * Fraction(2, 3) ** K.degree for x in kept[:len(orbit)]]

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

    def test_field_computes_disc_once(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return discriminant(p)

        monkeypatch.setattr(numfield, "discriminant", counting)
        g = Poly.from_ints(ZZ, [3, 0, 3, 0, 1])
        K = nf_new(g)
        assert len(calls) == 1 and K.disc_g == discriminant(g) == 432
        assert K.irreducibility.verdict is Verdict.VERIFIED

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
        def repeated(poly, G, p):
            (f, _), *rest = factor(poly, G, p)
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

    def test_degree_patterns_match_factor_at_degree_120(self, monkeypatch):
        # g mod p is squarefree at every prime the certificate tries, so the
        # distinct-degree split gives the degrees the full factorization does
        tried = []

        def spy(rows, G, p):
            tried.append((rows, p, numfield_degree_pattern(rows, G, p)))
            return tried[-1][2]

        numfield_degree_pattern = numfield.degree_pattern
        monkeypatch.setattr(numfield, "degree_pattern", spy)
        g = gleason(5, 4)
        assert g.degree == 120
        cert = irreducibility_certificate(g)
        (witness,) = cert.witnesses
        assert cert.verdict is Verdict.VERIFIED and witness["step"] == "degree-subset-sums"
        assert [p for _, p, _ in tried] == witness["primes"] == [
            3, 5, 7, 11, 13, 17, 19, 23, 29, 31
        ]
        for rows, p, degrees in tried:
            fac = factor(rows, (0, 1), p)
            assert {m for _, m in fac} == {1}
            assert degrees == [len(h) - 1 for h, _ in fac], p
        assert witness["degree_patterns"] == [degrees for _, _, degrees in tried]


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
        p, idx, P = irreducible_mod_prime(K, as_rows(x * x + one), (5, 3, 7))
        assert (p, idx, P.p) == (3, 0, 3)
        assert irreducible_mod_prime(K, as_rows(x * x - one), (3, 5, 7)) is None  # splits

    def test_irreducible_mod_prime_rejects_lost_degree(self):
        K = field([0, 1])
        x = Poly.x(K)
        # 3x^2 + x + 1 reduces to the irreducible x + 1 mod 3, of lower degree
        poly = Poly.constant(K, K.from_int(3)) * x * x + x + Poly.constant(K, K.one)
        assert irreducible_mod_prime(K, as_rows(poly), (3,)) is None

    def test_irreducible_mod_prime_ignores_backend_b(self):
        K = field([1, 0, 1])  # Q(i): 2 is backend B, 3 is inert
        x = Poly.x(K)
        # x^2 + x + 1 is irreducible mod the prime above 2 but splits over F_9
        poly = x * x + x + Poly.constant(K, K.one)
        assert irreducible_mod_prime(K, as_rows(poly), (2, 3)) is None

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
    def test_residue_modulus_checked_once_per_prime(self, monkeypatch):
        # Rabin's test on the lifted factor runs once per prime, not per call
        checked, factored = [], []
        check, fac = numfield.field_modulus, numfield.factor

        def counted_check(G, p):
            checked.append(tuple(G))
            return check(G, p)

        def counted_factor(*args):
            factored.append(args)
            return fac(*args)

        monkeypatch.setattr(numfield, "field_modulus", counted_check)
        monkeypatch.setattr(numfield, "factor", counted_factor)
        K = field([1, 1, 2, 1])
        for _ in range(3):
            moduli = [residue_modulus(P) for P in primes_above(K, 5)]
        assert [len(G) - 1 for G in moduli] == [1, 2] and len(checked) == 2
        assert moduli[1] == tuple(c % 5 for c in primes_above(K, 5)[1].lifted_factor.coeffs)
        # a repeated request on a kept field factors nothing and checks no G
        argv = ["nonabelian-cert", "--d", "2", "--gleason-n", "3", "--case", "periodic-2",
                "--alpha", "0"]
        counts = []
        for _ in range(3):
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            counts.append((len(checked), len(factored)))
        assert counts[0][0] > 3 and counts[0][1] > 0 and counts[0] == counts[2]
        assert any(len(G) > 2 for G in checked[2:])  # Rabin's test ran on a G

    def test_reducible_modulus_refused(self):
        # a prime whose lifted factor is reducible mod p is no field: the
        # check refuses it, keeps nothing, and no reduction is certified
        K = field([1, 1, 2, 1])
        (P,) = primes_above(K, 5)[1:]
        bad = replace(P, lifted_factor=Poly.from_ints(ZZ, [6, 5, 1]))  # (x+2)(x+3)
        for _ in range(2):
            with pytest.raises(ValueError, match="reducible over F_p"):
                residue_modulus(bad)
        assert bad not in K._residue_moduli and residue_modulus(P) == K._residue_moduli[P]

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

            G = residue_modulus(P)

            def reduce(z):
                rows = reduce_poly_mod_prime(as_rows(Poly.constant(K, z)), P)
                return (rows or [[0] * (len(G) - 1)])[0]

            assert reduce(x * y) == mul_mod(reduce(x), reduce(y), G, p), (g, p, idx)
            assert reduce(x + y) == [(u + v) % p for u, v in zip(reduce(x), reduce(y))]
