"""Iterate factorization and the certificate routes built on it."""

from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_rows, expand, f_factor_by_division
from pcfcert import factoring, numfield, polyring
from pcfcert.certificates import HypothesisUnmet, Verdict
from pcfcert.factoring import (
    FactorEntry,
    FactorProduct,
    IterateForm,
    ShapeViolation,
    _eisenstein_verdict,
    eisenstein_certificate,
    f_factor,
    f_irreducibility_certificate,
    factor_product_certificates,
    iterate,
    iterate_eisenstein_certificate,
    iterate_factorization,
    iterate_rows,
    residue_iterate,
    stability_certificate,
    structural_form,
    verify_factorization,
)
from pcfcert.finitefield import ExtField, factor
from pcfcert.numfield import (
    NFElem,
    NotIntegral,
    Valuation,
    add_constant,
    nf_new,
    primes_above,
    reduce_poly_mod_prime,
    residue_ring,
    row_valuation,
    valuation,
)
from pcfcert.orbits import exact_type, gleason, misiurewicz, orbit_value
from pcfcert.polyring import Poly, ZZ, reduce_monic


def field(coeffs):
    return nf_new(Poly.from_ints(ZZ, coeffs))


K22 = field([1, 1])  # period 2 at d = 2, c0 = -1
K23 = nf_new(gleason(2, 3))  # period 3 at d = 2
K32 = nf_new(gleason(3, 2))  # period 2 at d = 3, c0 = i
KM21 = field([2, 1])  # c0 = -2, type (2,1) at d = 2
KM22 = nf_new(misiurewicz(2, 2, 2)[1])  # c^2 + 1: 2 is ramified, e = 2, shift 1
KM31 = nf_new(misiurewicz(2, 3, 1)[1])  # Eisenstein cubic at 2, e = 3
KM321 = nf_new(misiurewicz(3, 2, 1)[1])  # Eisenstein quartic at 3, e = 4
K24 = nf_new(gleason(2, 4))  # two primes above 2, f = 2 and f = 4
K52 = nf_new(gleason(5, 2))  # period 2 at d = 5


class TestIterate:
    def test_composition_law(self):
        for K, d in ((K22, 2), (K32, 3)):
            f1 = iterate(K, d, 1)
            assert iterate(K, d, 3) == iterate(K, d, 2).compose(f1)
            assert iterate(K, d, 3) == f1.compose(iterate(K, d, 2))

    def test_constant_terms_walk_orbit(self):
        for k in range(1, 6):
            assert iterate(K22, 2, k).constant_term == orbit_value(K22, 2, k)

    @pytest.mark.parametrize(
        "d, g, kmax",
        [
            # the seven parameter fields of the deep-iterate benchmark
            (2, misiurewicz(2, 2, 1)[1], 5),
            (2, misiurewicz(2, 2, 2)[1], 5),
            (2, misiurewicz(2, 3, 1)[1], 5),
            (2, gleason(2, 2), 5),
            (2, gleason(2, 3), 5),
            (3, gleason(3, 2), 3),
            (3, misiurewicz(3, 2, 1)[1], 3),
        ],
    )
    def test_packed_iterate_matches_power_tower(self, d, g, kmax):
        K = nf_new(g)
        c0 = Poly.constant(K, K.gen())
        tower = Poly.x(K)
        for k in range(1, kmax + 1):
            tower = tower**d + c0
            assert iterate(K, d, k) == tower

    @pytest.mark.parametrize("g", [gleason(2, 3), misiurewicz(2, 2, 2)[1]])
    def test_cached_rows_are_fresh_and_kept_apart(self, g):
        # one field serves every chain: rows a caller overwrites (as
        # reduce_monic does) must not reach a later call, and the chains of
        # another d or another ring must not mix; each expected value comes
        # from a new field
        calls = [lambda K, k, d=d: iterate_rows(K, d, k) for d in (2, 3)]
        calls += [
            lambda K, k, d=d, i=i: residue_iterate(d, k, primes_above(K, 2)[i])
            for i in range(len(primes_above(nf_new(g), 2)))
            for d in (2, 3)
        ]
        expected = [[call(nf_new(g), k) for k in range(4)] for call in calls]
        K = nf_new(g)
        for call in calls:
            for k in (3, 1, 0):
                rows = call(K, k)
                for row in rows:
                    row[:] = [x + 1 for x in row]
                rows.append([7] * K.degree)
        assert [[call(K, k) for k in range(4)] for call in calls] == expected


class TestStructuralForm:
    def test_periodic_constant_index(self):
        typ = exact_type(K22, 2)
        form = structural_form(K22, 2, 4, typ)
        assert form.constant.is_zero and form.const_index == 2
        form = structural_form(K22, 2, 3, typ)
        assert form.constant == orbit_value(K22, 2, 1)

    def test_middle_divisible_by_d(self):
        typ = exact_type(K32, 3)
        form = structural_form(K32, 3, 3, typ)
        assert len(form.middle) == 3**3
        for row in form.middle:
            assert all(x % 3 == 0 for x in row)

    def test_preperiodic_unit_residual(self):
        typ = exact_type(KM21, 2)
        form = structural_form(KM21, 2, 5, typ)
        assert form.unit_residual is not None
        assert form.unit_residual == KM21.from_int(-1)


class TestFFactor:
    def test_known_values_d2_n2(self):
        x = Poly.x(K22)
        assert K22.poly_from_rows(f_factor(K22, 2, 2, 0, 1)) == x - Poly.one(K22)
        f21 = K22.poly_from_rows(f_factor(K22, 2, 2, 2, 1))
        assert f21 == x**4 - Poly.constant(K22, K22.from_int(2)) * x**2 - Poly.one(K22)

    def test_degree_formula(self):
        for d, n, K in ((2, 2, K22), (2, 3, K23), (3, 2, K32)):
            for k in range(0, 4):
                for i in range(1, n):
                    F = K.poly_from_rows(f_factor(K, d, n, k, i))
                    assert F.degree == d**k * (d - 1)
                    assert F.is_monic()

    def test_d3_definitional_cross_check(self):
        # for d = 3: f^(k+1) - a_(i+1) = (f^k - a_i)((f^k)^2 + a_i f^k + a_i^2)
        for k in range(0, 3):
            i = 1
            fk = iterate(K32, 3, k)
            a_i = Poly.constant(K32, orbit_value(K32, 3, i))
            expected = fk * fk + a_i * fk + a_i * a_i
            assert K32.poly_from_rows(f_factor(K32, 3, 2, k, i)) == expected

    def test_index_validation(self):
        with pytest.raises(ValueError):
            f_factor(K22, 2, 2, 1, 2)  # i must be < n

    @pytest.mark.parametrize(
        "d, n, kmax", [(2, 3, 7), (3, 2, 4), (5, 2, 2)]
    )
    def test_geometric_sum_matches_exact_division(self, d, n, kmax):
        K = nf_new(gleason(d, n))
        for k in range(kmax):
            for i in range(1, n):
                expected = f_factor_by_division(K, d, n, k, i)
                assert f_factor(K, d, n, k, i) == as_rows(expected)[0]

    def test_wrong_period_is_shape_violation(self):
        # K22 has period 2, so a_3 = a_1 != 0 breaks the period-3 relation
        with pytest.raises(ShapeViolation):
            f_factor(K22, 2, 3, 1, 2)


class TestFactorization:
    def test_entry_labels_k3(self):
        product = iterate_factorization(K22, 2, 2, 3)
        labels = [(e.label, e.exp) for e in product.entries]
        assert labels == [("F(2,1)", 1), ("linear", 2), ("F(0,1)", 2)]

    def test_verify_all_small_cases(self):
        for d, n, K, kmax in ((2, 2, K22, 6), (2, 3, K23, 6), (3, 2, K32, 4)):
            for k in range(1, kmax + 1):
                product = iterate_factorization(K, d, n, k)
                cert = verify_factorization(product)
                assert cert.verdict is Verdict.VERIFIED, (d, n, k, cert.witnesses)
                assert product.distinct_count == k - k // n + 1

    @pytest.mark.parametrize(
        "K, d, n, kmax",
        # criterion 3's ranges; (2, 4) to the benchmark's k, (5, 2) to degree 625
        [(K22, 2, 2, 10), (K23, 2, 3, 10), (K24, 2, 4, 8), (K32, 3, 2, 5),
         (K52, 5, 2, 4)],
    )
    def test_row_tree_matches_left_to_right_product(self, K, d, n, kmax):
        for k in range(1, kmax + 1):
            product = iterate_factorization(K, d, n, k)
            left_to_right = Poly.one(K)
            for e in product.entries:
                left_to_right = left_to_right * K.poly_from_rows(e.rows, e.den) ** e.exp
            rows, den = product.expanded_rows()
            assert den == 1 and expand(product) == left_to_right == iterate(K, d, k)
            assert rows == iterate_rows(K, d, k), (d, n, k)

    def test_modular_prime_has_residue_degree_one(self):
        # the first backend-A prime above 3 is inert on (2, 3) and (2, 4)
        for K, d, n, prime in ((K22, 2, 2, 3), (K23, 2, 3, 5), (K24, 2, 4, 13),
                               (K32, 3, 2, 5)):
            cert = verify_factorization(iterate_factorization(K, d, n, 4))
            (w,) = [w for w in cert.witnesses if w["step"] == "pairwise-coprime"]
            assert w["modular_prime"] == prime and w["exact_fallbacks"] == 0
            P = next(P for P in primes_above(K, prime) if P.residue_degree == 1)
            assert P.backend == "A"

    def test_exact_route_without_a_degree_one_prime(self, monkeypatch):
        # 3 is inert in the cubic field of (2, 3): no prime of degree 1 is left
        monkeypatch.setattr(factoring, "COPRIME_PRIMES", (3,))
        cert = verify_factorization(iterate_factorization(K23, 2, 3, 5))
        assert cert.verdict is Verdict.VERIFIED
        (w,) = [w for w in cert.witnesses if w["step"] == "pairwise-coprime"]
        assert w["modular_prime"] is None
        assert w["exact_fallbacks"] == w["pairs"] == 10

    def test_verify_reaches_no_poly_arithmetic(self, monkeypatch):
        # with a degree-1 prime, the check runs on integer rows and F_p lists
        for K, d, n, k in ((K23, 2, 3, 6), (K24, 2, 4, 5)):
            product = iterate_factorization(K, d, n, k)
            verify_factorization(product)  # fills the per-field prime cache
            with monkeypatch.context() as m:
                def forbidden(*args, **kwargs):
                    raise AssertionError("reached from verify_factorization")

                m.setattr(Poly, "__mul__", forbidden)
                m.setattr(NFElem, "__init__", forbidden)
                m.setattr(ExtField, "__init__", forbidden)
                m.setattr(numfield, "reduce_poly_mod_prime", forbidden)
                m.setattr(factoring, "reduce_poly_mod_prime", forbidden, raising=False)
                m.setattr(polyring, "gcd_poly", forbidden)
                m.setattr(factoring, "gcd_poly", forbidden)
                cert = verify_factorization(product)
            assert cert.verdict is Verdict.VERIFIED

    def test_non_integral_factor_refuted(self):
        product = iterate_factorization(K23, 2, 3, 4)
        half = K23.from_rational(Fraction(1, 2))
        e = product.entries[0]
        rows, den = add_constant((e.rows, e.den), half)
        bad = replace(product, entries=(
            replace(e, rows=rows, den=den), *product.entries[1:]
        ))
        cert = verify_factorization(bad)
        assert cert.verdict is Verdict.REFUTED
        assert cert.witnesses == [{"step": "product-mismatch", "degree": 16}]
        zero = replace(product, entries=(replace(e, rows=[]), *product.entries[1:]))
        cert = verify_factorization(zero)
        assert cert.witnesses == [{"step": "product-mismatch", "degree": -1}]

    def test_common_denominator_is_carried(self):
        # 2 F * (F' / 2) keeps the identity: a factorization over K, Verified
        product = iterate_factorization(K23, 2, 3, 4)
        a, b, *rest = product.entries
        twice = [[2 * x for x in row] for row in a.rows]
        scaled = replace(product, entries=(
            replace(a, rows=twice), replace(b, den=2), *rest
        ))
        assert scaled.expanded_rows()[1] == 2
        cert = verify_factorization(scaled)
        assert cert.verdict is Verdict.VERIFIED
        assert {"step": "product-identity", "degree": 16} in cert.witnesses

    def test_image_mod_matches_reduce_poly_mod_prime(self):
        for K, d, n, k, p in ((K22, 2, 2, 5, 3), (K23, 2, 3, 5, 5), (K24, 2, 4, 4, 13),
                              (K32, 3, 2, 3, 5)):
            P = next(P for P in primes_above(K, p) if P.residue_degree == 1)
            for e in iterate_factorization(K, d, n, k).entries:
                image = factoring._image_mod((e.rows, e.den), P)
                assert image == list(reduce_poly_mod_prime((e.rows, e.den), P).coeffs)
        # no image when a coefficient has a pole at P or the degree drops
        P = next(P for P in primes_above(K23, 5) if P.residue_degree == 1)
        x = Poly.x(K23)
        fifth = Poly.constant(K23, K23.from_rational(Fraction(1, 5)))
        five = Poly.constant(K23, K23.from_int(5))
        assert factoring._image_mod(as_rows(x + fifth), P) is None
        assert factoring._image_mod(as_rows(x * five + Poly.one(K23)), P) is None

    def test_duplicated_factor_is_common_factor(self):
        # linear^2 split into two labels of exponent 1: the identity holds
        product = iterate_factorization(K22, 2, 2, 3)
        linear = next(e for e in product.entries if e.label == "linear")
        assert linear.exp == 2
        entries = [e for e in product.entries if e is not linear]
        entries += [replace(linear, exp=1), replace(linear, label="copy", exp=1)]
        cert = verify_factorization(replace(product, entries=tuple(entries)))
        assert cert.verdict is Verdict.REFUTED
        assert cert.witnesses[-1] == {
            "step": "common-factor", "labels": ["copy", "linear"], "gcd": "x + 1",
        }

    def test_label_filed_twice_is_refuted(self):
        # linear^2 (x-1)^2 F(2,1) = f^3 with one x + 1 filed under F(0,1):
        # the identity and the label count hold, the labels do not
        product = iterate_factorization(K22, 2, 2, 3)
        entry = {e.label: e for e in product.entries}
        linear, f01 = entry["linear"], entry["F(0,1)"]
        assert (linear.exp, f01.exp) == (2, 2)
        entries = (
            entry["F(2,1)"], replace(linear, exp=1), f01,
            replace(f01, rows=linear.rows, den=linear.den, exp=1),
        )
        cert = verify_factorization(replace(product, entries=entries))
        assert cert.verdict is Verdict.REFUTED
        assert cert.witnesses[0]["step"] == "product-identity"
        assert cert.witnesses[-1] == {"step": "label-conflict", "label": "F(0,1)"}

    def test_tampered_product_refuted(self):
        product = iterate_factorization(K22, 2, 2, 3)
        bad_entries = list(product.entries)
        bad_entries[0] = FactorEntry(
            label=bad_entries[0].label,
            rows=add_constant((bad_entries[0].rows, 1), K22.one)[0],
            exp=bad_entries[0].exp,
            params=bad_entries[0].params,
        )
        bad = FactorProduct(
            field=K22, d=2, n=2, k=3, entries=tuple(bad_entries)
        )
        assert verify_factorization(bad).verdict is Verdict.REFUTED


class TestEisenstein:
    def test_verified_example(self):
        (P,) = primes_above(K32, 3)
        h = add_constant((iterate_rows(K32, 3, 2), 1), K32.from_int(-3))
        cert = eisenstein_certificate(h, P)
        assert cert.verdict is Verdict.VERIFIED

    def test_refuted_constant(self):
        (P,) = primes_above(K32, 3)
        h = Poly.x(K32) ** 2 - Poly.one(K32)
        assert eisenstein_certificate(as_rows(h), P).verdict is Verdict.REFUTED


# the seven fields of the deep-iterate benchmark: (field, d, largest N)
DEEP_FIELDS = [
    pytest.param(KM21, 2, 6, id="m21-A-split"),
    pytest.param(KM22, 2, 6, id="m22-B-e2"),
    pytest.param(KM31, 2, 6, id="m31-B-e3"),
    pytest.param(K22, 2, 6, id="g22-A-split"),
    pytest.param(K23, 2, 6, id="g23-A-inert"),
    pytest.param(K32, 3, 4, id="g32-A-inert"),
    pytest.param(KM321, 3, 4, id="m321-B-e4"),
]


def residue_image(x, P):
    """The image of an integral x in the residue ring of P, by definition."""
    G, _, q = residue_ring(P)
    num = Poly(ZZ, x.num).compose(Poly.from_ints(ZZ, [P.gen_shift, 1]))
    return reduce_monic(list(num.coeffs), G, q)


def uniformizer(K, P):
    return K.from_int(P.p) if P.backend == "A" else K.gen() - K.from_int(P.gen_shift)


def expects_fallback(h, P):
    """The truncated certificate must fall back to the exact f^N - alpha
    exactly when the constant has valuation 1 and no nonzero middle
    coefficient has a valuation below the cutoff (T for A, e*T for B)."""
    const = valuation(h.constant_term, P)
    if const.infinite or not const.exact or const.value != 1:
        return False
    cutoff = P.T * P.ramification
    for cf in h.coeffs[1:-1]:
        if not cf.is_zero:
            v = valuation(cf, P)
            if v.exact and v.value < cutoff:
                return False
    return True


@contextmanager
def exact_iterate_calls():
    """Records (d, k) of every exact f^k the library builds in ``factoring``
    (``iterate_rows``)."""
    calls = []

    def spy(fieldK, d, k, *rest):
        calls.append((d, k))
        return iterate_rows(fieldK, d, k, *rest)

    factoring.iterate_rows = spy
    try:
        yield calls
    finally:
        factoring.iterate_rows = iterate_rows


def assert_matches_exact(K, d, N, alpha, P):
    """Truncated and exact Eisenstein certificates agree, and the exact
    iterate is built only when the fallback rule says so."""
    with exact_iterate_calls() as calls:
        fast = iterate_eisenstein_certificate(K, d, N, alpha, P)
    h = iterate(K, d, N) - Poly.constant(K, alpha)
    exact = eisenstein_certificate(as_rows(h), P)
    where = (K, d, N, str(alpha), P, P.T)
    assert fast.claim == exact.claim, where
    assert fast.verdict is exact.verdict, where
    assert fast.witnesses == exact.witnesses, where
    assert bool(calls) == expects_fallback(h, P), where
    assert calls in ([], [(d, N)]), where
    return fast, bool(calls)


class TestTruncatedEisenstein:
    @pytest.mark.parametrize("K, d, kmax", DEEP_FIELDS)
    @pytest.mark.parametrize("T", [1, 3])
    def test_residue_rows_are_images_of_exact(self, K, d, kmax, T):
        for P in primes_above(K, d, T):
            for k in range(kmax + 1):
                exact = iterate(K, d, k)
                assert residue_iterate(d, k, P) == [
                    residue_image(cf, P) for cf in exact.coeffs
                ], (K, P, k)

    @pytest.mark.parametrize("K, d, kmax", DEEP_FIELDS)
    def test_witnesses_match_exact(self, K, d, kmax):
        fallbacks = fast_paths = 0
        for T in (1, 2, 3):
            for P in primes_above(K, d, T):
                for N in range(1, kmax + 1):
                    a_N = orbit_value(K, d, N)
                    pi = uniformizer(K, P)
                    for alpha in (
                        K.from_int(5 * d), K.from_int(7 * d * d),
                        a_N - pi, a_N - pi * (K.one + K.gen()),
                    ):
                        _, fell_back = assert_matches_exact(K, d, N, alpha, P)
                        fallbacks += fell_back
                        fast_paths += not fell_back
        # both routes are exercised on every field
        assert fallbacks and fast_paths

    def test_criterion_5_fields(self):
        for K, d, N, alpha in ((KM21, 2, 12, 4), (K32, 3, 6, 3)):
            (P,) = primes_above(K, d)
            cert, fell_back = assert_matches_exact(K, d, N, K.from_int(alpha), P)
            assert cert.verdict is Verdict.VERIFIED and not fell_back

    def test_degree_one_iterate_takes_exact_path(self):
        (P,) = primes_above(KM21, 2)
        cert, fell_back = assert_matches_exact(KM21, 2, 1, KM21.from_int(4), P)
        assert fell_back
        assert cert.verdict is Verdict.VERIFIED
        assert cert.witnesses[-1]["min_middle_valuation"] == "oo"

    def test_non_integral_alpha_rejected_like_exact_path(self):
        (P,) = primes_above(K32, 3)
        alpha = K32.from_rational(Fraction(3, 2))
        h = iterate(K32, 3, 2) - Poly.constant(K32, alpha)
        with pytest.raises(NotIntegral):
            eisenstein_certificate(as_rows(h), P)
        with pytest.raises(NotIntegral):
            iterate_eisenstein_certificate(K32, 3, 2, alpha, P)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        case=st.sampled_from(
            [(KM21, 2, 8), (KM22, 2, 8), (KM31, 2, 7), (K22, 2, 8), (K23, 2, 7),
             (K24, 2, 6), (K32, 3, 4), (KM321, 3, 4)]
        ),
        N=st.integers(1, 8),
        T=st.integers(1, 3),
        coeffs=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
        near_orbit=st.booleans(),
    )
    def test_random_integral_alpha(self, case, N, T, coeffs, near_orbit):
        K, d, kmax = case
        N = min(N, kmax)
        for P in primes_above(K, d, T):
            alpha = K.element(coeffs)
            if near_orbit:  # a_N - pi * alpha: the constant has valuation >= 1
                alpha = orbit_value(K, d, N) - uniformizer(K, P) * alpha
            assert_matches_exact(K, d, N, alpha, P)


def per_row_middle(rows, P):
    """The middle (index, Valuation) pairs read one row at a time."""
    return [
        (idx, Valuation.of(v))
        for idx, row in enumerate(rows, 1)
        if (v := row_valuation(row, P)) is not None
    ]


# two backend-A primes (split, inert) and two backend-B primes (e = 2, 3)
READER_FIELDS = [
    pytest.param(KM21, id="A-split"),
    pytest.param(K23, id="A-inert"),
    pytest.param(KM22, id="B-e2"),
    pytest.param(KM31, id="B-e3"),
]


def truncated_on_rows(K, P, rows, N=3):
    """``iterate_eisenstein_certificate`` with the middle residue rows of
    f^N replaced by ``rows``, at alpha = a_N - pi (constant valuation 1);
    returns the certificate and the exact iterates it built."""
    m = len(residue_ring(P)[0]) - 1
    alpha = orbit_value(K, 2, N) - uniformizer(K, P)
    padded = [[0] * m, *rows, [1] + [0] * (m - 1)]
    with exact_iterate_calls() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(factoring, "residue_iterate", lambda *_: padded)
        cert = iterate_eisenstein_certificate(K, 2, N, alpha, P)
    return cert, calls


class TestColumnGcdReader:
    """The least middle valuation from column gcds, against the per-row
    reader it replaces."""

    @pytest.mark.parametrize("K", READER_FIELDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_reader(self, K, data):
        for P in primes_above(K, 2):
            G, _, q = residue_ring(P)
            m = len(G) - 1
            entry = st.sampled_from([0, 0, 2, 4]) | st.integers(0, q - 1)
            row = st.lists(entry, min_size=m, max_size=m)
            rows = data.draw(st.lists(row, min_size=1, max_size=8))
            per_row = per_row_middle(rows, P)
            least = row_valuation([gcd(*col) for col in zip(*rows)], P)
            assert least == min((v.value for _, v in per_row), default=None)
            cert, calls = truncated_on_rows(K, P, rows)
            if not per_row:
                assert calls == [(2, 3)]
                continue
            old = _eisenstein_verdict(8, P, Valuation.of(1), per_row)
            assert calls == []
            assert (cert.verdict, cert.witnesses) == (old.verdict, old.witnesses)

    @pytest.mark.parametrize("K", READER_FIELDS)
    def test_all_zero_rows_take_exact_fallback(self, K):
        for P in primes_above(K, 2):
            m = len(residue_ring(P)[0]) - 1
            rows = [[0] * m] * 5
            assert row_valuation([gcd(*col) for col in zip(*rows)], P) is None
            _, calls = truncated_on_rows(K, P, rows)
            assert calls == [(2, 3)]

    def test_refuting_index_is_the_first(self):
        # rows 3 and 5 have valuation 0; the witness names row 3
        (P,) = primes_above(KM21, 2)
        cert, _ = truncated_on_rows(KM21, P, [[2], [0], [1], [2], [3]])
        assert cert.verdict is Verdict.REFUTED
        assert cert.witnesses[-1] == {
            "step": "middle-valuation", "index": 3, "valuation": "0",
        }

    def test_row_valuation_calls_do_not_grow_with_rows(self, monkeypatch):
        # f^10 - 4 has 2^10 - 1 middle rows; the truncated route reads them
        # through one row of column gcds
        calls = []

        def counting(row, P):
            calls.append(len(row))
            return row_valuation(row, P)

        monkeypatch.setattr(factoring, "row_valuation", counting)
        typ = exact_type(KM21, 2)
        with exact_iterate_calls() as exact:
            cert = stability_certificate(KM21, 2, typ, KM21.from_int(4), 10)
        assert cert.verdict is Verdict.VERIFIED and exact == []
        assert cert.witnesses[-1]["N"] == 10
        assert len(calls) <= 2


class TestStability:
    def test_truncated_route_builds_no_exact_iterate(self):
        typ = exact_type(KM21, 2)
        with exact_iterate_calls() as calls:
            cert = stability_certificate(KM21, 2, typ, KM21.from_int(4), 12)
        assert cert.verdict is Verdict.VERIFIED and calls == []

    def test_non_integral_alpha_is_hypothesis_unmet(self):
        typ = exact_type(K32, 3)
        alpha = K32.from_rational(Fraction(3, 2))  # v = 1 at the prime above 3
        with exact_iterate_calls() as calls:
            with pytest.raises(HypothesisUnmet, match="not an algebraic integer"):
                stability_certificate(K32, 3, typ, alpha, 3)
        assert calls == []

    def test_preperiodic_at_minus_two(self):
        typ = exact_type(KM21, 2)
        cert = stability_certificate(KM21, 2, typ, KM21.from_int(4), 12)
        assert cert.verdict is Verdict.VERIFIED
        assert any(w.get("N") == 12 for w in cert.witnesses)

    def test_periodic_d3(self):
        typ = exact_type(K32, 3)
        cert = stability_certificate(K32, 3, typ, K32.from_int(3), 6)
        assert cert.verdict is Verdict.VERIFIED
        assert any(w.get("p") == 3 for w in cert.witnesses)

    def test_hypothesis_unmet(self):
        typ = exact_type(K22, 2)
        with pytest.raises(HypothesisUnmet):
            stability_certificate(K22, 2, typ, K22.one, 4)


class TestIrreducibilityCerts:
    def test_primary_route_witnesses(self):
        cert = f_irreducibility_certificate(K22, 2, 2, 2, 1)
        assert cert.verdict is Verdict.VERIFIED
        steps = [w["step"] for w in cert.witnesses]
        assert "unramified" in steps and "unit-constant" in steps

    def test_all_factors_of_products(self):
        for d, n, K, k in ((2, 2, K22, 5), (2, 3, K23, 4), (3, 2, K32, 3)):
            product = iterate_factorization(K, d, n, k)
            certs = factor_product_certificates(product)
            for label, cert in certs.items():
                assert cert.verdict is Verdict.VERIFIED, (d, n, k, label)

    @pytest.mark.parametrize("k, i", [(1, 5), (1, 0), (1, 2), (-1, 1)])
    def test_out_of_range_factor_rejected(self, k, i):
        with pytest.raises(ValueError):
            f_irreducibility_certificate(K22, 2, 2, k, i)

    def test_no_fallback_on_gleason_fields(self):
        cert = f_irreducibility_certificate(K23, 2, 3, 3, 2)
        assert not any(w.get("fallback") for w in cert.witnesses)

    def test_fallback_route_verified(self):
        # budget 8 rules out f^4 for the primary route, not F(2, 1) of degree 4
        cert = f_irreducibility_certificate(K23, 2, 3, 2, 1, budget=8)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.witnesses == [
            {"step": "mod-prime-irreducible", "p": 3, "residue_degree": 3, "fallback": True}
        ]
        (P,) = primes_above(K23, 3)
        assert len(factor(reduce_poly_mod_prime((f_factor(K23, 2, 3, 2, 1), 1), P))) == 1

    def test_fallback_builds_the_factor_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return f_factor(*args, **kwargs)

        monkeypatch.setattr(factoring, "f_factor", counted)
        # no backend-A prime gives an irreducible reduction of F(5, 1)
        cert = f_irreducibility_certificate(K23, 2, 3, 5, 1, budget=64)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert len(calls) == 1


def by_expansion(product):
    """``verify_factorization`` with the telescoping proof switched off: the
    product is always multiplied out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factoring, "_telescopes", lambda *_: False)
        return verify_factorization(product)


def verify_counting_expansions(product):
    """``verify_factorization`` and the number of ``expanded_rows`` calls."""
    calls = []

    def spy(self):
        calls.append(self)
        return expanded_rows(self)

    expanded_rows = FactorProduct.expanded_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FactorProduct, "expanded_rows", spy)
        return verify_factorization(product), len(calls)


def without_period_check(K, d, n, k):
    """The closed form at a claimed period n that c0 does not have: every
    factor is the geometric sum, but the orbit relation at n fails."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factoring, "_orbit_relation", lambda *_: True)
        return iterate_factorization(K, d, n, k)


def scaled(e, factor=1, den=1):
    return replace(e, rows=[[factor * x for x in r] for r in e.rows], den=den)


def tampered_products():
    """{name: (product, telescopes)}: every tampered product of this file,
    and ones that each step of the telescoping proof must reject."""
    p3 = iterate_factorization(K22, 2, 2, 3)  # F(2,1), linear^2, F(0,1)^2
    p4 = iterate_factorization(K23, 2, 3, 4)  # F(3,2), F(2,1), linear^2, F(0,2)^2
    f21, linear, f01 = p3.entries
    a, b, lin4, last = p4.entries
    nonintegral = add_constant((a.rows, a.den), K23.from_rational(Fraction(1, 2)))
    plus_one = add_constant((f21.rows, 1), K22.one)[0]
    cases = {
        # the tampered products of TestFactorization
        "non-integral": (p4, (replace(a, rows=nonintegral[0], den=nonintegral[1]),
                              b, lin4, last), False),
        "zero-factor": (p4, (replace(a, rows=[]), b, lin4, last), False),
        "common-denominator": (p4, (scaled(a, 2), scaled(b, den=2), lin4, last), True),
        "duplicated-linear": (p3, (f21, f01, replace(linear, exp=1),
                                   replace(linear, label="copy", exp=1)), True),
        "label-filed-twice": (p3, (
            f21, replace(linear, exp=1), f01,
            replace(f01, rows=linear.rows, den=linear.den, exp=1)), False),
        "constant-plus-one": (p3, (replace(f21, rows=plus_one), linear, f01), False),
        # step 2: a scalar multiple; lambda = 1 over a denominator
        "den-only": (p4, (scaled(a, 3, den=3), b, lin4, last), True),
        # step 3: (2 linear)^2 with F(3,2)/4; then lambda^exp multiply to 2
        "lambda-with-exponent": (p4, (scaled(a, den=4), b, scaled(lin4, 2), last),
                                 True),
        "lambda-exponent-missed": (p4, (scaled(a, den=2), b, scaled(lin4, 2), last),
                                   False),
        "lambda-product-two": (p4, (scaled(a, 2), b, lin4, last), False),
        # (linear / 2)^2 with 4 F(3,2), then with 2 F(3,2)
        "den-with-exponent": (p4, (scaled(a, 4), b, scaled(lin4, den=2), last), True),
        "den-exponent-missed": (p4, (scaled(a, 2), b, scaled(lin4, den=2), last),
                                False),
        # step 4: one exponent changed, one factor dropped
        "exponent-changed": (p4, (a, b, lin4, replace(last, exp=3)), False),
        "factor-dropped": (p4, (b, lin4, last), False),
        # params that name no closed-form factor
        "label-params": (p4, (replace(a, params=("F", 1)), b, lin4, last), False),
        "index-zero": (p3, (f21, replace(linear, params=(0,)), f01), False),
        "m-at-k": (p4, (replace(a, params=(4, 1)), b, lin4, last), False),
        "m-past-budget": (p4, (replace(a, params=(20, 1)), b, lin4, last), False),
    }
    out = {
        name: (replace(base, entries=entries), telescopes)
        for name, (base, entries, telescopes) in cases.items()
    }
    # step 1: a claimed period that c0 does not have
    for K, n, k in ((K22, 3, 4), (K23, 2, 3), (K23, 2, 4)):
        out[f"period-{n}-claimed-k{k}"] = (without_period_check(K, 2, n, k), False)
    return out


TAMPERED = tampered_products()


class TestTelescoping:
    """The telescoping proof of the product identity, against the expansion
    it replaces (which stays as its fallback)."""

    @pytest.mark.parametrize(
        "K, d, n, kmax",
        [(K22, 2, 2, 10), (K23, 2, 3, 10), (K24, 2, 4, 8), (K32, 3, 2, 5),
         (K52, 5, 2, 4)],
    )
    def test_closed_form_telescopes_with_expansion_verdict(self, K, d, n, kmax):
        for k in range(1, kmax + 1):
            product = iterate_factorization(K, d, n, k)
            cert, expansions = verify_counting_expansions(product)
            assert expansions == 0, (d, n, k)
            expected = by_expansion(product)
            assert (cert.verdict, cert.witnesses) == (expected.verdict, expected.witnesses)
            assert cert.verdict is Verdict.VERIFIED

    @pytest.mark.parametrize("name", list(TAMPERED))
    def test_tampered_products_match_expansion(self, name):
        product, telescopes = TAMPERED[name]
        cert, expansions = verify_counting_expansions(product)
        expected = by_expansion(product)
        assert (cert.verdict, cert.witnesses) == (expected.verdict, expected.witnesses)
        assert expansions == (0 if telescopes else 1)
        assert factoring._telescopes(product, 4096) is telescopes

    def test_common_denominator_takes_telescoping_route(self):
        # the product of test_common_denominator_is_carried: 2 F * (F' / 2)
        product = iterate_factorization(K23, 2, 3, 4)
        a, b, *rest = product.entries
        twice = [[2 * x for x in row] for row in a.rows]
        product = replace(product, entries=(
            replace(a, rows=twice), replace(b, den=2), *rest
        ))
        cert, expansions = verify_counting_expansions(product)
        assert cert.verdict is Verdict.VERIFIED and expansions == 0

    def test_refutations_keep_their_witnesses(self):
        steps = {
            name: [w["step"] for w in verify_factorization(TAMPERED[name][0]).witnesses]
            for name in ("non-integral", "label-filed-twice", "duplicated-linear",
                         "period-3-claimed-k4")
        }
        assert steps == {
            "non-integral": ["product-mismatch"],
            "label-filed-twice": ["product-identity", "label-conflict"],
            "duplicated-linear": ["product-identity", "common-factor"],
            "period-3-claimed-k4": ["product-mismatch"],
        }

    def test_rewrite_rules(self):
        # S(m, 1) = (f^(m-1))^d only for m >= 1: S(0, 1) = x - c0 stays
        assert factoring._rewritten({(0, 1): 1, (3, 1): 1, (2, 3): -2}, 3, 2) == {
            (0, 1): 1,
        }
        assert factoring._rewritten({(1, 1): 1, (0, 3): 1}, 3, 3) == {(0, 3): 4}

    def test_k_11_builds_no_f_11(self):
        # the field keeps f^0, ..., f^10 for the factors; the proof adds none
        K = nf_new(gleason(2, 3))
        product = iterate_factorization(K, 2, 3, 11, budget=5000)
        assert len(K._iterates[2]) == 11
        cert = verify_factorization(product, budget=5000)
        assert cert.verdict is Verdict.VERIFIED and len(K._iterates[2]) == 11

    def test_budget_checked_before_telescoping(self):
        product = iterate_factorization(K23, 2, 3, 5)
        with pytest.raises(polyring.BudgetExceeded):
            verify_factorization(product, budget=16)
