"""Polynomials over K as (rows, den): no Poly over K on the certificate
paths, and the row code against the Poly-over-K oracles it replaced."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    as_rows,
    f_factor_by_division,
    poly_discriminant,
    relative_norm_on_poly,
    structural_form_on_poly,
    structural_form_on_rows,
)
from pcfcert import factoring
from pcfcert.certificates import Certificate, Verdict
from pcfcert.factoring import (
    NotUnit,
    ShapeViolation,
    f_factor,
    f_irreducibility_certificate,
    iterate,
    iterate_factorization,
    iterate_rows,
    structural_form,
    verify_factorization,
)
from pcfcert.numfield import NotIntegral, NumberField, add_constant, nf_new
from pcfcert.obstructions import (
    _norm_identities,
    disc_iterate,
    nonabelian_certificate,
    relative_norm,
)
from pcfcert.orbits import ExactType, exact_type, gleason, misiurewicz, orbit_value
from pcfcert.polyring import PackedRows, Poly

K22 = nf_new(gleason(2, 2))
K23 = nf_new(gleason(2, 3))
K24 = nf_new(gleason(2, 4))
K32 = nf_new(gleason(3, 2))
KM21 = nf_new(misiurewicz(2, 2, 1)[1])  # c + 2
KM22 = nf_new(misiurewicz(2, 2, 2)[1])  # c^2 + 1
KQ4 = nf_new(misiurewicz(3, 2, 1)[1])  # c^4 + 3c^2 + 3

# (field, d, n, largest k)
GLEASON = [
    pytest.param(K22, 2, 2, 7, id="g22"),
    pytest.param(K23, 2, 3, 7, id="g23"),
    pytest.param(K24, 2, 4, 6, id="g24"),
    pytest.param(K32, 3, 2, 4, id="g32"),
]
# (field, d, largest k): the Gleason fields and three Misiurewicz fields
ALL_FIELDS = [
    pytest.param(K22, 2, 6, id="g22"),
    pytest.param(K23, 2, 6, id="g23"),
    pytest.param(K24, 2, 5, id="g24"),
    pytest.param(K32, 3, 3, id="g32"),
    pytest.param(KM21, 2, 6, id="m21"),
    pytest.param(KM22, 2, 5, id="m22"),
    pytest.param(KQ4, 3, 3, id="m321"),
]


def scalars(K):
    """Integral and non-integral elements of K."""
    c = K.gen()
    return [K.zero, K.from_int(3), K.from_rational(Fraction(1, 2)),
            (c * K.from_int(2) - K.one) * K.from_rational(Fraction(1, 3))]


@pytest.fixture
def no_poly_over_k(monkeypatch):
    """Poly.make raises on a NumberField ring while the fixture is active."""
    make = Poly.make

    def guarded(ring, coeffs):
        if isinstance(ring, NumberField):
            raise AssertionError("built a Poly over a number field")
        return make(ring, coeffs)

    monkeypatch.setattr(Poly, "make", staticmethod(guarded))


class TestNoPolyOverK:
    def test_guard_fires(self, no_poly_over_k):
        with pytest.raises(AssertionError, match="number field"):
            iterate(K23, 2, 2)

    @pytest.mark.parametrize("K, d, n, k", [(K23, 2, 3, 6), (K24, 2, 4, 5), (K32, 3, 2, 4)])
    def test_factorization_and_verification(self, no_poly_over_k, K, d, n, k):
        # the orbit route keeps every pair off the exact gcd
        cert = verify_factorization(iterate_factorization(K, d, n, k))
        assert cert.verdict is Verdict.VERIFIED
        (w,) = [w for w in cert.witnesses if w["step"] == "pairwise-coprime"]
        assert w["route"] == "orbit" and w["nonzero_orbit_values"] == n - 1

    def test_primary_irreducibility_route(self, no_poly_over_k):
        for K, d, n, k, i in ((K22, 2, 2, 4, 1), (K23, 2, 3, 3, 2), (K32, 3, 2, 2, 1)):
            cert = f_irreducibility_certificate(K, d, n, k, i)
            assert cert.verdict is Verdict.VERIFIED
            assert not any(w.get("fallback") for w in cert.witnesses)

    def test_fallback_irreducibility_route(self, no_poly_over_k):
        cert = f_irreducibility_certificate(K23, 2, 3, 2, 1, budget=8)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.witnesses[0]["fallback"] is True

    def test_disc_iterate(self, no_poly_over_k):
        for K, d in ((K23, 2), (KM21, 2), (K32, 3)):
            for x0 in scalars(K):
                trace = disc_iterate(K, d, x0, 3, oracle_limit=3)
                assert trace.oracle_checked == (1, 2, 3)

    @pytest.mark.parametrize("case, alpha", [("periodic-1", 6), ("periodic-2", 0)])
    def test_nonabelian_norm_and_quartic_routes(self, no_poly_over_k, case, alpha):
        cert = nonabelian_certificate(case, K23, 2, K23.from_int(alpha))
        assert cert.verdict is Verdict.VERIFIED, cert.diagnostics


class TestRowsOverDen:
    def test_label_conflict_compares_values(self):
        # one label filed twice: the same value over another den is no
        # conflict, the same rows over another den are
        product = iterate_factorization(K22, 2, 2, 3)
        e = product.entries[0]
        twice = [[2 * x for x in row] for row in e.rows]
        for other, conflict in ((replace(e, rows=twice, den=2), False),
                                (replace(e, den=2), True)):
            cert = Certificate(claim="labels", verdict=Verdict.VERIFIED)
            twice_filed = replace(product, entries=(e, other))
            ok = factoring._pairwise_coprime_witness(twice_filed, cert, False)
            assert ok is not conflict
            assert (cert.witnesses[-1]["step"] == "label-conflict") is conflict

    def test_residue_rows_leave_the_rows_unchanged(self):
        # reduce_monic overwrites its input; the factor rows must survive
        product = iterate_factorization(K23, 2, 3, 5)
        before = [[list(row) for row in e.rows] for e in product.entries]
        assert verify_factorization(product).verdict is Verdict.VERIFIED
        assert [e.rows for e in product.entries] == before
        assert verify_factorization(product).verdict is Verdict.VERIFIED


class TestAgainstPolyOracles:
    @pytest.mark.parametrize("K, d, n, kmax", GLEASON)
    def test_f_factor_is_the_exact_quotient(self, K, d, n, kmax):
        for k in range(kmax):
            for i in range(1, n):
                assert (f_factor(K, d, n, k, i), 1) == as_rows(
                    f_factor_by_division(K, d, n, k, i)
                ), (d, n, k, i)

    @pytest.mark.parametrize("K, d, kmax", ALL_FIELDS)
    def test_structural_form(self, K, d, kmax):
        typ = exact_type(K, d)
        for k in range(1, kmax + 1):
            assert form_outcome(K, d, k, typ) == oracle_outcome(K, d, k, typ), (typ, k)

    @pytest.mark.parametrize("K, d, kmax", ALL_FIELDS)
    def test_lean_structural_form(self, K, d, kmax):
        # residues mod d and orbit values against the exact rows of f^k
        typ = exact_type(K, d)
        for k in range(1, kmax + 1):
            exact = oracle_outcome(K, d, k, typ, structural_form_on_rows)
            assert lean_outcome(K, d, k, typ) == without_middle(exact), (typ, k)
            assert mod_d_rows(K, d, k) == [
                [x % d for x in row] for row in iterate_rows(K, d, k)
            ], (typ, k)

    @pytest.mark.parametrize("K, d, kmax", ALL_FIELDS)
    def test_lean_structural_form_at_claimed_types(self, K, d, kmax):
        # a claimed type the field may not have: the constant checks and the
        # unit residual fail alike (ShapeViolation, NotUnit, a zero a_i)
        for kind, m in (("periodic", 0), ("preperiodic", 2)):
            for n in (1, 2, 3, 5):
                typ = ExactType(kind=kind, n=n, m=m, witness=())
                for k in range(1, kmax + 1):
                    exact = oracle_outcome(K, d, k, typ, structural_form_on_rows)
                    assert lean_outcome(K, d, k, typ) == without_middle(exact), (typ, k)

    @pytest.mark.parametrize(
        "row, entry, delta",
        [(1, 0, 1), (2, 0, 1), (3, 0, 1), (3, -1, 1), (5, 0, 1), (-2, 0, 1)],
        ids=["degree-1", "not-divisible", "odd-middle", "last-entry", "row-5", "top-middle"],
    )
    @pytest.mark.parametrize("K, d", [(K23, 2), (KM21, 2), (K32, 3), (KQ4, 3)])
    def test_tampered_residues_fail_like_exact_rows(
        self, monkeypatch, K, d, row, entry, delta
    ):
        # the same change to f^3, in its exact rows and in its rows mod d
        typ = exact_type(K, d)
        cached = factoring._cached_iterate

        def tampered_mod_d(fieldK, key, d_, k, ring):
            packed = cached(fieldK, key, d_, k, ring)
            if key != ("mod", d_) or k != 3:
                return packed
            rows = packed.rows()
            rows[row][entry] = (rows[row][entry] + delta) % d_
            return PackedRows.pack(rows, packed.stride)

        with monkeypatch.context() as m:
            m.setattr(factoring, "_cached_iterate", tampered_mod_d)
            lean = lean_outcome(K, d, 3, typ)

        def tampered(fieldK, d_, k, *rest):
            rows = iterate_rows(fieldK, d_, k, *rest)
            rows[row][entry] += delta
            return rows

        monkeypatch.setattr(factoring, "iterate_rows", tampered)
        exact = oracle_outcome(K, d, 3, typ, structural_form_on_rows)
        assert lean == without_middle(exact)
        assert issubclass(lean[0], ShapeViolation)

    @pytest.mark.parametrize(
        "row, entry, delta",
        [(1, 0, 2), (2, 0, 1), (3, 0, 1), (2, 0, 2), (0, 0, 1)],
        ids=["degree-1", "not-divisible", "odd-middle", "divisible", "constant"],
    )
    @pytest.mark.parametrize("K, d", [(K23, 2), (KM21, 2)])
    def test_tampered_iterate_fails_alike(self, monkeypatch, K, d, row, entry, delta):
        def tampered(fieldK, d_, k, *rest):
            rows = iterate_rows(fieldK, d_, k, *rest)
            rows[row][entry] += delta
            return rows

        monkeypatch.setattr(factoring, "iterate_rows", tampered)
        typ = exact_type(K, d)
        new, old = form_outcome(K, d, 3, typ), oracle_outcome(K, d, 3, typ)
        assert new == old
        if row != 2 or delta != 2:  # an even middle change keeps the shape
            assert isinstance(new[0], type) and issubclass(new[0], ShapeViolation)

    @pytest.mark.parametrize("K, d", [(K22, 2), (K23, 2), (K24, 2), (K32, 3), (KM21, 2)])
    def test_disc_iterate(self, K, d):
        for x0 in scalars(K):
            trace = disc_iterate(K, d, x0, 3, oracle_limit=3)
            for step in trace.steps:
                h = iterate(K, d, step.k) - Poly.constant(K, x0)
                assert step.value == poly_discriminant(h), (K, d, x0, step.k)

    @pytest.mark.parametrize("K, d, j", [(K23, 2, 1), (K24, 2, 2), (K32, 3, 1), (KM22, 2, 2)])
    def test_relative_norm(self, K, d, j):
        x = Poly.x(K)
        for alpha in scalars(K):
            h = iterate(K, d, j) - Poly.constant(K, alpha)
            for P in (x, Poly.constant(K, orbit_value(K, d, 2)) - x,
                      x * x * Poly.constant(K, alpha) + Poly.constant(K, K.gen()),
                      Poly.constant(K, scalars(K)[3]), Poly.zero(K)):
                expected = relative_norm_on_poly(h, P)
                assert relative_norm(K, as_rows(h), as_rows(P)) == expected, (alpha, P)
        for h in (iterate(K, d, j) * Poly.constant(K, K.from_int(2)), Poly.zero(K)):
            with pytest.raises(ValueError, match="monic"):
                relative_norm_on_poly(h, x)
            with pytest.raises(ValueError, match="monic"):
                relative_norm(K, as_rows(h), as_rows(x))

    def test_norm_identities_with_non_integral_alpha(self):
        for K, d, n in ((K23, 2, 3), (K24, 2, 4)):
            for alpha in scalars(K):
                cert = Certificate(claim="norms", verdict=Verdict.INCONCLUSIVE)
                assert _norm_identities(cert, K, d, n, alpha, K.zero, 64), alpha
                nm_beta, nm_top = cert.witnesses[0]["values"]
                assert K.element(**nm_beta) == orbit_value(K, d, n - 2) - alpha
                assert K.element(**nm_top) == -alpha

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        K=st.sampled_from([K22, K23, K32, KQ4]),
        coeffs=st.lists(
            st.tuples(st.lists(st.integers(-20, 20), max_size=4), st.integers(1, 6)),
            min_size=1, max_size=5,
        ),
        x=st.tuples(st.lists(st.integers(-20, 20), max_size=4), st.integers(1, 6)),
    )
    def test_add_constant(self, K, coeffs, x):
        poly = Poly.make(K, [K.element(num, den) for num, den in coeffs] + [K.one])
        c = K.element(*x)
        rows, den = add_constant(as_rows(poly), c)
        assert K.poly_from_rows(rows, den) == poly + Poly.constant(K, c)


def form_outcome(K, d, k, typ):
    """The exact rows oracle, its middle as a Poly."""
    outcome = oracle_outcome(K, d, k, typ, structural_form_on_rows)
    if isinstance(outcome[0], type):
        return outcome
    middle, *rest = outcome
    return (K.poly_from_rows(middle), *rest)


FAILURES = (ShapeViolation, NotIntegral, NotUnit, ZeroDivisionError)


def oracle_outcome(K, d, k, typ, oracle=structural_form_on_poly):
    try:
        return oracle(K, d, k, typ)
    except FAILURES as exc:
        return type(exc), str(exc)


def lean_outcome(K, d, k, typ):
    """The package's structural form: (constant, constant index, unit
    residual), or (exception type, message)."""
    try:
        form = structural_form(K, d, k, typ)
    except FAILURES as exc:
        return type(exc), str(exc)
    return form.constant, form.const_index, form.unit_residual


def without_middle(outcome):
    """An oracle outcome as ``lean_outcome`` gives it."""
    return outcome if isinstance(outcome[0], type) else outcome[1:]


def mod_d_rows(K, d, k):
    """f^k in (Z/d)[c]/(g) as rows, from the chain the shape check reads."""
    structural_form(K, d, k, exact_type(K, d))
    return K._iterates[("mod", d)][k].rows()
