"""Critical-orbit polynomials and parameter constructions."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import norm_form_oracle
from pcfcert.numfield import nf_new
from pcfcert.orbits import (
    BoundExceeded,
    CyclotomicIntegers,
    exact_type,
    gleason,
    misiurewicz,
    norm_form,
    orbit_poly,
    orbit_value,
)
from pcfcert.polyring import BudgetExceeded, Poly, ZZ


def zpoly(coeffs):
    return Poly.make(ZZ, coeffs)


class TestOrbitPolys:
    def test_first_orbit_polys(self):
        assert orbit_poly(2, 1) == zpoly([0, 1])  # c
        assert orbit_poly(2, 2) == zpoly([0, 1, 1])  # c^2 + c
        assert orbit_poly(2, 3) == zpoly([0, 1, 1, 2, 1])  # (c^2+c)^2 + c
        assert orbit_poly(3, 2) == zpoly([0, 1, 0, 1])  # c^3 + c

    def test_degree(self):
        for d in (2, 3):
            for i in (1, 2, 3, 4):
                assert orbit_poly(d, i).degree == d ** (i - 1)

    def test_recursion(self):
        c = Poly.x(ZZ)
        for d in (2, 3):
            for i in (1, 2, 3):
                assert orbit_poly(d, i + 1) == orbit_poly(d, i) ** d + c

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            orbit_poly(2, 20, budget=256)


class TestGleason:
    def test_table(self):
        assert gleason(2, 1) == zpoly([0, 1])
        assert gleason(2, 2) == zpoly([1, 1])
        assert gleason(2, 3) == zpoly([1, 1, 2, 1])
        assert gleason(3, 2) == zpoly([1, 0, 1])

    def test_degree_n4(self):
        assert gleason(2, 4).degree == 6

    def test_divisor_product_identity(self):
        # product over k | n of gleason(d, k) = a_n
        for d, n in ((2, 4), (2, 6), (3, 4)):
            prod = Poly.one(ZZ)
            for k in range(1, n + 1):
                if n % k == 0:
                    prod = prod * gleason(d, k)
            assert prod == orbit_poly(d, n)


class TestMisiurewicz:
    def test_d2_table(self):
        assert misiurewicz(2, 2, 1)[1] == zpoly([2, 1])
        assert misiurewicz(2, 3, 1)[1] == zpoly([2, 2, 2, 1])
        assert misiurewicz(2, 2, 2)[1] == zpoly([1, 0, 1])

    def test_d3_cyc_and_norm(self):
        cyc, norm = misiurewicz(3, 2, 1)
        R = cyc.ring
        assert isinstance(R, CyclotomicIntegers) and R.d == 3
        # c^2 + 1 - zeta
        assert cyc.coeffs == ((1, -1), (0, 0), (1, 0))
        assert norm == zpoly([3, 0, 3, 0, 1])

    def test_norm_form_eisenstein_at_3(self):
        from pcfcert.numfield import is_eisenstein_at

        assert is_eisenstein_at(misiurewicz(3, 2, 1)[1], 3)

    def test_requires_strict_preperiod(self):
        with pytest.raises(ValueError):
            misiurewicz(2, 1, 2)


@st.composite
def cyc_polys(draw):
    """Random polynomials over Z[zeta_d], d = 3 or 5, the zero one included."""
    R = CyclotomicIntegers(draw(st.sampled_from([3, 5])))
    coeff = st.lists(st.integers(-30, 30), min_size=R.width, max_size=R.width)
    return Poly.make(R, [tuple(c) for c in draw(st.lists(coeff, max_size=6))])


class TestNormForm:
    """The conjugate product against Res_z(Phi_d, .) by ``prs_resultant``."""

    @pytest.mark.parametrize(
        "d, m, n",
        [(3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 4, 1), (5, 2, 1), (5, 2, 2), (7, 2, 1)],
    )
    def test_misiurewicz(self, d, m, n):
        cyc, norm = misiurewicz(d, m, n)
        assert norm == norm_form_oracle(cyc)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(cyc_polys())
    @example(Poly.make(CyclotomicIntegers(5), [(0, 0, 0, 7)]))  # degree 0 in c
    def test_random(self, cyc):
        assert norm_form(cyc) == norm_form_oracle(cyc)


class TestExactType:
    def test_periodic_examples(self):
        K = nf_new(gleason(2, 2))
        assert str(exact_type(K, 2)) == "Periodic(2)"
        K = nf_new(gleason(3, 2))
        assert str(exact_type(K, 3)) == "Periodic(2)"

    def test_preperiodic_examples(self):
        K = nf_new(zpoly([2, 1]))  # c0 = -2
        t = exact_type(K, 2)
        assert (t.kind, t.m, t.n) == ("preperiodic", 2, 1)
        K = nf_new(zpoly([1, 0, 1]))  # c0 = i
        t = exact_type(K, 2)
        assert (t.kind, t.m, t.n) == ("preperiodic", 2, 2)
        K = nf_new(misiurewicz(3, 2, 1)[1])
        t = exact_type(K, 3)
        assert (t.kind, t.m, t.n) == ("preperiodic", 2, 1)

    def test_non_pcf_exceeds_bound(self):
        K = nf_new(zpoly([1, 1]))  # c0 = -1 under d = 3 is not PCF
        with pytest.raises(BoundExceeded):
            exact_type(K, 3, bound=16)

    def test_orbit_value_matches_specialized_poly(self):
        K = nf_new(gleason(2, 3))
        c0 = K.gen()
        for i in (1, 2, 3, 4):
            spec = orbit_poly(2, i).map_coeffs(K, K.from_int)(c0)
            assert orbit_value(K, 2, i) == spec


@given(st.integers(2, 3), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_orbit_poly_eval_consistency(d, i):
    # a_i(t) agrees with iterating the map numerically at integer points
    p = orbit_poly(d, i)
    for t in (-2, 0, 1, 2):
        val = 0
        for _ in range(i):
            val = val**d + t
        assert p(t) == val
