"""Discriminant recursion, square classes, ideal audit, case drivers."""

import pytest

from oracles import as_rows, poly_discriminant
from pcfcert.certificates import Certificate, HypothesisUnmet, Unsupported, Verdict
from pcfcert.numfield import nf_new, primes_above, valuation
from pcfcert.obstructions import (
    _norm_identities,
    disc_iterate,
    ideal_power_audit,
    nonabelian_certificate,
    nonsquare_certificate,
    relative_norm,
    replay_certificate,
)
from pcfcert.orbits import exact_type, gleason, misiurewicz, orbit_value
from pcfcert.polyring import Poly, ZZ


def field(coeffs):
    return nf_new(Poly.from_ints(ZZ, coeffs))


KQ = field([0, 1])  # Q as a degree-1 field (c0 = 0)
K22 = field([1, 1])
K23 = nf_new(gleason(2, 3))
K32 = nf_new(gleason(3, 2))
KM21 = field([2, 1])  # c0 = -2
KQ4 = nf_new(misiurewicz(3, 2, 1)[1])  # c^4 + 3c^2 + 3
KI = field([1, 0, 1])  # c0 = i at d = 2, type (2,2)


class TestDiscIterate:
    def test_base_examples(self):
        # disc(x^2 - 1) = 4 for c0 = -1
        trace = disc_iterate(K22, 2, K22.zero, 1)
        assert trace.value == K22.from_int(4)
        # disc(x^3 + i) = -27 i^2 = 27 for c0 = i
        trace = disc_iterate(K32, 3, K32.zero, 1)
        assert trace.value == K32.from_int(27)

    def test_repeated_root_vanishes(self):
        # d = 2, c0 = -1, k = 2: a_2 = 0, disc(x^4 - 2x^2) = 0
        trace = disc_iterate(K22, 2, K22.zero, 2)
        assert trace.value.is_zero

    def test_oracle_agreement_to_k4(self):
        from pcfcert.factoring import iterate

        for K, d in ((K22, 2), (KM21, 2), (K23, 2), (K32, 3)):
            for x0 in (K.zero, K.from_int(3)):
                kmax = 4 if d == 2 else 3
                trace = disc_iterate(K, d, x0, kmax, oracle_limit=kmax)
                assert trace.oracle_checked == tuple(range(1, kmax + 1))
                h = iterate(K, d, kmax) - Poly.constant(K, x0)
                assert trace.value == poly_discriminant(h)

    def test_d3_k4_oracle(self):
        # degree-81 discriminant: the heavyweight oracle case
        trace = disc_iterate(K32, 3, K32.from_int(3), 4, oracle_limit=4)
        assert trace.oracle_checked == (1, 2, 3, 4)


class TestRelativeNorm:
    def test_sqrt2(self):
        h = Poly.x(KQ) ** 2 - Poly.constant(KQ, KQ.from_int(2))
        assert relative_norm(KQ, as_rows(h), as_rows(Poly.x(KQ))) == KQ.from_int(-2)

    def test_degree_one(self):
        h = Poly.x(KQ) - Poly.constant(KQ, KQ.from_int(5))
        P = Poly.x(KQ) ** 2 + Poly.one(KQ)
        assert relative_norm(KQ, as_rows(h), as_rows(P)) == KQ.from_int(26)

    def test_shifted_evaluation_identity(self):
        # Nm(t - beta) at t = const equals h(const)
        for t in (-1, 0, 2, 7):
            h = Poly.x(KQ) ** 3 + Poly.constant(KQ, KQ.from_int(2)) * Poly.x(KQ) - Poly.one(KQ)
            P = Poly.constant(KQ, KQ.from_int(t)) - Poly.x(KQ)
            assert relative_norm(KQ, as_rows(h), as_rows(P)) == h(KQ.from_int(t))


class TestNonsquare:
    def test_trivial_examples(self):
        assert nonsquare_certificate(KQ, KQ.from_int(-2)).verdict is Verdict.VERIFIED
        assert nonsquare_certificate(KQ, KQ.from_int(9)).verdict is Verdict.INCONCLUSIVE

    def test_cubic_example_valuation_3(self):
        a1 = K23.gen()
        a2 = a1**2 + a1
        beta = K23.from_int(8) * (a1 * a1 - K23.from_int(2) * a2) * a2
        cert = nonsquare_certificate(K23, beta)
        assert cert.verdict is Verdict.VERIFIED
        assert cert.witnesses[0]["valuation"] == 3

    def test_soundness_squares_have_even_valuation(self):
        # at the witness prime of any Verified certificate, squares get even v
        cert = nonsquare_certificate(KQ, KQ.from_int(-2))
        w = cert.witnesses[0]
        P = primes_above(KQ, w["p"])[w["prime_index"]]
        for gamma in (KQ.from_int(6), KQ.from_int(10), KQ.from_int(-14)):
            v = valuation(gamma * gamma, P)
            assert v.exact and v.value % 2 == 0


class TestIdealAudit:
    def test_minus_two(self):
        audit = ideal_power_audit(KM21, 2, exact_type(KM21, 2), 1)
        assert audit.a_emp == 1
        assert (audit.a_printed_div, audit.a_printed_nondiv) == (2, 1)
        assert audit.branch_match == "nondiv"
        assert audit.norm_identity

    def test_gaussian(self):
        audit = ideal_power_audit(KI, 2, exact_type(KI, 2), 2)
        assert audit.a_emp == 2
        assert (audit.a_printed_div, audit.a_printed_nondiv) == (2, 1)
        assert audit.branch_match == "div"

    def test_quartic(self):
        audit = ideal_power_audit(KQ4, 3, exact_type(KQ4, 3), 1)
        assert audit.a_emp == 4
        assert (audit.a_printed_div, audit.a_printed_nondiv) == (6, 4)
        assert audit.branch_match == "nondiv"

    def test_unit_branch(self):
        audit = ideal_power_audit(KI, 2, exact_type(KI, 2), 1)
        assert audit.branch_match == "unit"
        assert audit.unit_verified

    def test_rejects_periodic(self):
        with pytest.raises(ValueError):
            ideal_power_audit(K22, 2, exact_type(K22, 2), 1)


class TestCaseDrivers:
    def test_periodic_1(self):
        cert = nonabelian_certificate("periodic-1", K23, 2, K23.from_int(2))
        assert cert.verdict is Verdict.VERIFIED
        odd = [w for w in cert.witnesses if w["step"] == "odd-valuation"]
        assert odd[0]["valuation"] == 1
        assert replay_certificate(cert, K23)

    def test_periodic_2(self):
        cert = nonabelian_certificate("periodic-2", K23, 2, K23.zero)
        assert cert.verdict is Verdict.VERIFIED
        final = [w for w in cert.witnesses if w["step"] == "odd-valuation"][-1]
        assert final["valuation"] == 3
        assert replay_certificate(cert, K23)

    def test_periodic_3(self):
        cert = nonabelian_certificate("periodic-3", K32, 3, K32.from_int(3))
        assert cert.verdict is Verdict.VERIFIED
        ratio = [w for w in cert.witnesses if w["step"] == "disc-ratio-valuation"][0]
        assert ratio["valuation"] == 27
        assert replay_certificate(cert, K32)

    def test_periodic_4_route_mismatch(self):
        cert = nonabelian_certificate("periodic-4", K32, 3, K32.zero)
        assert cert.verdict in (Verdict.VERIFIED, Verdict.INCONCLUSIVE)
        assert any("PaperRouteMismatch" in msg for msg in cert.diagnostics) or (
            cert.verdict is Verdict.VERIFIED
        )

    def test_preperiodic_1_unsupported_backend(self):
        K = field([3, 0, 1])  # no prime-above-2 backend
        with pytest.raises(Unsupported):
            nonabelian_certificate("preperiodic-1", K, 2, K.from_int(4))

    def test_preperiodic_2_route_mismatch(self):
        alpha = KQ4.gen() ** 2
        cert = nonabelian_certificate("preperiodic-2", KQ4, 3, alpha)
        assert cert.verdict in (Verdict.VERIFIED, Verdict.INCONCLUSIVE)
        assert any("PaperRouteMismatch" in msg for msg in cert.diagnostics) or (
            cert.verdict is Verdict.VERIFIED
        )
        # the driver records which hypothesis reading the chain used
        hyp = [w for w in cert.witnesses if w["step"] == "hypothesis-valuation"][0]
        assert "= 2" in hyp["reading"]

    def test_hypothesis_unmet_on_wrong_degree(self):
        with pytest.raises(HypothesisUnmet):
            nonabelian_certificate("periodic-3", K23, 2, K23.from_int(2))

    def test_norm_identities_record_values_with_nonzero_a_n(self):
        # the preperiodic-1 form (a_n != 0), which no Misiurewicz field reaches
        # yet; both identities hold for any c0, here c0 = -2 with n = 3
        cert = Certificate(claim="norms", verdict=Verdict.INCONCLUSIVE)
        alpha = KM21.from_int(4)
        a_n = orbit_value(KM21, 2, 3)
        assert _norm_identities(cert, KM21, 2, 3, alpha, a_n, 64)
        (w,) = cert.witnesses
        assert w["step"] == "norm-identity"
        assert w["values"] == [{"num": [-6], "den": 1}, {"num": [-2], "den": 1}]

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            nonabelian_certificate("periodic-9", K23, 2, K23.zero)
