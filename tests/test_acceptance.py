"""Acceptance gate: nine exact-arithmetic criteria, one report line each.

Every check is exact (zero tolerance).  Each test prints a single
CRITERION line on success; a failure raises before the line is printed,
so the printed lines double as the machine-readable pass report.
"""

import json

import pytest

from oracles import expand
from pcfcert.certificates import HypothesisUnmet, Verdict
from pcfcert.cli import main
from pcfcert.factoring import (
    factor_certificates,
    iterate,
    iterate_factorization,
    stability_certificate,
    verify_factorization,
)
from pcfcert.numfield import is_eisenstein_at, nf_new
from pcfcert.obstructions import (
    disc_iterate,
    ideal_power_audit,
    nonabelian_certificate,
)
from pcfcert.orbits import exact_type, gleason, misiurewicz
from pcfcert.polyring import Poly, ZZ, discriminant


def zpoly(coeffs):
    return Poly.make(ZZ, coeffs)


def report(n, text):
    print(f"CRITERION {n}: PASS - {text}")


@pytest.fixture(scope="module")
def fields():
    return {
        "g22": nf_new(gleason(2, 2)),  # c + 1
        "g23": nf_new(gleason(2, 3)),  # c^3 + 2c^2 + c + 1
        "g32": nf_new(gleason(3, 2)),  # c^2 + 1 at d = 3
        "m21": nf_new(zpoly([2, 1])),  # c0 = -2
        "gauss": nf_new(zpoly([1, 0, 1])),  # c0 = i at d = 2
        "quartic": nf_new(misiurewicz(3, 2, 1)[1]),  # c^4 + 3c^2 + 3
    }


def test_criterion_1_gleason_table():
    assert gleason(2, 1) == zpoly([0, 1])
    assert gleason(2, 2) == zpoly([1, 1])
    assert gleason(2, 3) == zpoly([1, 1, 2, 1])
    assert gleason(3, 2) == zpoly([1, 0, 1])
    assert gleason(2, 4).degree == 6
    report(1, "gleason table exact; deg gleason(2,4) = 6")


def test_criterion_2_misiurewicz_table():
    assert misiurewicz(2, 2, 1)[1] == zpoly([2, 1])
    assert misiurewicz(2, 3, 1)[1] == zpoly([2, 2, 2, 1])
    assert misiurewicz(2, 2, 2)[1] == zpoly([1, 0, 1])
    cyc, norm = misiurewicz(3, 2, 1)
    assert cyc.coeffs == ((1, -1), (0, 0), (1, 0))  # c^2 + 1 - zeta
    assert norm == zpoly([3, 0, 3, 0, 1])
    assert is_eisenstein_at(norm, 3)
    report(2, "misiurewicz table exact; norm form Eisenstein at 3")


def test_criterion_3_factorization_identity(fields):
    cases = (
        (2, 2, fields["g22"], 10),
        (2, 3, fields["g23"], 10),
        (3, 2, fields["g32"], 5),
    )
    for d, n, K, kmax in cases:
        for k in range(1, kmax + 1):
            product = iterate_factorization(K, d, n, k)
            cert = verify_factorization(product)
            assert cert.verdict is Verdict.VERIFIED, (d, n, k, cert.witnesses)
            assert expand(product) == iterate(K, d, k)
            assert product.distinct_count == k - k // n + 1
    report(3, "factorization identity, coprimality, and count for all 25 cases")


def test_criterion_4_irreducibility_certificates(fields):
    cases = (
        (2, 2, fields["g22"], 10),
        (2, 3, fields["g23"], 10),
        (3, 2, fields["g32"], 5),
    )
    fallbacks = 0
    total = 0
    for d, n, K, kmax in cases:
        certs = factor_certificates(K, d, n, kmax)
        assert len(certs) == kmax - kmax // n + 1
        for label, cert in certs.items():
            total += 1
            assert cert.verdict is Verdict.VERIFIED, (d, n, label, cert.diagnostics)
            if any(w.get("fallback") for w in cert.witnesses):
                fallbacks += 1
    report(4, f"all {total} factor certificates Verified ({fallbacks} via fallback)")


def test_criterion_5_stability(fields):
    K = fields["m21"]
    cert = stability_certificate(K, 2, exact_type(K, 2), K.from_int(4), 12)
    assert cert.verdict is Verdict.VERIFIED
    assert any(w.get("N") == 12 for w in cert.witnesses)
    assert any(w.get("p") == 2 for w in cert.witnesses)

    K = fields["g32"]
    cert = stability_certificate(K, 3, exact_type(K, 3), K.from_int(3), 6)
    assert cert.verdict is Verdict.VERIFIED
    assert any(w.get("N") == 6 for w in cert.witnesses)
    assert any(w.get("p") == 3 for w in cert.witnesses)

    K = fields["g22"]
    with pytest.raises(HypothesisUnmet):
        stability_certificate(K, 2, exact_type(K, 2), K.one, 4)
    report(5, "stability Verified at N=12 and N=6; alpha=1 case HypothesisUnmet")


def test_criterion_6_disc_recursion(fields):
    # x0 = 0 and the stability alphas, on the stability fields
    cases = (
        (fields["g22"], 2, (0, 1)),
        (fields["m21"], 2, (0, 4)),
        (fields["g32"], 3, (0, 3)),
    )
    checked = 0
    for K, d, x0s in cases:
        for x0 in x0s:
            trace = disc_iterate(K, d, K.from_int(x0), 4, oracle_limit=4)
            assert trace.oracle_checked == (1, 2, 3, 4)
            checked += 4
    # the multiplicity exponent d - 1 is forced: disc(x^3 + a) = -27 a^2
    assert discriminant(zpoly([5, 0, 0, 1])) == -27 * 25
    report(6, f"disc recursion matches the resultant oracle at {checked} points")


def test_criterion_7_ideal_audit(fields):
    audit = ideal_power_audit(fields["m21"], 2, exact_type(fields["m21"], 2), 1)
    assert audit.a_emp == 1 and audit.norm_identity
    assert audit.branch_match == "nondiv"

    audit = ideal_power_audit(fields["gauss"], 2, exact_type(fields["gauss"], 2), 2)
    assert audit.a_emp == 2 and audit.norm_identity
    assert audit.branch_match == "div"

    audit = ideal_power_audit(fields["quartic"], 3, exact_type(fields["quartic"], 3), 1)
    assert audit.a_emp == 4 and audit.norm_identity
    assert audit.branch_match == "nondiv"

    from pcfcert.numfield import nf_norm

    assert nf_norm(fields["g23"].gen()) == -1
    report(7, "A_emp = 1, 2, 4 with branch flags; a_1 of the cubic has norm -1")


def test_criterion_8_nonabelian(fields, tmp_path):
    K = fields["g23"]
    cert = nonabelian_certificate("periodic-1", K, 2, K.from_int(2))
    assert cert.verdict is Verdict.VERIFIED
    odd = [w for w in cert.witnesses if w["step"] == "odd-valuation"]
    assert odd[0]["valuation"] == 1

    cert = nonabelian_certificate("periodic-2", K, 2, K.zero)
    assert cert.verdict is Verdict.VERIFIED
    assert [w for w in cert.witnesses if w["step"] == "odd-valuation"][-1]["valuation"] == 3

    K = fields["g32"]
    cert = nonabelian_certificate("periodic-3", K, 3, K.from_int(3))
    assert cert.verdict is Verdict.VERIFIED
    ratio = [w for w in cert.witnesses if w["step"] == "disc-ratio-valuation"][0]
    assert ratio["valuation"] == 27

    cert = nonabelian_certificate("periodic-4", K, 3, K.zero)
    assert cert.verdict is Verdict.VERIFIED or any(
        "PaperRouteMismatch" in msg for msg in cert.diagnostics
    )

    Kq = fields["quartic"]
    cert = nonabelian_certificate("preperiodic-2", Kq, 3, Kq.gen() ** 2)
    assert cert.verdict is Verdict.VERIFIED or any(
        "PaperRouteMismatch" in msg for msg in cert.diagnostics
    )

    path = tmp_path / "unsupported.json"
    path.write_text(json.dumps({"g": {"var": "c", "coeffs": ["3", "0", "1"]}}))
    code = main(
        ["nonabelian-cert", "--d", "2", "--field", str(path),
         "--case", "preperiodic-1", "--alpha", "4"]
    )
    assert code == 4
    report(8, "cases 1-3 Verified (odd valuations 1, 3, 27); parity drivers "
              "complete with PaperRouteMismatch; unsupported backend exits 4")


def test_criterion_9_determinism(capsys):
    argvs = (
        ["gleason", "--d", "2", "--n", "3", "--format", "json"],
        ["factor", "--d", "2", "--gleason-n", "2", "--k", "3", "--verify",
         "--format", "json", "--seed", "1"],
        ["stability-cert", "--d", "2", "--misiurewicz", "2,1", "--alpha", "4",
         "--kmax", "12", "--format", "json", "--seed", "1"],
        ["nonabelian-cert", "--d", "2", "--gleason-n", "3", "--case",
         "periodic-2", "--alpha", "0", "--format", "json", "--seed", "1"],
        ["ideal-audit", "--d", "3", "--misiurewicz", "2,1", "--i", "1",
         "--format", "json", "--seed", "1"],
    )
    for argv in argvs:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second and first
    report(9,"repeated runs produce byte-identical JSON for all sampled commands")
