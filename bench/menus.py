"""Request menus of the three workloads and the expected outcome of each.

Every request is one ``pcfcert`` command line.  Its expected outcome comes
from the paper and the acceptance criteria where they state a value (the
gleason/misiurewicz tables, criterion 6's oracle points, criterion 7's
A_emp = 1, 2, 4 and criterion 8's odd valuations 1, 3 and 27), from the
README exit-code contract for invalid input, and otherwise from the output
of the seed commit.  Values drawn from the seed (alpha, x0, kmax) stay
inside the hypothesis class of the claim, so the expected verdict does not
depend on the draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

EXIT_OK, EXIT_REFUTED, EXIT_INCONCLUSIVE, EXIT_USAGE, EXIT_UNSUPPORTED = range(5)

# Check(stdout) -> None when the response is as expected, else the reason.
Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Request:
    name: str  # template name; unique within a workload
    argv: tuple[str, ...]
    exits: frozenset[int]  # accepted exit codes
    check: Check | None = None
    # A defect present at the seed commit (ROADMAP item 4).  The request
    # still counts as failed while it fails; it does not make the run
    # incorrect, because it is not a regression.
    known_defect: bool = False


def _req(name, argv, exits, check=None, known_defect=False) -> Request:
    if isinstance(exits, int):
        exits = (exits,)
    return Request(name, tuple(str(a) for a in argv), frozenset(exits), check, known_defect)


# -- response checkers --------------------------------------------------------


def _text_cert(out: str) -> dict:
    """Parse the text rendering of a certificate into the JSON shape."""
    lines = out.rstrip("\n").split("\n")
    claim, _, verdict = lines[0].rpartition(": ")
    cert = {"claim": claim, "verdict": verdict, "witnesses": [], "diagnostics": []}
    for line in lines[1:]:
        if line.startswith("  witness "):
            cert["witnesses"].append(json.loads(line[len("  witness "):]))
        elif line.startswith("  note: "):
            cert["diagnostics"].append(line[len("  note: "):])
    return cert


def _witness(cert: dict, step: str, key: str, which: int):
    found = [w[key] for w in cert["witnesses"] if w.get("step") == step and key in w]
    return found[which] if found else None


def cert_is(verdict: str, text=False, witnesses=(), diagnostic=None) -> Check:
    """Certificate with the given verdict; ``witnesses`` holds
    (step, key, index, value) tuples; ``diagnostic`` a required substring."""

    def check(out):
        cert = _text_cert(out) if text else json.loads(out)
        if cert["verdict"] != verdict:
            return f"verdict {cert['verdict']}, expected {verdict}"
        for step, key, which, want in witnesses:
            got = _witness(cert, step, key, which)
            if got != want:
                return f"witness {step}.{key} = {got!r}, expected {want!r}"
        if diagnostic and not any(diagnostic in m for m in cert["diagnostics"]):
            return f"no {diagnostic} diagnostic"
        return None

    return check


def factor_is(d: int, n: int, k: int, text=False) -> Check:
    """Verified closed-form factorization: degree d^k, k - k//n + 1 factors."""
    count = k - k // n + 1

    def check(out):
        if text:
            got = out.rstrip("\n").split("\n")[-1]
            want = f"distinct factors: {count}"
            return None if got == want else f"{got!r}, expected {want!r}"
        data = json.loads(out)
        product, cert = data["product"], data["certificate"]
        degree = sum(f["exp"] * (len(f["poly"]["coeffs"]) - 1) for f in product["factors"])
        if cert["verdict"] != "Verified":
            return f"verification {cert['verdict']}"
        if degree != d**k:
            return f"factor degrees sum to {degree}, expected {d**k}"
        if product["count"] != count:
            return f"{product['count']} distinct factors, expected {count}"
        return None

    return check


def all_factors_verified(d: int, n: int, k: int) -> Check:
    """f-irred-cert over every factor: k - k//n + 1 certificates, all Verified."""
    count = k - k // n + 1

    def check(out):
        certs = json.loads(out)
        if len(certs) != count:
            return f"{len(certs)} factor certificates, expected {count}"
        bad = [label for label, c in certs.items() if c["verdict"] != "Verified"]
        return f"not Verified: {bad}" if bad else None

    return check


def text_is(expected: str) -> Check:
    def check(out):
        got = out.rstrip("\n")
        return None if got == expected else f"output {got[:80]!r}, expected {expected!r}"

    return check


def json_has(at=None, **expected) -> Check:
    """JSON fields with the given values, at the top level or under ``at``."""

    def check(out):
        data = json.loads(out)
        if at:
            data = data[at]
        for key, want in expected.items():
            if data[key] != want:
                return f"{key} = {data[key]!r}, expected {want!r}"
        return None

    return check


def disc_checked(k: int, text=False) -> Check:
    """The recursion agreed with the resultant oracle at k = 1 .. min(k, 4)."""
    points = list(range(1, min(k, 4) + 1))

    def check(out):
        if text:
            want = f"(oracle-checked at k = {points})"
            return None if out.rstrip("\n").endswith(want) else f"no {want!r}"
        got = json.loads(out)["oracle_checked"]
        return None if got == points else f"oracle_checked {got}, expected {points}"

    return check


def audit_is(a_emp: int, branch: str, text=False) -> Check:
    def check(out):
        if text:
            want = f"A_emp = {a_emp},"
            ok = want in out and out.rstrip("\n").endswith(f"match = {branch}")
            return None if ok else f"expected {want} match = {branch}"
        data = json.loads(out)
        got = (data["A_emp"], data["branch_match"], data["norm_identity"])
        return None if got == (a_emp, branch, True) else f"audit {got}, expected {(a_emp, branch, True)}"

    return check


# -- seeded draws -------------------------------------------------------------


def _unit_multiple(rng, d: int, power: int) -> int:
    """d^power * u for a nonzero u in [-30, 30]; d does not divide u when
    power is 1, so v(alpha) is exactly 1 at an unramified prime above d."""
    while True:
        u = rng.randint(-30, 30)
        if u and (power != 1 or u % d):
            return d**power * u


def _x0(rng) -> str:
    """disc-check base point: an integer or a linear element a*c + b."""
    if rng.random() < 0.5:
        return str(rng.randint(-9, 9))
    return f"{rng.randint(1, 5)}*c{rng.randint(-9, 9):+d}"


# -- workloads ----------------------------------------------------------------


def deep_iterate(rng, files) -> list[Request]:
    """stability-cert on seven fields with deg f^N in [512, 1024]."""
    # (d, field flag, alpha = d^power * u, kmax, witness N): N is the least
    # multiple of the eventual period that is at least kmax
    menu = (
        (2, ("--misiurewicz", "2,1"), 2, 10, 10),
        (2, ("--misiurewicz", "2,2"), 2, 9, 10),
        (2, ("--misiurewicz", "3,1"), 2, 9, 9),
        (2, ("--gleason-n", "2"), 1, 10, 10),
        (2, ("--gleason-n", "3"), 1, 9, 9),
        (3, ("--gleason-n", "2"), 1, 6, 6),
        (3, ("--misiurewicz", "2,1"), 2, 6, 6),
    )
    out = []
    for d, field, power, kmax, big_n in menu:
        out.append(_req(
            f"stability-d{d}-{field[1]}",
            ("stability-cert", "--d", d, *field, f"--alpha={_unit_multiple(rng, d, power)}",
             "--kmax", kmax, "--format", "json"),
            EXIT_OK,
            cert_is("Verified", witnesses=[("descent", "N", 0, big_n)]),
        ))
    return out


def factor_verify(rng, files) -> list[Request]:
    """factor --verify and f-irred-cert (all factors), JSON, on four fields."""
    out = []
    for d, n, k in ((2, 2, 9), (2, 3, 8), (2, 4, 8), (3, 2, 5)):
        field = ("--d", d, "--gleason-n", n, "--k", k)
        out.append(_req(f"factor-d{d}-n{n}", ("factor", *field, "--verify", "--format", "json"),
                        EXIT_OK, factor_is(d, n, k)))
        out.append(_req(f"irred-d{d}-n{n}", ("f-irred-cert", *field, "--format", "json"),
                        EXIT_OK, all_factors_verified(d, n, k)))
    return out


def cert_mix(rng, files) -> list[Request]:
    """Small requests over every subcommand, both formats, invalid inputs."""
    J = ("--format", "json")
    kmax = rng.randint(4, 6)
    pre = _unit_multiple(rng, 2, 2)
    return [
        # README examples (the stability example at a small kmax)
        _req("readme-gleason", ("gleason", "--d", 2, "--n", 3), EXIT_OK,
             text_is("c^3 + 2*c^2 + c + 1")),
        _req("readme-misiurewicz", ("misiurewicz", "--d", 3, "--m", 2, "--n", 1, *J), EXIT_OK,
             json_has(at="norm_form", coeffs=["3", "0", "3", "0", "1"])),
        _req("readme-factor", ("factor", "--d", 2, "--gleason-n", 2, "--k", 3, "--verify", *J),
             EXIT_OK, factor_is(2, 2, 3)),
        _req("readme-stability", ("stability-cert", "--d", 2, "--misiurewicz", "2,1",
                                  f"--alpha={pre}", "--kmax", kmax), EXIT_OK,
             cert_is("Verified", text=True, witnesses=[("descent", "N", 0, kmax)])),
        _req("readme-f-irred", ("f-irred-cert", "--d", 2, "--gleason-n", 2, "--k", 2, "--i", 1),
             EXIT_OK, cert_is("Verified", text=True)),
        _req("readme-disc", ("disc-check", "--d", 3, "--gleason-n", 2, f"--x0={_x0(rng)}",
                             "--k", 2), EXIT_OK, disc_checked(2, text=True)),
        _req("readme-audit", ("ideal-audit", "--d", 3, "--misiurewicz", "2,1", "--i", 1),
             EXIT_OK, audit_is(4, "nondiv", text=True)),
        _req("readme-nonabelian", ("nonabelian-cert", "--d", 2, "--gleason-n", 3,
                                   "--case", "periodic-2", "--alpha", 0), EXIT_OK,
             cert_is("Verified", text=True, witnesses=[("odd-valuation", "valuation", -1, 3)])),
        # criterion 6: recursion against the resultant oracle at k = 1..4
        *(_req(f"disc-{tag}", ("disc-check", "--d", d, *field, f"--x0={_x0(rng)}", "--k", 4, *J),
               EXIT_OK, disc_checked(4))
          for tag, d, field in (("g22", 2, ("--gleason-n", 2)),
                                ("m21", 2, ("--misiurewicz", "2,1")),
                                ("g32", 3, ("--gleason-n", 2)))),
        # criterion 7: A_emp = 1, 2, 4 with their branch flags
        _req("audit-m21", ("ideal-audit", "--d", 2, "--misiurewicz", "2,1", "--i", 1, *J),
             EXIT_OK, audit_is(1, "nondiv")),
        _req("audit-m22", ("ideal-audit", "--d", 2, "--misiurewicz", "2,2", "--i", 2, *J),
             EXIT_OK, audit_is(2, "div")),
        _req("audit-quartic", ("ideal-audit", "--d", 3, "--misiurewicz", "2,1", "--i", 1, *J),
             EXIT_OK, audit_is(4, "nondiv")),
        # criterion 8: the six case drivers
        _req("case-periodic-1", ("nonabelian-cert", "--d", 2, "--gleason-n", 3, "--case",
                                 "periodic-1", f"--alpha={_unit_multiple(rng, 2, 1)}", *J),
             EXIT_OK, cert_is("Verified", witnesses=[("odd-valuation", "valuation", 0, 1)])),
        _req("case-periodic-2", ("nonabelian-cert", "--d", 2, "--gleason-n", 3, "--case",
                                 "periodic-2", "--alpha", 0, *J),
             EXIT_OK, cert_is("Verified", witnesses=[("odd-valuation", "valuation", -1, 3)])),
        _req("case-periodic-3", ("nonabelian-cert", "--d", 3, "--gleason-n", 2, "--case",
                                 "periodic-3", f"--alpha={_unit_multiple(rng, 3, 1)}", *J),
             EXIT_OK,
             cert_is("Verified", witnesses=[("disc-ratio-valuation", "valuation", 0, 27)])),
        _req("case-periodic-4", ("nonabelian-cert", "--d", 3, "--gleason-n", 2, "--case",
                                 "periodic-4", "--alpha", 0, *J),
             EXIT_INCONCLUSIVE, cert_is("Inconclusive", diagnostic="PaperRouteMismatch")),
        _req("case-preperiodic-1", ("nonabelian-cert", "--d", 2, "--misiurewicz", "2,3",
                                    "--case", "preperiodic-1", "--alpha", 4, *J),
             EXIT_UNSUPPORTED),
        _req("case-preperiodic-2", ("nonabelian-cert", "--d", 3, "--misiurewicz", "2,1",
                                    "--case", "preperiodic-2", "--alpha", "c^2", *J),
             EXIT_INCONCLUSIVE, cert_is("Inconclusive", diagnostic="PaperRouteMismatch")),
        # the remaining subcommands, text and JSON
        _req("gleason-d3-n2", ("gleason", "--d", 3, "--n", 2, *J), EXIT_OK,
             json_has(coeffs=["1", "0", "1"])),
        _req("gleason-d2-n4", ("gleason", "--d", 2, "--n", 4, *J), EXIT_OK,
             json_has(coeffs=["1", "0", "2", "3", "3", "3", "1"])),
        _req("misiurewicz-d2-3-1", ("misiurewicz", "--d", 2, "--m", 3, "--n", 1), EXIT_OK,
             text_is("cyclotomic: c^3 + 2*c^2 + 2*c + 2\nnorm form: c^3 + 2*c^2 + 2*c + 2")),
        _req("orbit-d2-i4", ("orbit", "--d", 2, "--i", 4), EXIT_OK,
             text_is("c^8 + 4*c^7 + 6*c^6 + 6*c^5 + 5*c^4 + 2*c^3 + c^2 + c")),
        _req("orbit-d3-i3", ("orbit", "--d", 3, "--i", 3, *J), EXIT_OK,
             json_has(coeffs=["0", "1", "0", "1", "0", "3", "0", "3", "0", "1"])),
        _req("type-g23", ("exact-type", "--d", 2, "--gleason-n", 3), EXIT_OK,
             text_is("Periodic(3)")),
        _req("type-quartic", ("exact-type", "--d", 3, "--misiurewicz", "2,1", *J), EXIT_OK,
             json_has(kind="preperiodic", m=2, n=1)),
        _req("type-field-file", ("exact-type", "--d", 2, "--field", files["g23"]), EXIT_OK,
             text_is("Periodic(3)")),
        _req("verify-factor-g23", ("verify-factor", "--d", 2, "--gleason-n", 3, "--k", 4, *J),
             EXIT_OK, factor_is(2, 3, 4)),
        _req("factor-text-g32", ("factor", "--d", 3, "--gleason-n", 2, "--k", 2), EXIT_OK,
             factor_is(3, 2, 2, text=True)),
        _req("irred-all-g23", ("f-irred-cert", "--d", 2, "--gleason-n", 3, "--k", 4, *J),
             EXIT_OK, all_factors_verified(2, 3, 4)),
        _req("stability-g32", ("stability-cert", "--d", 3, "--gleason-n", 2,
                               f"--alpha={_unit_multiple(rng, 3, 1)}", "--kmax", 3, *J),
             EXIT_OK, cert_is("Verified", witnesses=[("descent", "N", 0, 4)])),
        # invalid input, expected codes from the README contract
        _req("bad-misiurewicz-d4", ("misiurewicz", "--d", 4, "--m", 2, "--n", 1),
             (EXIT_USAGE, EXIT_UNSUPPORTED), known_defect=True),
        _req("bad-gleason-d1", ("gleason", "--d", 1, "--n", 2),
             (EXIT_USAGE, EXIT_UNSUPPORTED), known_defect=True),
        _req("bad-f-irred-index", ("f-irred-cert", "--d", 2, "--gleason-n", 2, "--k", 1,
                                   "--i", 5), EXIT_USAGE, known_defect=True),
        _req("bad-gleason-d0", ("gleason", "--d", 0, "--n", 2), EXIT_USAGE, known_defect=True),
        _req("bad-alpha-zero-den", ("stability-cert", "--d", 2, "--gleason-n", 2,
                                    "--alpha", "1/0", "--kmax", 3), EXIT_USAGE,
             known_defect=True),
        _req("bad-alpha-unit", ("stability-cert", "--d", 2, "--gleason-n", 2, "--alpha", 1,
                                "--kmax", 4), EXIT_INCONCLUSIVE),
        _req("bad-two-fields", ("exact-type", "--d", 2, "--gleason-n", 2,
                                "--misiurewicz", "2,1"), EXIT_USAGE),
        _req("bad-unsupported-field", ("nonabelian-cert", "--d", 2, "--field", files["c2p3"],
                                       "--case", "preperiodic-1", "--alpha", 4),
             EXIT_UNSUPPORTED),
    ]


WORKLOADS = {
    "deep-iterate": deep_iterate,
    "factor-verify": factor_verify,
    "cert-mix": cert_mix,
}

# Field files written at set-up: {"g": {"coeffs": [...]}}, ascending.
FIELD_FILES = {
    "g23": [1, 1, 2, 1],  # c^3 + 2c^2 + c + 1, the period-3 field at d = 2
    "c2p3": [3, 0, 1],  # c^2 + 3: 2 ramified with no Eisenstein shift
}
