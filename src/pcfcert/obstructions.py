"""Non-abelian obstruction certificates for iterated preimage towers.

The refutation engine: if the Galois tower over alpha were abelian, certain
explicit elements of K (or of small auxiliary extensions) would be squares.
An odd valuation at any constructible prime refutes squareness, so each case
driver assembles its element, computes the valuation, and either closes the
contradiction (Verified) or reports exactly which link failed.

Soundness note recorded in every certificate: for an irreducible polynomial
of odd degree with abelian Galois group, the group lies in the alternating
group, so the discriminant is a square.  That group-theoretic step is
consumed as stated; everything else is replayed by exact arithmetic.

Two drivers (the d > 2 routes through discriminant parities) recompute the
parity with the multiplicity-correct recursion

    disc(f^k - x0) = (-1)^(d^k(d-1)/2) * d^(d^k)
                     * disc(f^(k-1) - x0)^d * (f^k(0) - x0)^(d-1),

whose critical-factor exponent d - 1 is forced by the resultant oracle
(disc(x^3 + a) = -27 a^2).  When the parity argument does not close under
the correct exponent, the driver emits a PaperRouteMismatch diagnostic
instead of asserting the conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import Certificate, HypothesisUnmet, Unsupported, Verdict
from .factoring import iterate, stability_certificate
from .numfield import (
    DEFAULT_PRECISION,
    NFElem,
    NumberField,
    PrimeAboveD,
    irreducible_mod_prime,
    is_unit,
    nf_norm,
    prime_with_valuation,
    primes_above,
    valuation,
)
from .orbits import DEFAULT_DEGREE_BUDGET, ExactType, exact_type, orbit_value
from .polyring import Poly, discriminant, resultant

DEFAULT_ORACLE_LIMIT = 4

CASES = (
    "periodic-1",  # d = 2, n >= 3, v(alpha) = 1 at a prime above 2
    "periodic-2",  # d = 2, n >= 3, alpha = 0
    "periodic-3",  # d > 2, v(alpha) = 1 at a prime above d
    "periodic-4",  # d > 2, n >= 2, alpha = 0 (discriminant-parity route)
    "preperiodic-1",  # d = 2, n >= 3, v(alpha) >= 2
    "preperiodic-2",  # d > 2, v(alpha) >= 2 (discriminant-parity route)
)


class OracleMismatch(Exception):
    """The discriminant recursion disagrees with the resultant oracle."""


# -- discriminant recursion ---------------------------------------------------


@dataclass(frozen=True)
class DiscStep:
    k: int
    sign: int  # (-1)^(d^k(d-1)/2)
    d_exponent: int  # d^k, the power of d introduced at this step
    critical_factor: NFElem  # f^k(0) - x0, raised to the d-1 power
    value: NFElem  # disc(f^k - x0) after this step


@dataclass(frozen=True)
class DiscTrace:
    k: int
    x0: NFElem
    steps: tuple[DiscStep, ...]
    oracle_checked: tuple[int, ...]

    @property
    def value(self) -> NFElem:
        return self.steps[-1].value


def disc_iterate(
    fieldK: NumberField,
    d: int,
    x0: NFElem,
    k: int,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> DiscTrace:
    """disc(f^k - x0) by the multiplicative recursion, oracle cross-checked.

    Every step with d^j within the oracle budget is compared against the
    discriminant computed independently by resultant; any disagreement is
    fatal (it would mean the sign or the critical multiplicity is wrong).
    """
    if k < 1:
        raise ValueError("disc_iterate requires k >= 1")
    value = fieldK.one
    steps = []
    checked = []
    for j in range(1, k + 1):
        sign = -1 if (d**j * (d - 1) // 2) % 2 else 1
        crit = orbit_value(fieldK, d, j) - x0
        value = (
            fieldK.from_int(sign)
            * fieldK.from_int(d) ** (d**j)
            * value**d
            * crit ** (d - 1)
        )
        steps.append(
            DiscStep(k=j, sign=sign, d_exponent=d**j, critical_factor=crit, value=value)
        )
        if j <= oracle_limit:
            h = iterate(fieldK, d, j, budget) - Poly.constant(fieldK, x0)
            oracle = discriminant(h)
            if oracle != value:
                raise OracleMismatch(
                    f"recursion gives {value} at k={j}, resultant oracle gives {oracle}"
                )
            checked.append(j)
    return DiscTrace(k=k, x0=x0, steps=tuple(steps), oracle_checked=tuple(checked))


def relative_norm(h: Poly, P: Poly) -> NFElem:
    """Norm of P(beta) from K(beta) down to K, beta a root of monic h.

    Computed as resultant_x(h, P); the convention makes the norm of t - beta
    equal h(t), and the norm of beta itself (-1)^deg(h) * h(0).
    """
    if not h.is_monic():
        raise ValueError("relative_norm requires a monic minimal polynomial")
    if P.degree < 1:
        return P.constant_term ** h.degree if h.degree else h.ring.one
    return resultant(h, P)


# -- square-class refutation --------------------------------------------------


def _elem_data(x: NFElem) -> dict:
    return {"num": list(x.num), "den": x.den}


_AUX_PRIMES = (2, 3, 5, 7, 11, 13)
_MAX_PRECISION = 64


def _exact_valuation(fieldK: NumberField, x: NFElem, p: int, idx: int):
    """Valuation at the idx-th prime above p, raising precision until exact."""
    T = DEFAULT_PRECISION
    while True:
        P = primes_above(fieldK, p, T)[idx]
        v = valuation(x, P)
        if v.infinite or v.exact or T >= _MAX_PRECISION:
            return P, v
        T = min(_MAX_PRECISION, 2 * T + 2)


def nonsquare_certificate(
    fieldK: NumberField, beta: NFElem, primes: tuple[int, ...] = _AUX_PRIMES
) -> Certificate:
    """Certify beta is not a square in K via an odd valuation.

    Sound one-way test: an odd valuation at any prime refutes squareness;
    all-even findings prove nothing and yield Inconclusive.
    """
    if beta.is_zero:
        raise ValueError("nonsquare_certificate requires beta != 0")
    cert = Certificate(
        claim="beta not a square in K",
        verdict=Verdict.INCONCLUSIVE,
        taint=fieldK.assumed,
    )
    tried = []
    for p in primes:
        try:
            cand = primes_above(fieldK, p)
        except Unsupported:
            tried.append(f"p={p}:unsupported")
            continue
        for idx, P in enumerate(cand):
            P, v = _exact_valuation(fieldK, beta, p, idx)
            if v.exact and v.value % 2 == 1:
                cert.verdict = Verdict.VERIFIED
                cert.witness(
                    "odd-valuation",
                    p=p,
                    prime_index=idx,
                    backend=P.backend,
                    valuation=v.value,
                    element=_elem_data(beta),
                )
                return cert
            tried.append(f"p={p}#{idx}:v={v}")
    cert.diagnose("no odd valuation found at: " + ", ".join(tried))
    return cert


# -- ideal-power audit --------------------------------------------------------


@dataclass(frozen=True)
class IdealAudit:
    """Empirical exponent A with <a_i>^A = <d>, against both printed branches.

    The two branch formulas disagree with desk computations on every audited
    example, so the audit reports all three values and which (if either)
    printed branch the empirical exponent matches; nothing is asserted.
    """

    i: int
    a_emp: int | None
    a_printed_div: int  # printed formula for the n | m-1 branch
    a_printed_nondiv: int  # printed formula for the n ∤ m-1 branch
    branch_match: str  # "div", "nondiv", "both", "neither", "unit"
    norm_identity: bool | None  # |norm(a_i)|^A_emp == d^deg(g)
    unit_verified: bool | None  # n ∤ i case: a_i is a unit
    details: tuple  # per-prime (prime repr, v(a_i), v(d))


def ideal_power_audit(
    fieldK: NumberField, d: int, typ: ExactType, i: int
) -> IdealAudit:
    if typ.kind != "preperiodic":
        raise ValueError("ideal_power_audit applies to preperiodic parameters")
    if i < 1:
        raise ValueError(f"ideal_power_audit requires i >= 1, got {i}")
    m, n = typ.m, typ.n
    a_div = d ** (m - 1) * (d - 1)
    a_nondiv = (d ** (m - 1) - 1) * (d - 1)
    a_i = orbit_value(fieldK, d, i)
    if i % n != 0:
        return IdealAudit(
            i=i,
            a_emp=None,
            a_printed_div=a_div,
            a_printed_nondiv=a_nondiv,
            branch_match="unit",
            norm_identity=None,
            unit_verified=a_i.is_integral and is_unit(a_i),
            details=(),
        )
    primes = primes_above(fieldK, d)  # Unsupported propagates
    d_elem = fieldK.from_int(d)
    details = []
    ratios = set()
    ok = True
    for P in primes:
        va = valuation(a_i, P)
        vd = valuation(d_elem, P)
        details.append((repr(P), str(va), str(vd)))
        if not (va.exact and vd.exact) or va.value <= 0 or vd.value % va.value:
            ok = False
            continue
        ratios.add(vd.value // va.value)
    a_emp = ratios.pop() if ok and len(ratios) == 1 else None
    norm_identity = None
    if a_emp is not None:
        norm_identity = abs(nf_norm(a_i)) ** a_emp == d**fieldK.degree
        if not norm_identity:
            a_emp = None
    if a_emp is None:
        branch = "neither"
    elif a_emp == a_div and a_emp == a_nondiv:
        branch = "both"
    elif a_emp == a_div:
        branch = "div"
    elif a_emp == a_nondiv:
        branch = "nondiv"
    else:
        branch = "neither"
    return IdealAudit(
        i=i,
        a_emp=a_emp,
        a_printed_div=a_div,
        a_printed_nondiv=a_nondiv,
        branch_match=branch,
        norm_identity=norm_identity,
        unit_verified=None,
        details=tuple(details),
    )


# -- case drivers -------------------------------------------------------------


# (ok, need) arguments of prime_with_valuation for the case hypotheses
_V_IS_ONE = (lambda v: v.exact and v.value == 1, "= 1")
_V_AT_LEAST_TWO = (lambda v: not v.infinite and v.value >= 2, ">= 2")


def _unit_witness(cert: Certificate, label: str, x: NFElem) -> bool:
    if not x.is_integral or not is_unit(x):
        cert.diagnose(f"{label} is not an algebraic unit")
        return False
    cert.witness(
        "unit-norm", label=label, norm=str(nf_norm(x)), element=_elem_data(x)
    )
    return True


def _odd_valuation_witness(
    cert: Certificate, label: str, x: NFElem, P: PrimeAboveD, idx: int
) -> bool:
    P, v = _exact_valuation(P.field, x, P.p, idx)
    if not v.exact or v.value % 2 == 0:
        cert.diagnose(f"v({label}) = {v} is not odd: square class not refuted")
        return False
    cert.witness(
        "odd-valuation",
        label=label,
        p=P.p,
        prime_index=idx,
        backend=P.backend,
        valuation=v.value,
        element=_elem_data(x),
    )
    return True


def _stability_witness(cert: Certificate, fieldK, d, typ, alpha, k_max, budget) -> bool:
    """Stability of f^k - alpha for k <= k_max, recorded as a witness."""
    stab = stability_certificate(fieldK, d, typ, alpha, k_max, budget)
    cert.witness("stability", verdict=stab.verdict.value, claim=stab.claim)
    if not stab.verified:
        cert.diagnose("stability certificate did not verify")
    return stab.verified


def _norm_identities(cert: Certificate, fieldK, d, n, alpha, a_n, budget) -> bool:
    """Nm(beta) = a_(n-2) - alpha and Nm(f^2(0) - beta) = a_n - alpha, for
    beta a root of f^(n-2) - alpha (a_n = 0 for a period-n parameter)."""
    h = iterate(fieldK, d, n - 2, budget) - Poly.constant(fieldK, alpha)
    nm_beta = relative_norm(h, Poly.x(fieldK))
    if nm_beta != orbit_value(fieldK, d, n - 2) - alpha:
        cert.diagnose("norm identity for beta failed")
        return False
    f2_0 = orbit_value(fieldK, d, 2)
    nm_top = relative_norm(h, Poly.constant(fieldK, f2_0) - Poly.x(fieldK))
    if nm_top != a_n - alpha:
        cert.diagnose("norm identity for f^2(0) - beta failed")
        return False
    cert.witness(
        "norm-identity",
        identity="Nm(beta) = f^(n-2)(0) - alpha; Nm(f^2(0) - beta) = f^n(0) - alpha",
        values=[_elem_data(nm_beta), _elem_data(nm_top)],
    )
    return True


def _quartic_dichotomy(cert: Certificate, a_nm2, a_n, alpha, P, idx) -> None:
    """One of the two norms must be a square; odd valuations refute both."""
    elem1 = a_n - alpha
    ok1 = _odd_valuation_witness(cert, "f^n(0) - alpha", elem1, P, idx)
    ok2 = _odd_valuation_witness(
        cert, "(f^(n-2)(0) - alpha)(f^n(0) - alpha)", (a_nm2 - alpha) * elem1, P, idx
    )
    if ok1 and ok2:
        cert.verdict = Verdict.VERIFIED
        cert.witness(
            "contradiction",
            note="both square-class candidates of the quartic dichotomy refuted",
        )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisUnmet(msg)


def nonabelian_certificate(
    case: str,
    fieldK: NumberField,
    d: int,
    alpha: NFElem,
    typ: ExactType | None = None,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> Certificate:
    """Certify that the preimage-tower Galois group over alpha is non-abelian.

    Dispatches to one of six case drivers (see CASES).  Each driver first
    verifies the case hypotheses (HypothesisUnmet on failure, Unsupported
    when no valuation backend applies), then replays the contradiction chain
    with a full witness trail.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    driver = {
        "periodic-1": _case_periodic_1,
        "periodic-2": _case_periodic_2,
        "periodic-3": _case_periodic_3,
        "periodic-4": _case_periodic_4,
        "preperiodic-1": _case_preperiodic_1,
        "preperiodic-2": _case_preperiodic_2,
    }[case]
    return driver(fieldK, d, alpha, typ, budget)


def _new_cert(case: str, fieldK: NumberField, d: int, alpha: NFElem) -> Certificate:
    return Certificate(
        claim=f"nonabelian({case}, d={d}, alpha={alpha})",
        verdict=Verdict.INCONCLUSIVE,
        taint=fieldK.assumed,
    )


def _case_periodic_1(fieldK, d, alpha, typ, budget):
    # d = 2, period n >= 3, v(alpha) = 1 at a prime above 2
    _require(d == 2, "case periodic-1 requires d = 2")
    P, idx, _ = prime_with_valuation(alpha, 2, *_V_IS_ONE)
    typ = typ or exact_type(fieldK, d)
    _require(typ.kind == "periodic" and typ.n >= 3, "requires periodic type, n >= 3")
    n = typ.n
    cert = _new_cert("periodic-1", fieldK, d, alpha)
    cert.witness(
        "hypothesis-valuation", p=2, prime_index=idx, valuation=1,
        element=_elem_data(alpha),
    )
    if not (
        _stability_witness(cert, fieldK, d, typ, alpha, n, budget)
        and _norm_identities(cert, fieldK, d, n, alpha, fieldK.zero, budget)
    ):
        return cert
    _quartic_dichotomy(cert, orbit_value(fieldK, d, n - 2), fieldK.zero, alpha, P, idx)
    return cert


def _case_periodic_2(fieldK, d, alpha, typ, budget):
    # d = 2, period n >= 3, alpha = 0
    _require(d == 2, "case periodic-2 requires d = 2")
    _require(alpha.is_zero, "case periodic-2 requires alpha = 0")
    primes = primes_above(fieldK, 2)
    typ = typ or exact_type(fieldK, d)
    _require(typ.kind == "periodic" and typ.n >= 3, "requires periodic type, n >= 3")
    cert = _new_cert("periodic-2", fieldK, d, alpha)
    P, idx = primes[0], 0
    v2 = valuation(fieldK.from_int(2), P)
    if not (v2.exact and v2.value == 1):
        cert.diagnose("2 is not unramified at the constructed prime")
        return cert
    cert.witness("unramified", p=2, prime_index=idx, valuation_of_2=1)
    a1 = orbit_value(fieldK, d, 1)
    a2 = orbit_value(fieldK, d, 2)
    if not (_unit_witness(cert, "a_1", a1) and _unit_witness(cert, "a_2", a2)):
        return cert
    # the relevant quartic: f^2 + a_2 = x^4 + 2 a_1 x^2 + 2 a_2
    quartic = iterate(fieldK, d, 2, budget) + Poly.constant(fieldK, a2)
    found = irreducible_mod_prime(quartic, (3, 5, 7, 11, 13, 17, 19))
    if found is None:
        cert.diagnose("could not certify irreducibility of f^2 + a_2")
        return cert
    cert.witness("mod-prime-irreducible", label="f^2 + a_2", p=found[0], prime_index=found[1])
    # 2 a_2 has odd valuation, so the quartic's group would have to be Z/4
    if not _odd_valuation_witness(cert, "2 a_2", fieldK.from_int(2) * a2, P, idx):
        return cert
    # the Z/4 branch requires 4(a_1^2 - 2 a_2) * 2 a_2 to be a square
    elem = (
        fieldK.from_int(4)
        * (a1 * a1 - fieldK.from_int(2) * a2)
        * fieldK.from_int(2)
        * a2
    )
    if _odd_valuation_witness(cert, "4(a_1^2 - 2 a_2) * 2 a_2", elem, P, idx):
        cert.verdict = Verdict.VERIFIED
        cert.witness(
            "contradiction",
            note="cyclic-quartic branch condition refuted by odd valuation",
        )
    return cert


def _case_periodic_3(fieldK, d, alpha, typ, budget):
    # d > 2, v(alpha) = 1 at a prime above d
    _require(d > 2, "case periodic-3 requires d > 2")
    P, idx, _ = prime_with_valuation(alpha, d, *_V_IS_ONE)
    typ = typ or exact_type(fieldK, d)
    _require(typ.kind == "periodic", "requires periodic type")
    n = typ.n
    cert = _new_cert("periodic-3", fieldK, d, alpha)
    cert.witness(
        "hypothesis-valuation", p=d, prime_index=idx, valuation=1,
        element=_elem_data(alpha),
    )
    if not _stability_witness(cert, fieldK, d, typ, alpha, n, budget):
        return cert
    # smallest j > 1 with n not dividing j (deterministic choice)
    j = 2
    while j % n == 0:
        j += 1
    v_d = valuation(fieldK.from_int(d), P)
    a_j = orbit_value(fieldK, d, j)
    v_tail = valuation(a_j - alpha, P)
    if not (v_d.exact and v_tail.exact):
        cert.diagnose("valuations at the chosen prime not exact")
        return cert
    total = d**j * v_d.value + v_tail.value
    cert.witness(
        "disc-ratio-valuation",
        identity=f"v(d^(d^{j}) (f^{j}(0) - alpha)) = d^{j} v(d) + v(f^{j}(0) - alpha)",
        j=j,
        p=d,
        prime_index=idx,
        valuation=total,
        element=_elem_data(a_j - alpha),
    )
    if total % 2 == 1:
        cert.verdict = Verdict.VERIFIED
        cert.witness(
            "contradiction",
            note="discriminant ratio has odd valuation, refuting squareness",
        )
    else:
        cert.diagnose(f"valuation {total} is even: square class not refuted")
    return cert


def _case_periodic_4(fieldK, d, alpha, typ, budget):
    # d > 2, period n >= 2, alpha = 0: discriminant parity over L = K(zeta)
    _require(d > 2, "case periodic-4 requires d > 2")
    _require(alpha.is_zero, "case periodic-4 requires alpha = 0")
    typ = typ or exact_type(fieldK, d)
    _require(typ.kind == "periodic" and typ.n >= 2, "requires periodic type, n >= 2")
    n = typ.n
    cert = _new_cert("periodic-4", fieldK, d, alpha)
    if fieldK.disc_g % d == 0:
        raise Unsupported(f"d = {d} divides disc(g): unramifiedness unavailable")
    cert.witness("unramified", p=d, note="d does not divide disc(g)")
    a_prev = orbit_value(fieldK, d, n - 1)
    if not _unit_witness(cert, "a_(n-1)", a_prev):
        return cert
    # oracle check that the recursion (and so the d-1 exponent) is right
    trace = disc_iterate(fieldK, d, fieldK.zero, 2, oracle_limit=2, budget=budget)
    cert.witness("multiplicity-oracle", checked_k=list(trace.oracle_checked))
    # valuations at the prime of L = K(zeta) above d: v(d) = d - 1 (totally
    # ramified in Q(zeta), unramified in L / Q(zeta)); v((1-zeta) a_(n-1)) = 1
    k_top = 2 * n - 1
    parity = (d**k_top * (d - 1) + (d - 1) * 1) % 2
    cert.witness(
        "parity",
        identity=(
            f"v(disc ratio at k = {k_top}) = d^{k_top} * v(d) "
            f"+ (d-1) * v((1 - zeta) a_(n-1))"
        ),
        v_d=d - 1,
        critical_exponent=d - 1,
        parity=parity,
    )
    if parity == 1:
        cert.verdict = Verdict.VERIFIED
        cert.witness("contradiction", note="odd parity refutes squareness over L")
    else:
        cert.diagnose(
            "PaperRouteMismatch: with the multiplicity-correct critical exponent "
            f"d - 1 = {d - 1}, the discriminant-ratio valuation is even and the "
            "square-class contradiction does not close; the exponent-1 variant "
            "of the recursion (refuted by the resultant oracle) would give odd"
        )
    return cert


def _case_preperiodic_1(fieldK, d, alpha, typ, budget):
    # d = 2, eventual period n >= 3, v(alpha) >= 2
    _require(d == 2, "case preperiodic-1 requires d = 2")
    # the prime first: Unsupported propagates before any type work
    P, idx, v_alpha = prime_with_valuation(alpha, 2, *_V_AT_LEAST_TWO)
    typ = typ or exact_type(fieldK, d)
    _require(
        typ.kind == "preperiodic" and typ.n >= 3,
        "requires strictly preperiodic type with eventual period n >= 3",
    )
    n = typ.n
    cert = _new_cert("preperiodic-1", fieldK, d, alpha)
    cert.witness(
        "hypothesis-valuation", p=2, prime_index=idx, valuation=str(v_alpha),
        element=_elem_data(alpha),
    )
    a_n = orbit_value(fieldK, d, n)
    if not (
        _stability_witness(cert, fieldK, d, typ, alpha, n, budget)
        and _norm_identities(cert, fieldK, d, n, alpha, a_n, budget)
    ):
        return cert
    # v(a_n) = 1 (computed, not assumed) and v(alpha) >= 2 force v odd
    v_an = valuation(a_n, P)
    if not (v_an.exact and v_an.value == 1):
        cert.diagnose(f"v(a_n) = {v_an}, expected exactly 1 (squarefree input)")
        return cert
    cert.witness("orbit-valuation", label="a_n", p=2, valuation=1, element=_elem_data(a_n))
    a_nm2 = orbit_value(fieldK, d, n - 2)
    if _unit_witness(cert, "a_(n-2)", a_nm2):
        _quartic_dichotomy(cert, a_nm2, a_n, alpha, P, idx)
    return cert


def _case_preperiodic_2(fieldK, d, alpha, typ, budget):
    # d > 2, v(alpha) >= 2: parity of v(disc(f^(3n) - alpha))
    _require(d > 2, "case preperiodic-2 requires d > 2")
    P, idx, v_alpha = prime_with_valuation(alpha, d, *_V_AT_LEAST_TWO)
    typ = typ or exact_type(fieldK, d)
    _require(typ.kind == "preperiodic", "requires strictly preperiodic type")
    n = typ.n
    cert = _new_cert("preperiodic-2", fieldK, d, alpha)
    exact_two = v_alpha.exact and v_alpha.value == 2
    cert.witness(
        "hypothesis-valuation",
        p=d,
        prime_index=idx,
        valuation=str(v_alpha),
        reading=">= 2 (stated) " + ("and = 2 (used by the argument)" if exact_two else "but not exactly 2"),
        element=_elem_data(alpha),
    )
    v_d = valuation(fieldK.from_int(d), P)
    if not v_d.exact:
        cert.diagnose("v(d) not exact at the chosen prime")
        return cert
    cert.witness("d-valuation", p=d, valuation=v_d.value, parity=v_d.value % 2)
    # accumulate v(disc(f^k - alpha)) through the recursion, k = 1 .. 3n
    trace = disc_iterate(
        fieldK, d, alpha, min(2, 3 * n), oracle_limit=2, budget=budget
    )
    cert.witness("multiplicity-oracle", checked_k=list(trace.oracle_checked))
    v_disc = 0
    per_step = []
    for k in range(1, 3 * n + 1):
        v_crit = valuation(orbit_value(fieldK, d, k) - alpha, P)
        if not v_crit.exact:
            cert.diagnose(f"v(f^{k}(0) - alpha) not exact")
            return cert
        v_disc = d * v_disc + d**k * v_d.value + (d - 1) * v_crit.value
        per_step.append({"k": k, "v_crit": v_crit.value, "v_disc": v_disc})
    small_check = valuation(trace.value, P)
    if not (small_check.exact and small_check.value == per_step[trace.k - 1]["v_disc"]):
        raise OracleMismatch(
            f"accumulated valuation {per_step[trace.k - 1]['v_disc']} at k={trace.k} "
            f"disagrees with the oracle-checked trace value ({small_check})"
        )
    cert.witness(
        "disc-valuation",
        identity=(
            "v(disc(f^k - alpha)) = d * v(disc(f^(k-1) - alpha)) "
            "+ d^k * v(d) + (d-1) * v(f^k(0) - alpha)"
        ),
        critical_exponent=d - 1,
        steps=per_step,
        parity=v_disc % 2,
    )
    stab_note = None
    try:
        stab = stability_certificate(fieldK, d, typ, alpha, 3 * n, budget)
        stab_note = stab.verdict.value
        cert.witness("stability", verdict=stab.verdict.value, claim=stab.claim)
    except HypothesisUnmet as exc:
        cert.diagnose(f"stability route unavailable: {exc}")
    if v_disc % 2 == 1 and stab_note == Verdict.VERIFIED.value:
        cert.verdict = Verdict.VERIFIED
        cert.witness("contradiction", note="odd discriminant valuation refutes squareness")
    elif v_disc % 2 == 0:
        cert.diagnose(
            "PaperRouteMismatch: with the multiplicity-correct critical exponent "
            f"d - 1 = {d - 1}, v(disc(f^{3 * n} - alpha)) = {v_disc} is even and "
            "the square-class contradiction does not close; the exponent-1 "
            "variant (refuted by the resultant oracle) would make it odd"
        )
    return cert


# -- witness replay -----------------------------------------------------------


def replay_certificate(cert: Certificate, fieldK: NumberField) -> bool:
    """Re-run the recorded valuation and norm steps of a certificate.

    Only recorded steps are replayed (no fresh search); any recomputed value
    disagreeing with its record fails the replay.
    """
    for w in cert.witnesses:
        step = w["step"]
        x = fieldK.element(**w["element"]) if "element" in w else None
        if step == "odd-valuation":
            _, v = _exact_valuation(fieldK, x, w["p"], w["prime_index"])
            if not (v.exact and v.value == w["valuation"] and v.value % 2 == 1):
                return False
        elif step == "unit-norm":
            if not (x.is_integral and is_unit(x)):
                return False
        elif step == "hypothesis-valuation":
            P = primes_above(fieldK, w["p"])[w["prime_index"]]
            v = valuation(x, P)
            if str(v) != str(w["valuation"]) and v.value != w["valuation"]:
                return False
        elif step == "orbit-valuation":
            P = primes_above(fieldK, w["p"])[0]
            v = valuation(x, P)
            if not (v.exact and v.value == w["valuation"]):
                return False
    return True
