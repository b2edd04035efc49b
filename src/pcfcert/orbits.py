"""Critical-orbit polynomials a_i(c), Gleason and Misiurewicz parameters.

The critical orbit of x^d + c is a_1 = c, a_{i+1} = a_i^d + c.  Period-n
parameters are cut out by the Mobius-alternating product of the a_k over
divisors of n; strictly preperiodic parameters of type (m, n) by the
analogous product of a_{m+k-1} - zeta*a_{m-1} with coefficients in the
cyclotomic integers Z[zeta_d].  zeta is always the canonical class of z in
Z[z]/(1 + z + ... + z^(d-1)); no complex embedding is ever chosen.  The
rational norm form of such a product is the product of its d - 1 conjugates
under zeta -> zeta^a, taken with polyring.mul_rows over Z[zeta].

Every construction re-checks its defining identity, and a failed check
raises OracleMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import OracleMismatch
from .polyring import (
    BudgetExceeded,
    Poly,
    Ring,
    ZZ,
    mobius,
    mul_mod,
    mul_rows,
    reduce_monic,
)
from .numfield import NFElem, NumberField

DEFAULT_DEGREE_BUDGET = 4096


class CyclotomicIntegers(Ring):
    """Z[z]/(1 + z + ... + z^(d-1)) for prime d.

    Elements are integer tuples of length d-1 in the power basis
    1, z, ..., z^(d-2).  For d = 2 this is Z with z = -1.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("d must be a prime >= 2")
        self.d = d
        self.width = d - 1
        self.zero = (0,) * self.width
        self.one = tuple([1] + [0] * (self.width - 1))
        self._phi = (1,) * d  # 1 + z + ... + z^(d-1)

    def zeta(self) -> tuple:
        if self.d == 2:
            return (-1,)
        return tuple([0, 1] + [0] * (self.width - 2))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return tuple(mul_mod(a, b, self._phi))

    def div(self, a, b):
        raise NotImplementedError("no coefficient division in Z[zeta]")

    def from_int(self, n):
        return tuple([n] + [0] * (self.width - 1))

    def coeff_repr(self, a):
        terms = []
        for i, x in enumerate(a):
            if x == 0:
                continue
            if i == 0:
                terms.append(str(x))
            else:
                zp = "z" if i == 1 else f"z^{i}"
                terms.append(zp if x == 1 else f"-{zp}" if x == -1 else f"{x}*{zp}")
        if not terms:
            return "0"
        body = " + ".join(terms).replace("+ -", "- ")
        return body if len(terms) == 1 else f"({body})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicIntegers) and other.d == self.d

    def __hash__(self):
        return hash(("cyc", self.d))


@dataclass
class OrbitSeq:
    """Append-only cache of the critical-orbit polynomials a_i(c) in Z[c]."""

    d: int
    degree_budget: int = DEFAULT_DEGREE_BUDGET
    _cache: list = field(default_factory=list)

    def a(self, i: int) -> Poly:
        if i < 1:
            raise ValueError("orbit index must be >= 1")
        if self.d ** (i - 1) > self.degree_budget:
            raise BudgetExceeded(
                f"deg a_{i} = {self.d}^{i - 1} exceeds budget {self.degree_budget}"
            )
        c = Poly.x(ZZ)
        if not self._cache:
            self._cache.append(c)  # a_1 = c
        while len(self._cache) < i:
            prev = self._cache[-1]
            self._cache.append(prev ** self.d + c)
        return self._cache[i - 1]


_orbit_seqs: dict[tuple[int, int], OrbitSeq] = {}


def orbit_seq(d: int, budget: int = DEFAULT_DEGREE_BUDGET) -> OrbitSeq:
    key = (d, budget)
    if key not in _orbit_seqs:
        _orbit_seqs[key] = OrbitSeq(d, budget)
    return _orbit_seqs[key]


def orbit_poly(d: int, i: int, budget: int = DEFAULT_DEGREE_BUDGET) -> Poly:
    """a_i(c) in Z[c]; deg a_i = d^(i-1)."""
    return orbit_seq(d, budget).a(i)


def gleason(d: int, n: int, budget: int = DEFAULT_DEGREE_BUDGET) -> Poly:
    """Period-n parameter polynomial: prod over k | n of a_k^mobius(n/k).

    Assembled with exact division; a nonzero remainder would falsify the
    defining integrality and is raised as NotDivisible.  The assembled
    identity is re-verified multiplicatively before returning.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seq = orbit_seq(d, budget)
    numer = Poly.one(ZZ)
    denom = Poly.one(ZZ)
    for k in range(1, n + 1):
        if n % k:
            continue
        mu = mobius(n // k)
        if mu == 1:
            numer = numer * seq.a(k)
        elif mu == -1:
            denom = denom * seq.a(k)
    result = numer.exact_div(denom)
    if result * denom != numer:
        raise OracleMismatch("Gleason assembly identity failed")
    return result


def misiurewicz(
    d: int, m: int, n: int, budget: int = DEFAULT_DEGREE_BUDGET
) -> tuple[Poly, Poly]:
    """Type-(m, n) parameter polynomial over Z[zeta], and its rational norm form.

    Returns (cyc_poly, norm_form): cyc_poly is over CyclotomicIntegers(d),
    norm_form = Res_z(Phi_d(z), cyc_poly) in Z[c].  For d = 2 the two
    coincide.  The norm form may be reducible over Q; consumers must certify
    a factor, never assume.
    """
    if m < 2 or n < 1:
        raise ValueError("requires m >= 2, n >= 1")
    R = CyclotomicIntegers(d)
    zeta = R.zeta()
    seq = orbit_seq(d, budget)

    def lift(p: Poly) -> Poly:
        return p.map_coeffs(R, R.from_int)

    numer = Poly.one(R)
    denom = Poly.one(R)
    for k in range(1, n + 1):
        if n % k:
            continue
        mu = mobius(n // k)
        factor = lift(seq.a(m + k - 1)) - lift(seq.a(m - 1)).scale(zeta)
        if mu == 1:
            numer = numer * factor
        elif mu == -1:
            denom = denom * factor
        if (m - 1) % n == 0:
            ak = lift(seq.a(k))
            if mu == 1:
                denom = denom * ak
            elif mu == -1:
                numer = numer * ak
    cyc = numer.exact_div(denom)
    if cyc * denom != numer:
        raise OracleMismatch("Misiurewicz assembly identity failed")
    return cyc, norm_form(cyc)


def norm_form(cyc: Poly) -> Poly:
    """Res_z(Phi_d(z), cyc) for cyc over CyclotomicIntegers(d), in Z[c].

    Phi_d is monic with roots zeta^a, a = 1 .. d-1, so the resultant is the
    product of the conjugates sigma_a(cyc), where sigma_a sends zeta^j to
    zeta^(aj mod d).  That product lies in Z[c]: a nonzero zeta-entry above
    the constant raises OracleMismatch.
    """
    R: CyclotomicIntegers = cyc.ring
    d = R.d
    if d == 2 or cyc.is_zero:
        return Poly.make(ZZ, [a[0] for a in cyc.coeffs])
    rows = norm = [list(a) for a in cyc.coeffs]
    for a in range(2, d):
        conjugate = []
        for row in rows:
            spread = [0] * d
            for j, x in enumerate(row):
                spread[a * j % d] = x
            conjugate.append(reduce_monic(spread, R._phi))
        norm = mul_rows(norm, conjugate, R._phi)
    if any(any(row[1:]) for row in norm):
        raise OracleMismatch("norm form has a coefficient outside Z")
    return Poly.make(ZZ, [row[0] for row in norm])


@dataclass(frozen=True)
class ExactType:
    """Exact orbit type of the critical point for a given parameter."""

    kind: str  # "periodic" or "preperiodic"
    n: int  # eventual period
    m: int  # preperiod (0 for periodic)
    witness: tuple  # the orbit values a_1 .. a_(m+n) as NFElem

    def __str__(self):
        if self.kind == "periodic":
            return f"Periodic({self.n})"
        return f"Preperiodic({self.m},{self.n})"


class BoundExceeded(RuntimeError):
    """No orbit repetition found within the search bound."""


def exact_type(fieldK: NumberField, d: int, bound: int = 64) -> ExactType:
    """Classify c0 = class of c: Periodic(n) or Preperiodic(m, n).

    Walks the orbit of 0 in K until the first repetition, then re-verifies
    every minimality condition on the witness values.
    """
    c0 = fieldK.gen()
    orbit: list[NFElem] = []
    seen: dict[NFElem, int] = {}
    value = c0
    for i in range(1, bound + 1):
        if value.is_zero:
            # a_i = 0: period i; minimality is automatic (no earlier zero seen)
            orbit.append(value)
            _verify_periodic(orbit, i)
            return ExactType(kind="periodic", n=i, m=0, witness=tuple(orbit))
        if value in seen:
            m = seen[value]
            n = i - m
            orbit.append(value)
            _verify_preperiodic(orbit, m, n)
            return ExactType(kind="preperiodic", n=n, m=m, witness=tuple(orbit))
        seen[value] = i
        orbit.append(value)
        value = value**d + c0
    raise BoundExceeded(f"no repetition in the first {bound} orbit values")


def _verify_periodic(orbit, n):
    if not orbit[n - 1].is_zero:
        raise OracleMismatch(f"a_{n} is not zero")
    for k in range(n - 1):
        if orbit[k].is_zero:
            raise OracleMismatch("period not minimal")


def _verify_preperiodic(orbit, m, n):
    if m < 2 or n < 1:
        raise OracleMismatch(f"detected type ({m},{n}) is not strictly preperiodic")
    if orbit[m + n - 1] != orbit[m - 1]:
        raise OracleMismatch(f"a_{m + n} is not a_{m}")
    if orbit[m + n - 2] == orbit[m - 2]:
        raise OracleMismatch("preperiod not minimal")
    for i in range(m + n - 2):
        for j in range(i + 1, m + n - 1):
            if orbit[i] == orbit[j]:
                raise OracleMismatch("earlier repetition missed")


def orbit_value(fieldK: NumberField, d: int, i: int) -> NFElem:
    """a_i(c0) in K."""
    if i < 0:
        raise ValueError("orbit index must be >= 0")
    if i == 0:
        return fieldK.zero
    c0 = fieldK.gen()
    value = c0
    for _ in range(i - 1):
        value = value**d + c0
    return value
