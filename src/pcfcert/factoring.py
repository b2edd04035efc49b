"""Iterates of x^d + c over K and their closed-form factorization.

For a period-n parameter c0 and k = nq + r, the k-th iterate factors as

    prod_{j<q} prod_{i=1}^{n-1} F(k-nj-i, n-i)^(d^j)
    * ((x - a_{n-r}) * prod_{i=1}^{r} F(r-i, n-i))^(d^q)

where F(k, i) is the degree d^k(d-1) cofactor
(f^{k+1} - a_{i+1}) / (f^k - a_i) (orbit indices cycle with a_n = 0).  It is
built without division as the geometric sum

    F(k, i) = sum_{j<d} (f^k)^j * a_i^(d-1-j),

after checking the orbit relation a_{i+1} = a_i^d + c0: with it,
f^{k+1} - a_{i+1} = (f^k)^d - a_i^d, which is exactly (f^k - a_i) F(k, i).
A failed relation is a falsified identity and raises ShapeViolation.  Exact
division stays only as the tests' oracle for this sum.

verify_factorization proves the product is f^k by telescoping, without f^k.
Write S(m, i) = f^m - a_i, so F(m, i) S(m, i) = S(m+1, i+1) by the relation.
Two rewrite rules hold: S(m, n) = f^m, as a_n = 0, and S(m, 1) = (f^(m-1))^d
for m >= 1, as a_1 = c0.  The linear factor is S(0, n-r).  Block j of the
closed form is then (f^(k-nj))^(d^j) / (f^(k-n(j+1)))^(d^(j+1)) and the tail
is f^r, so the product is f^k.  The check has four exact steps: (1) the
orbit relations hold in K; (2) each entry is lambda F(m, i) (or lambda
S(0, j)) for the factor its params name, lambda its leading coefficient and
F rebuilt by the geometric sum from f^m, m < k; (3) the product of the
lambda^exp is 1; (4) the exponents of the S symbols, rewritten by the two
rules, add up to exactly f^k.  Each step is an identity over K, so passing
all four proves the product identity.  A product that fails one is
multiplied out (FactorProduct.expanded_rows) and compared with f^k instead,
which gives every refutation witness.

A polynomial over K is a pair (rows, den) (see numfield).  f^k and F(k, i)
are integral, so they are plain integer rows over Z[c]/(g).  Each product on
the way to f^(k+1) is one big-integer product reduced a column at a time
(see polyring.mul_rows).  The field keeps f^0, f^1, ... as one chain, one
packed int per iterate, and one more chain for the image of f in the
residue ring of each prime P above d, so a later request on the same field
(cli keeps one field per g) only unpacks.  ``iterate`` wraps f^k as a Poly
over K for callers outside the package.

The stability route never builds f^N over K.  Whether f^N - alpha is
Eisenstein at a prime P above d depends only on the valuations of its
coefficients at P.  The constant term a_N - alpha is valued exactly; the
middle coefficients are those of f^N iterated in the residue ring
(Z/p^T)[t]/(G) of P (numfield.residue_ring), where every coefficient is a
row of residues a few bits wide.  That is sound because Z[c]/(g) ->
(Z/p^T)[t]/(G) is a ring homomorphism: each residue row is the image of the
exact coefficient.  A nonzero row gives an exact valuation below the cutoff
(T for A, e*T for B), and a zero row one at or past it, so the least middle
valuation and any middle refutation come from nonzero rows alone.  As
v_p(gcd) = min v_p, that least valuation is ``row_valuation`` of the column
gcds, on both backends; the rows are read one by one only when it is below
1, to name the first refuting index.  When no row is nonzero (always for
N = 1), the certificate falls back to the exact f^N - alpha.  Either way
the witnesses are those of the exact path.

Irreducibility and stability certificates replay Eisenstein arguments at a
prime above d.  The cyclotomic extension L = K(zeta) is never constructed:
the Eisenstein data at the prime of L is determined by K-expressible facts
(unit constant term, d-divisible middle coefficients, d unramified in K),
and those are what the certificate checks and records.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd

from .certificates import Certificate, HypothesisUnmet, Verdict
from .finitefield import fp_gcd
from .numfield import (
    NFElem,
    NotIntegral,
    NumberField,
    PrimeAboveD,
    Valuation,
    add_constant,
    backend_a_primes,
    irreducible_mod_prime,
    is_unit,
    nf_norm,
    prime_with_valuation,
    residue_ring,
    residue_rows,
    row_valuation,
    valuation,
)
from .orbits import DEFAULT_DEGREE_BUDGET, ExactType, exact_type, orbit_value
from .polyring import (
    BudgetExceeded,
    PackedRows,
    Poly,
    gcd_poly,
    mul_rows,
    pow_rows,
    reduce_monic,
)


class ShapeViolation(Exception):
    """An iterate failed the structural expansion shape (fatal)."""


class NotUnit(Exception):
    """A residual expected to be an algebraic unit is not."""


def iterate(
    fieldK: NumberField, d: int, k: int, budget: int = DEFAULT_DEGREE_BUDGET
) -> Poly:
    """f^k for f = x^d + c0 as a Poly over K (see ``iterate_rows``)."""
    return fieldK.poly_from_rows(iterate_rows(fieldK, d, k, budget))


def iterate_rows(
    fieldK: NumberField, d: int, k: int, budget: int = DEFAULT_DEGREE_BUDGET
) -> list[list[int]]:
    """f^k for f = x^d + c0 as integer rows, cached per field.

    c0 is an algebraic integer (g is monic), so every coefficient of f^k is
    a row of integers in the basis 1, c, ..., c^(m-1).
    """
    if k < 0:
        raise ValueError("iterate index must be >= 0")
    _check_budget(d, k, budget)
    g = fieldK.g.coeffs
    return _cached_iterate(fieldK, d, d, k, lambda: (g, reduce_monic([0, 1], g), 0))


def _check_budget(d: int, k: int, budget: int) -> None:
    if d**k > budget:
        raise BudgetExceeded(f"deg f^{k} = {d}^{k} exceeds budget {budget}")


def residue_iterate(d: int, k: int, P: PrimeAboveD) -> list[list[int]]:
    """The image of f^k in the residue ring (Z/p^T)[t]/(G) of P, as rows:
    row j holds the residues of the coefficient of x^j (see
    numfield.residue_ring).  Cached per field, under (P, d)."""
    return _cached_iterate(P.field, (P, d), d, k, lambda: residue_ring(P))


def _cached_iterate(fieldK: NumberField, key, d: int, k: int, ring) -> list[list[int]]:
    """f^k from the chain fieldK._iterates[key], extended as far as k.

    ``ring()`` gives (g, c0, modulus) for the ring (Z/modulus)[c]/(g), or
    Z[c]/(g) when modulus is 0; it is called only to extend the chain.  Each
    f^k is packed into one int, deg g slots per coefficient, and f^(k+1) is
    the d-th power of the unpacked rows plus c0.  The rows returned are
    unpacked afresh, so a caller may overwrite them.
    """
    chain = fieldK._iterates.setdefault(key, [])
    if len(chain) <= k:
        g, c0, modulus = ring()
        m = len(g) - 1
        if not chain:
            chain.append(PackedRows.pack([[], [1]], m))  # f^0 = x
        while len(chain) <= k:
            rows = pow_rows(chain[-1].rows(), d, g, modulus)
            rows[0] = [a + b for a, b in zip(rows[0], c0)]
            if modulus:
                rows[0] = [a % modulus for a in rows[0]]
            chain.append(PackedRows.pack(rows, m))
    return chain[k].rows()


@dataclass(frozen=True)
class IterateForm:
    """f^k = x^(d^k) + M(x) + constant with M = d*x^d*F(x)."""

    k: int
    middle: list  # rows of M, row j the coefficient of x^j (row 0 zero)
    constant: NFElem
    const_index: int  # the orbit index i with constant = (unit) * a_i
    unit_residual: NFElem | None  # preperiodic case: a_k / a_gcd(k, n)


def structural_form(
    fieldK: NumberField,
    d: int,
    k: int,
    typ: ExactType,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> IterateForm:
    """Verify the expansion shape of f^k and compute its residual data.

    Checks f^k = x^(d^k) + M(x) + const with every coefficient of M divisible
    by d and no monomials of degree below d.  Periodic: const must equal a_i
    for i the least positive residue of k mod n (a_n = 0 when n | k).
    Preperiodic: const = u * a_i with i = gcd(k, n) and u a unit, which is
    certified on the computed residual.
    """
    if k < 1:
        raise ValueError("structural_form requires k >= 1")
    rows = iterate_rows(fieldK, d, k, budget)
    constant = NFElem(fieldK, rows[0])
    middle = [[0] * fieldK.degree, *rows[1:-1]]
    for idx in range(min(d, len(middle))):
        if any(middle[idx]):
            raise ShapeViolation(f"middle part has a monomial of degree {idx} < d")
    if any(x % d for row in middle for x in row):
        raise ShapeViolation("middle coefficient not divisible by d")
    n = typ.n
    if typ.kind == "periodic":
        r = k % n
        i = r if r else n
        if constant != orbit_value(fieldK, d, r):
            raise ShapeViolation(
                f"constant of f^{k} is not a_{i} for the periodic parameter"
            )
        return IterateForm(
            k=k, middle=middle, constant=constant, const_index=i, unit_residual=None
        )
    # preperiodic: constant = a_k = u * a_i, i = gcd(k, n), u a unit
    i = gcd(k, n)
    a_k = orbit_value(fieldK, d, k)
    if constant != a_k:
        raise ShapeViolation(f"constant of f^{k} is not a_{k}")
    a_i = orbit_value(fieldK, d, i)
    u = a_k / a_i
    if not u.is_integral:
        raise NotIntegral(f"a_{k}/a_{i} is not an algebraic integer")
    if not is_unit(u):
        raise NotUnit(f"a_{k}/a_{i} is not an algebraic unit")
    return IterateForm(
        k=k, middle=middle, constant=constant, const_index=i, unit_residual=u
    )


def periodic_orbit_value(fieldK: NumberField, d: int, n: int, j: int) -> NFElem:
    """a_j(c0) for a period-n parameter, with a_0 = a_n = 0 and index cycling."""
    return orbit_value(fieldK, d, j % n)


def f_factor(
    fieldK: NumberField,
    d: int,
    n: int,
    k: int,
    i: int,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> list[list[int]]:
    """F(k, i) = (f^{k+1} - a_{i+1}) / (f^k - a_i), monic of degree d^k(d-1),
    as integer rows over Z[c]/(g).

    Built as sum_{j<d} (f^k)^j * a_i^(d-1-j), by Horner's rule in f^k, once
    a_{i+1} = a_i^d + c0 is checked (ShapeViolation otherwise).
    """
    if not (n >= 2 and k >= 0 and 1 <= i <= n - 1):
        raise ValueError("f_factor requires n >= 2, k >= 0, 1 <= i <= n-1")
    _check_budget(d, k + 1, budget)
    if not _orbit_relation(fieldK, d, n, i):
        raise ShapeViolation(f"a_{i + 1} != a_{i}^{d} + c0: c0 is not of period {n}")
    quotient = _geometric_sum(fieldK, d, k, i, budget)
    degree, expected_degree = len(quotient) - 1, d**k * (d - 1)
    if degree != expected_degree or quotient[-1] != [1] + [0] * (fieldK.degree - 1):
        raise ShapeViolation(
            f"F({k},{i}) has degree {degree}, expected {expected_degree}"
        )
    return quotient


def _orbit_relation(fieldK: NumberField, d: int, n: int, i: int) -> bool:
    """a_(i+1) = a_i^d + c0 with indices cycling mod n.  orbit_value walks
    a_(j+1) = a_j^d + c0, so this holds iff the cycled a_(i+1) is the walked
    one: at i + 1 = n, iff a_n = 0."""
    return periodic_orbit_value(fieldK, d, n, i + 1) == orbit_value(fieldK, d, i + 1)


def _geometric_sum(fieldK: NumberField, d: int, k: int, i: int, budget: int) -> list:
    """sum_{j<d} (f^k)^j * a_i^(d-1-j) as integer rows, by Horner's rule."""
    a_i = orbit_value(fieldK, d, i)
    quotient = f_k = iterate_rows(fieldK, d, k, budget)
    power = a_i
    for _ in range(d - 2):
        quotient = mul_rows(add_constant((quotient, 1), power)[0], f_k, fieldK.g.coeffs)
        power = power * a_i
    return add_constant((quotient, 1), power)[0]


def _linear_rows(fieldK: NumberField, d: int, n: int, j: int) -> list[list[int]]:
    """x - a_j (index cycling mod n) as integer rows."""
    a, m = periodic_orbit_value(fieldK, d, n, j).num, fieldK.degree
    return [[-v for v in a] + [0] * (m - len(a)), [1] + [0] * (m - 1)]


@dataclass(frozen=True)
class FactorEntry:
    label: str  # "F(k,i)" or "linear"
    rows: list  # the factor is (rows, den) over K
    exp: int
    params: tuple  # F: (k, i); linear: (orbit index,)
    den: int = 1


@dataclass(frozen=True)
class FactorProduct:
    """Labeled factorization of f^k over K, per the closed form."""

    field: NumberField
    d: int
    n: int
    k: int
    entries: tuple[FactorEntry, ...]

    @property
    def distinct_count(self) -> int:
        return len({e.label for e in self.entries})

    def expanded_rows(self) -> tuple[list[list[int]], int]:
        """The product as (rows, den): integer rows over Z[c]/(g) and a
        denominator.  Each leaf F^exp is a ``pow_rows`` power; the two
        lowest-degree products are multiplied until one is left."""
        g = self.field.g.coeffs
        heap, den = [], 1
        for i, e in enumerate(self.entries):
            if not e.rows:
                return [], 1
            rows = pow_rows(e.rows, e.exp, g)
            heappush(heap, (len(rows), i, rows))
            den *= e.den**e.exp
        while len(heap) > 1:
            _, _, a = heappop(heap)
            _, i, b = heappop(heap)
            ab = mul_rows(a, b, g)
            heappush(heap, (len(ab), i, ab))
        return heap[0][2], den


def iterate_factorization(
    fieldK: NumberField,
    d: int,
    n: int,
    k: int,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> FactorProduct:
    """Assemble the closed-form factorization of f^k for a period-n field."""
    if n < 2 or k < 1:
        raise ValueError("requires n >= 2 and k >= 1")
    q, r = divmod(k, n)
    entries = []
    for j in range(q):
        for i in range(1, n):
            entries.append(
                FactorEntry(
                    label=f"F({k - n * j - i},{n - i})",
                    rows=f_factor(fieldK, d, n, k - n * j - i, n - i, budget),
                    exp=d**j,
                    params=(k - n * j - i, n - i),
                )
            )
    linear = _linear_rows(fieldK, d, n, n - r)
    entries.append(FactorEntry(label="linear", rows=linear, exp=d**q, params=(n - r,)))
    for i in range(1, r + 1):
        entries.append(
            FactorEntry(
                label=f"F({r - i},{n - i})",
                rows=f_factor(fieldK, d, n, r - i, n - i, budget),
                exp=d**q,
                params=(r - i, n - i),
            )
        )
    product = FactorProduct(field=fieldK, d=d, n=n, k=k, entries=tuple(entries))
    total = sum(e.exp * (len(e.rows) - 1) for e in product.entries)
    if total != d**k:
        raise ShapeViolation(f"factor degrees sum to {total}, expected {d}^{k}")
    return product


COPRIME_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _image_mod(poly, P: PrimeAboveD) -> list[int] | None:
    """poly = (rows, den) over K reduced at the residue-degree-1 prime P, as
    residues mod p; None when p divides den or the degree drops."""
    try:
        image = [row[0] for row in residue_rows(poly, P)]
    except ValueError:
        return None
    return image if image and image[-1] else None


def _pairwise_coprime_witness(product: FactorProduct, cert: Certificate) -> bool:
    """Check each label holds one polynomial and all are pairwise coprime.

    Fast path: gcds in F_p[x] at the first backend-A prime P of residue
    degree 1 above a p in COPRIME_PRIMES, p != d (sound: the reductions keep
    their degrees, so a gcd of 1 mod P forces a nonzero resultant).  Exact
    gcd over K when there is no such P, a reduction is undefined, or a pair
    shares a factor mod P.
    """
    fieldK = product.field
    distinct = {}
    for e in product.entries:  # label -> (rows, den); equal up to scaling
        rows, den = distinct.setdefault(e.label, (e.rows, e.den))
        if (rows, den) != (e.rows, e.den) and [
            [e.den * x for x in r] for r in rows
        ] != [[den * x for x in r] for r in e.rows]:
            cert.verdict = Verdict.REFUTED
            cert.witness("label-conflict", label=e.label)
            return False
    labels = sorted(distinct)
    odd = (p for p in COPRIME_PRIMES if p != product.d)
    primes = (P for _, _, P in backend_a_primes(fieldK, odd) if P.residue_degree == 1)
    P = next(primes, None)
    reduced = {lab: _image_mod(distinct[lab], P) for lab in labels} if P else {}
    if not all(reduced.values()):
        reduced = {}
    exact_fallbacks = 0
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            la, lb = labels[a], labels[b]
            if reduced and len(fp_gcd(reduced[la], reduced[lb], P.p)) == 1:
                continue
            exact_fallbacks += 1
            g = gcd_poly(*(fieldK.poly_from_rows(*distinct[x]) for x in (la, lb)))
            if g.degree != 0:
                cert.verdict = Verdict.REFUTED
                cert.witness("common-factor", labels=[la, lb], gcd=g.to_string("x"))
                return False
    cert.witness(
        "pairwise-coprime",
        pairs=len(labels) * (len(labels) - 1) // 2,
        modular_prime=P.p if P else None,
        exact_fallbacks=exact_fallbacks,
    )
    return True


def _closed_form(product: FactorProduct, params, budget: int):
    """(rows, symbols) of the monic closed-form factor that ``params`` names:
    F(m, i) for (m, i) with 0 <= m < k and 1 <= i < n, with symbols
    S(m+1, i+1) / S(m, i); S(0, j) = x - a_j for (j,) with 1 <= j <= n.
    A symbol is ((m, i), exponent).  None for any other params."""
    fieldK, d, n = product.field, product.d, product.n
    match params:
        case (int(m), int(i)) if 0 <= m < product.k and 0 < i < n:
            rows = _geometric_sum(fieldK, d, m, i, budget)
            return rows, (((m + 1, i + 1), 1), ((m, i), -1))
        case (int(j),) if 0 < j <= n:
            return _linear_rows(fieldK, d, n, j), (((0, j), 1),)
    return None


def _telescopes(product: FactorProduct, budget: int) -> bool:
    """Steps 1-4 of the module docstring: True when they prove the product
    equal to f^k, False when it must be multiplied out."""
    fieldK, d, n, k = product.field, product.d, product.n, product.k
    if n < 2 or not all(_orbit_relation(fieldK, d, n, i) for i in range(1, n)):
        return False
    g, one = fieldK.g.coeffs, [1] + [0] * (fieldK.degree - 1)
    lam, lam_den = one, 1  # the product of the lambda^exp, over lam_den
    vector = {}  # (m, i) -> the exponent of S(m, i)
    for e in product.entries:
        closed = _closed_form(product, e.params, budget)
        if closed is None or not e.rows or e.den < 1 or e.exp < 1:
            return False
        factor, symbols = closed
        lead = e.rows[-1]
        if lead == [e.den, *one[1:]]:  # lambda = 1
            expected = factor
            if e.den != 1:
                expected = [[e.den * x for x in row] for row in factor]
        else:
            expected = mul_rows(factor, [lead], g)
            lam = mul_rows([lam], pow_rows([lead], e.exp, g), g)[0]
            lam_den *= e.den**e.exp
        if e.rows != expected:
            return False
        for symbol, x in symbols:
            vector[symbol] = vector.get(symbol, 0) + x * e.exp
    return lam == [lam_den, *one[1:]] and _rewritten(vector, n, d) == {(k, n): 1}


def _rewritten(vector: dict, n: int, d: int) -> dict:
    """Exponents {(m, i): x} of the symbols S(m, i) rewritten by the rule
    S(m, 1) = (f^(m-1))^d for m >= 1, zeros dropped; the key (m, n) is
    S(m, n) = f^m."""
    total = {}
    for (m, i), x in vector.items():
        if i == 1 and m >= 1:
            m, i, x = m - 1, n, d * x
        total[m, i] = total.get((m, i), 0) + x
    return {s: x for s, x in total.items() if x}


def verify_factorization(
    product: FactorProduct, budget: int = DEFAULT_DEGREE_BUDGET
) -> Certificate:
    """Certify that the assembled product is exactly f^k with coprime factors.

    The product identity is proved by telescoping (module docstring).  A
    product that does not telescope is multiplied out and compared with f^k,
    exactly on integer rows, denominators included: by Gauss's lemma a monic
    non-integral factor fails it."""
    fieldK, d, n, k = product.field, product.d, product.n, product.k
    cert = Certificate(
        claim=f"factorization(d={d}, n={n}, k={k})",
        verdict=Verdict.VERIFIED,
        taint=fieldK.assumed,
    )
    _check_budget(d, k, budget)
    if not _telescopes(product, budget):
        rows, den = product.expanded_rows()
        f_k = iterate_rows(fieldK, d, k, budget)
        if rows != [[den * x for x in row] for row in f_k]:
            cert.verdict = Verdict.REFUTED
            cert.witness("product-mismatch", degree=len(rows) - 1)
            return cert
    cert.witness("product-identity", degree=d**k)
    if not _pairwise_coprime_witness(product, cert):
        return cert
    expected = k - k // n + 1
    if product.distinct_count != expected:
        cert.verdict = Verdict.REFUTED
        cert.witness(
            "count-mismatch", found=product.distinct_count, expected=expected
        )
        return cert
    cert.witness("distinct-count", count=expected)
    return cert


def eisenstein_certificate(h, P: PrimeAboveD) -> Certificate:
    """Eisenstein check at P for a monic integral h = (rows, den) over K."""
    coeffs = [NFElem(P.field, row, h[1]) for row in h[0]]
    if not coeffs or coeffs[-1] != P.field.one:
        raise ValueError("Eisenstein certificate requires a monic polynomial")
    if not all(cf.is_integral for cf in coeffs):
        raise NotIntegral("Eisenstein certificate requires integral coefficients")
    middle = (
        (idx, valuation(cf, P))
        for idx, cf in enumerate(coeffs[1:-1], 1)
        if not cf.is_zero
    )
    return _eisenstein_verdict(len(coeffs) - 1, P, valuation(coeffs[0], P), middle)


def _is_one(v: Valuation) -> bool:
    return not v.infinite and v.exact and v.value == 1


def _eisenstein_verdict(degree: int, P: PrimeAboveD, const_val: Valuation, middle):
    """The Eisenstein verdict from the valuations of the constant term and
    of the nonzero middle coefficients, ``middle`` as (index, Valuation) in
    increasing index; read lazily, up to the first refutation."""
    cert = Certificate(
        claim=f"eisenstein(deg={degree}, p={P.p})",
        verdict=Verdict.VERIFIED,
        taint=P.field.assumed,
    )
    if not _is_one(const_val):
        cert.verdict = Verdict.REFUTED
        cert.witness("constant-valuation", valuation=str(const_val))
        return cert
    min_middle: Valuation | None = None
    for idx, v in middle:
        if v.exact and v.value < 1:
            cert.verdict = Verdict.REFUTED
            cert.witness("middle-valuation", index=idx, valuation=str(v))
            return cert
        if min_middle is None or (v.exact and v.value < min_middle.value):
            min_middle = v
    cert.witness(
        "eisenstein",
        p=P.p,
        backend=P.backend,
        constant_valuation=1,
        min_middle_valuation=str(min_middle) if min_middle else "oo",
    )
    return cert


def iterate_eisenstein_certificate(
    fieldK: NumberField,
    d: int,
    N: int,
    alpha: NFElem,
    P: PrimeAboveD,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> Certificate:
    """``eisenstein_certificate(f^N - alpha, P)``, without f^N over K.

    The constant a_N - alpha is valued exactly and the middle coefficients
    are read from ``residue_iterate``; the module docstring says why the
    verdict and witnesses are the exact path's.  When no middle row is
    nonzero (always for N = 1), the exact f^N - alpha is built instead.
    """
    _check_budget(d, N, budget)
    if not alpha.is_integral:
        raise NotIntegral("Eisenstein certificate requires integral coefficients")
    const_val = valuation(orbit_value(fieldK, d, N) - alpha, P)
    middle = []
    if _is_one(const_val):
        rows = residue_iterate(d, N, P)[1:-1]
        least = row_valuation([gcd(*col) for col in zip(*rows)], P)
        if least is None:
            h = add_constant((iterate_rows(fieldK, d, N, budget), 1), -alpha)
            return eisenstein_certificate(h, P)
        middle = [(None, Valuation.of(least))]  # refutes nothing: no index
        if least < 1:
            middle = (
                (idx, Valuation.of(v))
                for idx, row in enumerate(rows, 1)
                if (v := row_valuation(row, P)) is not None
            )
    return _eisenstein_verdict(d**N, P, const_val, middle)


def stability_certificate(
    fieldK: NumberField,
    d: int,
    typ: ExactType,
    alpha: NFElem,
    k_max: int,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> Certificate:
    """Certify irreducibility of f^k - alpha over K for all k <= N.

    Requires k_max >= 1 (ValueError otherwise).  Finds a prime above d where
    alpha meets the valuation hypothesis (periodic: exactly 1; preperiodic:
    at least 2, where oo and a lower bound of 2 both count) and requires
    alpha integral (HypothesisUnmet otherwise), then shows f^N - alpha
    Eisenstein there for N the least multiple of the eventual period with
    N >= k_max.  Irreducibility descends to every k <= N because
    f^N - alpha = (f^k - alpha) o f^(N-k).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    n = typ.n
    if typ.kind == "periodic":
        P, _, v_alpha = prime_with_valuation(alpha, d, _is_one, "= 1")
    else:
        P, _, v_alpha = prime_with_valuation(
            alpha, d, lambda v: v.infinite or v.value >= 2, ">= 2"
        )
    if not alpha.is_integral:
        raise HypothesisUnmet(f"alpha = {alpha} is not an algebraic integer")
    N = n * ((k_max + n - 1) // n)
    eis = iterate_eisenstein_certificate(fieldK, d, N, alpha, P, budget)
    cert = Certificate(
        claim=f"stability(d={d}, type={typ}, k_max={k_max})",
        verdict=eis.verdict,
        taint=fieldK.assumed,
    )
    cert.witness("alpha-valuation", p=d, backend=P.backend, valuation=str(v_alpha))
    cert.witnesses.extend(eis.witnesses)
    if eis.verdict is Verdict.VERIFIED:
        cert.witness(
            "descent",
            N=N,
            reason="f^N - alpha = (f^k - alpha) o f^(N-k) for every k <= N",
        )
    else:
        cert.diagnose("Eisenstein check failed at the selected prime")
    return cert


def f_irreducibility_certificate(
    fieldK: NumberField,
    d: int,
    n: int,
    k: int,
    i: int,
    budget: int = DEFAULT_DEGREE_BUDGET,
) -> Certificate:
    """Certify irreducibility of F(k, i) over K.

    Primary route replays the cyclotomic Eisenstein argument through its
    K-expressible ingredients: d unramified in K, a_i a unit, and the shape
    of the composed iterate f^(m+k) whose constant term is a_i (m the least
    shift with m + k = i mod n).  At the prime of K(zeta) above d this makes
    every factor f^(m+k) - zeta^l a_i Eisenstein, hence F(m+k, i), and
    irreducibility descends to F(k, i) by the composition identity.
    Fallback: irreducibility of the reduction of F(k, i) in a residue field
    of K, flagged as the mod-prime route.
    """
    if not (n >= 2 and k >= 0 and 1 <= i <= n - 1):
        raise ValueError(
            "f_irreducibility_certificate requires n >= 2, k >= 0, 1 <= i <= n-1"
        )
    cert = Certificate(
        claim=f"irreducible(F({k},{i}), d={d}, n={n})",
        verdict=Verdict.INCONCLUSIVE,
        taint=fieldK.assumed,
    )
    typ = exact_type(fieldK, d)
    m = (i - k) % n
    primary_ok = True
    if fieldK.disc_g % d == 0:
        primary_ok = False
        cert.diagnose(f"d = {d} divides disc(g): unramifiedness unavailable")
    a_i = orbit_value(fieldK, d, i)
    if primary_ok:
        if not a_i.is_integral or not is_unit(a_i):
            primary_ok = False
            cert.diagnose(f"a_{i}(c0) is not an algebraic unit")
    if primary_ok:
        try:
            form = structural_form(fieldK, d, m + k, typ, budget)
        except (ShapeViolation, BudgetExceeded) as exc:
            primary_ok = False
            cert.diagnose(f"structural form of f^{m + k} unavailable: {exc}")
        else:
            if form.constant != a_i:
                primary_ok = False
                cert.diagnose(f"constant of f^{m + k} is not a_{i}")
    if primary_ok:
        cert.verdict = Verdict.VERIFIED
        cert.witness("unramified", p=d, disc_mod_d=int(fieldK.disc_g % d != 0))
        cert.witness("unit-constant", index=i, norm=str(nf_norm(a_i)))
        cert.witness(
            "eisenstein-shape",
            iterate=m + k,
            shift=m,
            note=(
                "(1 - zeta^l) a_i has valuation 1 and the middle coefficients "
                "have valuation >= d - 1 at the prime of K(zeta) above d"
            ),
        )
        cert.witness(
            "capelli-descent",
            note="F(m+k, i) = F(k, i) o f^m; Galois-orbit product over zeta^l",
        )
        return cert
    # fallback: mod-prime irreducibility of the factor itself
    try:
        found = irreducible_mod_prime(
            fieldK, (f_factor(fieldK, d, n, k, i, budget), 1), (3, 5, 7, 11, 13, 2)
        )
    except BudgetExceeded:
        found = None
    if found is not None:
        p, _, P = found
        cert.verdict = Verdict.VERIFIED
        cert.witness(
            "mod-prime-irreducible", p=p, residue_degree=P.residue_degree, fallback=True
        )
        cert.diagnose("certified by the fallback mod-prime route")
        return cert
    cert.diagnose("both certificate routes failed")
    return cert


def linear_factor_certificate(fieldK: NumberField, label_params: tuple) -> Certificate:
    """Degree-1 factors are irreducible; recorded for uniform reporting."""
    cert = Certificate(
        claim=f"irreducible(linear, a_{label_params[0]})",
        verdict=Verdict.VERIFIED,
        taint=fieldK.assumed,
    )
    cert.witness("degree-one", index=label_params[0])
    return cert


def factor_product_certificates(
    product: FactorProduct, budget: int = DEFAULT_DEGREE_BUDGET
) -> dict[str, Certificate]:
    """Irreducibility certificate for every distinct factor in a product."""
    out: dict[str, Certificate] = {}
    for e in product.entries:
        if e.label in out:
            continue
        if e.label == "linear":
            out[e.label] = linear_factor_certificate(product.field, e.params)
        else:
            out[e.label] = f_irreducibility_certificate(
                product.field, product.d, product.n, e.params[0], e.params[1], budget
            )
    return out
