"""Congruence checks for alternating power sums of binomial coefficients.

The headline family: for an odd prime p and a >= 1,

    sum_{k=0}^{p-1} (-1)^((a-1)k) binomial(p-1, k)^a
        == 2^(a(p-1)) + (a(a-1)(3a-4)/48) p^3 B_(p-3)   (mod p^4),

with B_(p-3) read mod p for p >= 5 and B_0 = 1 exactly at p = 3.
Specializations and relatives (a = 2 recovers the classical central
binomial congruence mod p^4; dropping the correction term gives the
mod-p^3 statement) are exposed with stable identity tags.

Every check records both sides; a failed congruence produces a verdict
of False, never an exception.  The per-prime checks read a PrimeContext.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .residues import OddPrime, binom_pm1, inverse_range, reduce_rational

if TYPE_CHECKING:
    from .context import PrimeContext

__all__ = [
    "CongruenceCheck",
    "ExcludedTriple",
    "CD_EXCLUDED",
    "COROLLARY_COEFFICIENTS",
    "theorem_coefficient",
    "binomial_moments",
    "moment_power_sum",
    "lhs_power_sums_batch",
    "lhs_power_sum_exact",
    "rhs_theorem",
    "verify_theorem_1_1",
    "verify_corollary",
    "verify_morley",
    "verify_carlitz",
    "verify_cai_granville",
    "chamberland_dilcher_u",
    "chamberland_dilcher_exact",
    "verify_chamberland_dilcher",
    "alternating_square_sum",
    "alternating_square_sum_printed_limit",
    "exact_identity_1_3",
    "exact_identity_1_4",
    "verify_p3_special",
]


@dataclass(frozen=True)
class CongruenceCheck:
    """One verified congruence: both sides are kept for auditing.

    modulus == 0 marks an exact integer identity (comparison in Z);
    for those, p carries the index n instead of a prime.
    """

    identity: str
    p: int
    params: tuple[int, ...]
    modulus: int
    lhs: int
    rhs: int
    verdict: bool


class ExcludedTriple(ValueError):
    """The two (eps, a, b) triples for which the u-sum congruence is known to fail."""


CD_EXCLUDED = ((0, 0, 1), (0, 1, 0))


def _check(
    identity: str, p: int, params, modulus: int, lhs: int, rhs: int, holds: bool = True
) -> CongruenceCheck:
    """A check whose verdict is lhs == rhs, and False where a side fact fails."""
    return CongruenceCheck(identity, int(p), tuple(params), modulus, lhs, rhs, lhs == rhs and holds)


def theorem_coefficient(a: int) -> Fraction:
    """The correction coefficient a(a-1)(3a-4)/48 as an exact rational."""
    return Fraction(a * (a - 1) * (3 * a - 4), 48)


COROLLARY_COEFFICIENTS = {3: Fraction(5, 8), 4: Fraction(2), 5: Fraction(55, 12)}


def _sign_is_negative(a: int, k: int) -> bool:
    # (-1)^((a-1)k) is -1 iff a-1 and k are both odd
    return (a & 1) == 0 and (k & 1) == 1


def binomial_moments(p: int) -> tuple[int, int, int]:
    """(M1, M2, M3) mod p^4, where M_j = sum_{k=0}^{p-1} (-1)^k (u_k - 1)^j
    and u_k = (-1)^k binomial(p-1, k).

    u_k == 1 (mod p), so (u_k - 1)^j vanishes mod p^4 for j >= 4 and the
    three moments give every alternating power sum (moment_power_sum).
    One sweep over k = 1..(p-1)/2 by u_k = u_(k-1) (k - p) / k: the
    terms at k and p-1-k are equal (p-1 is even), so each k below the
    middle counts twice and the middle once.  u_0 = 1 adds nothing.
    """
    p = int(OddPrime(p))
    m = p**4
    mid = (p - 1) // 2
    inv = inverse_range(mid, m)
    s1 = s2 = s3 = 0
    u = 1
    for k in range(1, mid + 1):
        u = u * (k - p) % m * inv[k] % m
        d = u - 1
        d2 = d * d % m
        d3 = d2 * d % m
        if k & 1:
            s1 -= d
            s2 -= d2
            s3 -= d3
        else:
            s1 += d
            s2 += d2
            s3 += d3
    # each k < mid stands for itself and p-1-k; the middle term counts once
    mid_sign = -1 if mid & 1 else 1
    return tuple((2 * s - mid_sign * t) % m for s, t in ((s1, d), (s2, d2), (s3, d3)))


def moment_power_sum(p: int, a: int, moments: tuple[int, int, int]) -> int:
    """sum_{k=0}^{p-1} (-1)^((a-1)k) binomial(p-1, k)^a mod p^4, in O(1)
    from the moments: the summand is (-1)^k u_k^a, and expanding
    u_k^a = (1 + (u_k - 1))^a binomially up to (u_k - 1)^3 gives
    1 + a M1 + C(a,2) M2 + C(a,3) M3 (the k-sum of (-1)^k is 1).
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    m1, m2, m3 = moments
    return (1 + a * m1 + comb(a, 2) * m2 + comb(a, 3) * m3) % p**4


def lhs_power_sums_batch(p: int, a_max: int) -> list[int]:
    """sum_{k=0}^{p-1} (-1)^((a-1)k) binomial(p-1, k)^a mod p^4 for every
    a = 1..a_max in one sweep; entry [a] is the sum.

    The direct-power oracle route for moment_power_sum: it keeps a
    running a-th power of every term of the binomial row.  Exploits
    binomial(p-1, k) == binomial(p-1, p-1-k) together with the matching
    sign (p-1 is even), so only half the range is visited.
    """
    p = int(OddPrime(p))
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    m = p**4
    table = binom_pm1(p, 4)
    mid = (p - 1) // 2
    acc = [0] * (a_max + 1)
    for k in range(mid + 1):
        w = 2 if k < mid else 1
        t = table[k]
        v = 1
        if k & 1:
            for a in range(1, a_max + 1):
                v = v * t % m
                # odd k: sign flips exactly for even a
                acc[a] = acc[a] + w * v if a & 1 else acc[a] - w * v
        else:
            for a in range(1, a_max + 1):
                v = v * t % m
                acc[a] += w * v
    return [s % m for s in acc]


def lhs_power_sum_exact(p: int, a: int) -> int:
    """Oracle route: the same sum over exact integer binomials, reduced mod p^4."""
    m = int(p) ** 4
    acc = 0
    for k in range(p):
        t = comb(p - 1, k) ** a
        acc += -t if _sign_is_negative(a, k) else t
    return acc % m


def rhs_theorem(p: int, a: int, bpm3: "int | None") -> int:
    """2^(a(p-1)) + (a(a-1)(3a-4)/48) p^3 B_(p-3) mod p^4.

    For p >= 5 the Bernoulli factor enters as `bpm3`, B_(p-3) mod p (the
    p^3 in front makes that enough).  For p = 3 the correction is formed
    as one exact rational with B_0 = 1 so the 3 in the denominator 48
    cancels against 27 before reduction mod 81; `bpm3` is not read.
    """
    p = int(OddPrime(p))
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    m = p**4
    coef = theorem_coefficient(a)
    if p == 3:
        corr = reduce_rational(coef * 27, p, 4)
    else:
        corr = reduce_rational(coef * (bpm3 * p**3), p, 4)
    return (pow(2, a * (p - 1), m) + corr) % m


def verify_theorem_1_1(c: "PrimeContext", a: int) -> CongruenceCheck:
    """Check the headline congruence at (c.p, a), both sides mod p^4."""
    rhs = rhs_theorem(c.p, a, c.bpm3)  # validates a
    return _check("theorem_1_1", c.p, (a,), c.p**4, moment_power_sum(c.p, a, c.moments), rhs)


def verify_corollary(c: "PrimeContext", a: int) -> CongruenceCheck:
    """The a = 3, 4, 5 specializations with their stated coefficients.

    Both sides are the theorem's at a; the verdict also requires the
    stated coefficient (5/8, 2, 55/12) to equal a(a-1)(3a-4)/48.
    """
    if a not in COROLLARY_COEFFICIENTS:
        raise ValueError(f"corollary is stated for a in (3, 4, 5), got {a}")
    t = verify_theorem_1_1(c, a)
    holds = COROLLARY_COEFFICIENTS[a] == theorem_coefficient(a)
    return _check(f"corollary_a{a}", t.p, (a,), t.modulus, t.lhs, t.rhs, holds)


def verify_morley(c: "PrimeContext") -> CongruenceCheck:
    """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) == 4^(p-1) mod p^3, p >= 5."""
    p = c.p
    if p < 5:
        raise ValueError("Morley's congruence needs p >= 5")
    m = p**3
    return _check("morley", p, (), m, c.central4 % m, pow(4, p - 1, m))


def verify_carlitz(c: "PrimeContext") -> CongruenceCheck:
    """Central binomial congruence sharpened to mod p^4, every odd prime.

    (-1)^((p-1)/2) binomial(p-1, (p-1)/2)
        == 4^(p-1) + (1/12) p^3 B_(p-3)   (mod p^4).
    """
    p = c.p
    m = p**4
    if p == 3:
        corr = reduce_rational(Fraction(27, 12), p, 4)
    else:
        corr = reduce_rational(Fraction(c.bpm3 * p**3, 12), p, 4)
    return _check("carlitz", p, (), m, c.central4, (pow(4, p - 1, m) + corr) % m)


def verify_cai_granville(c: "PrimeContext", a: int) -> CongruenceCheck:
    """The mod-p^3 statement: the alternating power sum == 2^(a(p-1)), p >= 5."""
    p = c.p
    if p < 5:
        raise ValueError("the mod-p^3 statement needs p >= 5")
    m = p**3
    lhs = moment_power_sum(p, a, c.moments) % m
    rhs = pow(2, a * (p - 1), m)
    return _check("cai_granville", p, (a,), m, lhs, rhs)


def _vu_binomial_row(n: int, p: int, m3: int, kmax: int) -> list[tuple[int, int]]:
    """binomial(n, k) for k = 0..kmax as (p-valuation, unit mod p^3) pairs."""
    out = [(0, 1)]
    val, unit = 0, 1
    for k in range(1, kmax + 1):
        f = n - k + 1
        while f % p == 0:
            val += 1
            f //= p
        unit = unit * f % m3
        g = k
        while g % p == 0:
            val -= 1
            g //= p
        unit = unit * pow(g, -1, m3) % m3
        if val < 0:
            raise AssertionError("binomial coefficient with negative valuation")
        out.append((val, unit))
    return out


def chamberland_dilcher_u(p: int, eps: int, a: int, b: int) -> int:
    """u = sum_{k=0}^{2p} (-1)^(eps k) binomial(p, k)^a binomial(2p, k)^b mod p^3.

    Binomials are tracked as (p-valuation, unit) pairs so the sum stays
    in Z/p^3 Z; any term with total valuation >= 3 is dropped.  With
    a >= 1 the sum truncates at k = p since binomial(p, k) = 0 beyond.
    """
    p = int(OddPrime(p))
    if eps not in (0, 1) or a < 0 or b < 0:
        raise ValueError("need eps in (0, 1) and a, b >= 0")
    m3 = p**3
    top = p if a > 0 else 2 * p
    row1 = _vu_binomial_row(p, p, m3, min(top, p)) if a > 0 else None
    row2 = _vu_binomial_row(2 * p, p, m3, top) if b > 0 else None
    total = 0
    for k in range(top + 1):
        val = 0
        unit = 1
        if a > 0:
            v1, u1 = row1[k]
            val += a * v1
            unit = pow(u1, a, m3)
        if b > 0:
            v2, u2 = row2[k]
            val += b * v2
            if val >= 3:
                continue
            unit = unit * pow(u2, b, m3) % m3
        if val >= 3:
            continue
        term = unit * p**val % m3
        if eps and (k & 1):
            total -= term
        else:
            total += term
    return total % m3


def chamberland_dilcher_exact(p: int, eps: int, a: int, b: int) -> int:
    """Oracle route: the same u-sum over exact integer binomials, mod p^3."""
    m3 = int(p) ** 3
    total = 0
    c1 = c2 = 1  # binomial(p, k) and binomial(2p, k); c1 reaches 0 past k = p
    for k in range(2 * p + 1):
        t = c1**a * c2**b
        total += -t if (eps and k & 1) else t
        c1 = c1 * (p - k) // (k + 1)
        c2 = c2 * (2 * p - k) // (k + 1)
    return total % m3


def verify_chamberland_dilcher(p: int, eps: int, a: int, b: int) -> CongruenceCheck:
    """u == 1 + (-1)^eps 2^b mod p^3 for p >= 5, outside the two excluded triples.

    (eps, a, b) = (0, 0, 1) and (0, 1, 0) are the known failures and are
    rejected up front.  The guarantee is stated for a >= 1 (for a = 0
    the sum no longer truncates at k = p and the congruence can fail);
    a = 0 requests are still computed and judged as-is.
    """
    p = int(OddPrime(p))
    if p < 5:
        raise ValueError("the u-sum congruence needs p >= 5")
    if (eps, a, b) in CD_EXCLUDED:
        raise ExcludedTriple(f"(eps, a, b) = {(eps, a, b)} is a known exception")
    m3 = p**3
    lhs = chamberland_dilcher_u(p, eps, a, b)
    rhs = (1 + (-1) ** eps * 2**b) % m3
    return _check("chamberland_dilcher", p, (eps, a, b), m3, lhs, rhs)


def alternating_square_sum(n: int) -> int:
    """sum_{k=0}^{2n} (-1)^k binomial(2n, k)^2, exact."""
    acc = 0
    c = 1
    for k in range(2 * n + 1):
        acc += c * c if k % 2 == 0 else -c * c
        c = c * (2 * n - k) // (k + 1)
    return acc


def alternating_square_sum_printed_limit(n: int) -> int:
    """The same sum truncated at k = n.

    Kept because the identity is sometimes printed with this upper
    limit; truncation breaks it already at n = 1 (-3 vs -2), so the
    full-range form is the one verified.
    """
    acc = 0
    c = 1
    for k in range(n + 1):
        acc += c * c if k % 2 == 0 else -c * c
        c = c * (2 * n - k) // (k + 1)
    return acc


def exact_identity_1_3(n: int) -> CongruenceCheck:
    """Exact: sum (-1)^k binomial(2n,k)^2 = (-1)^n binomial(2n,n) over the full range 0..2n.

    The companion exact identity sum_k binomial(n,k)^2 = binomial(2n,n)
    is checked alongside: the verdict is False if it fails.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lhs = alternating_square_sum(n)
    central = comb(2 * n, n)
    rhs = central if n % 2 == 0 else -central
    vandermonde = sum(comb(n, k) ** 2 for k in range(n + 1))
    return _check("exact_1_3", n, (n,), 0, lhs, rhs, vandermonde == central)


def exact_identity_1_4(n: int) -> CongruenceCheck:
    """Exact (Dixon): sum (-1)^k binomial(2n,k)^3 = (-1)^n binomial(2n,n) binomial(3n,n)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = 0
    c = 1
    for k in range(2 * n + 1):
        acc += c**3 if k % 2 == 0 else -(c**3)
        c = c * (2 * n - k) // (k + 1)
    central = comb(2 * n, n) * comb(3 * n, n)
    rhs = central if n % 2 == 0 else -central
    return _check("exact_1_4", n, (n,), 0, acc, rhs)


def verify_p3_special(a: int) -> CongruenceCheck:
    """The p = 3 endgame: 2^(2a) - lhs == 9a(a-1) (mod 81), plus the exact
    bookkeeping that makes the main congruence close at p = 3.

    The combined correction (a(a-1)(3a-4)/48) * 27 + 9a(a-1) equals
    (27/16) a(a-1)(a+4) exactly and is divisible by 81 because
    3 | a(a-1)(a+4) for every a; the verdict is False unless both hold.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    t = pow(2, a, 81)
    s = 2 + (t if a % 2 == 1 else -t)  # the power sum at p = 3, mod 81
    lhs = (pow(4, a, 81) - s) % 81
    rhs = 9 * a * (a - 1) % 81
    combined = theorem_coefficient(a) * 27 + 9 * a * (a - 1)
    bookkeeping = (
        combined == Fraction(27, 16) * a * (a - 1) * (a + 4)
        and a * (a - 1) * (a + 4) % 3 == 0
        and reduce_rational(combined, 3, 4) == 0
    )
    return _check("p3_special", 3, (a,), 81, lhs, rhs, bookkeeping)
