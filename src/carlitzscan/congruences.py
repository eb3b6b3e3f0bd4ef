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

from fractions import Fraction
from functools import partial
from math import comb, gcd
from typing import TYPE_CHECKING, NamedTuple

from .residues import SWEEP_RUN, binom_pm1, inverse_range, odd_prime, walk_reads

if TYPE_CHECKING:
    from .context import PrimeContext

__all__ = [
    "CongruenceCheck",
    "ExcludedTriple",
    "CD_EXCLUDED",
    "COROLLARY_COEFFICIENTS",
    "theorem_coefficient",
    "staver_sweep",
    "theorem_row",
    "lhs_power_sums_batch",
    "rhs_theorem",
    "verify_theorem_1_1",
    "verify_corollary",
    "verify_morley",
    "verify_carlitz",
    "verify_cai_granville",
    "chamberland_dilcher_sums",
    "chamberland_dilcher_exact",
    "verify_chamberland_dilcher",
    "alternating_square_sum",
    "exact_identity_1_3",
    "exact_identity_1_4",
    "verify_p3_special",
]


class CongruenceCheck(NamedTuple):
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

# a record from the tuple of its fields, built at C speed: tuple.__new__
# skips the NamedTuple's Python-level __new__ (0.22 us against 0.38 us)
_record = partial(tuple.__new__, CongruenceCheck)


def _check(
    identity: str, p: int, params, modulus: int, lhs: int, rhs: int, holds: bool = True
) -> CongruenceCheck:
    """A check whose verdict is lhs == rhs, and False where a side fact fails."""
    return _record((identity, int(p), tuple(params), modulus, lhs, rhs, lhs == rhs and holds))


def theorem_coefficient(a: int) -> Fraction:
    """The correction coefficient a(a-1)(3a-4)/48 as an exact rational."""
    return Fraction(a * (a - 1) * (3 * a - 4), 48)


COROLLARY_COEFFICIENTS = {3: Fraction(5, 8), 4: Fraction(2), 5: Fraction(55, 12)}


def staver_sweep(primes) -> dict[int, int]:
    """S_(-1) = sum_{k=0}^{p-1} 1/C(p-1, k) mod p^4, the alternating power
    sum at a = -1, for each odd prime p of `primes`, from one sweep.

    Staver's identity sum_{k=0}^{n} 1/C(n, k) = (n+1)/2^(n+1) sum_{k=1}^{n+1}
    2^k/k at n = p-1 gives S_(-1) = 1 + p 2^(-p) W, W = sum_{k=1}^{p-1} 2^k/k.
    W is a prefix sum free of p: with g = 2^(k+1) k!, the numerator
    num = k! sum_{j<=k} 2^j/j steps as num = k num + g, so every step
    multiplies by k or 2k only, and at k = p-1, where g = 2^p (p-1)!,
    2^(-p) W = num / g: S_(-1) = 1 + p num / g, which reads num / g mod
    p^3 only.  The state is kept modulo the product of the p^3 still to
    be read (walk_reads).
    """
    num, g, out = 0, 2, {}
    for p, _, k0, k1, (m,) in walk_reads(((p - 1, p, None) for p in primes), (3,)):
        for k in range(k0 + 1, k1 + 1):
            num = k * num + g
            g *= 2 * k
            if k % SWEEP_RUN == 0:
                num, g = num % m, g % m
        p3 = p**3
        out[p] = 1 + p * (num * pow(g, -1, p3) % p3)
    return out


def theorem_row(p: int, moments: tuple[int, int, int], a_values) -> list[tuple[int, int, int]]:
    """(a, S_a, 2^(a(p-1))) mod p^4 for each a of `a_values`, in their order,
    where S_a = sum_{k=0}^{p-1} (-1)^((a-1)k) binomial(p-1, k)^a: the two
    sides of Theorem 1.1 but its correction term, for any a >= 1.

    The left side comes from the moments: the summand is (-1)^k u_k^a, and
    expanding u_k^a = (1 + (u_k - 1))^a binomially up to (u_k - 1)^3 gives
    1 + a M1 + C(a,2) M2 + C(a,3) M3 (the k-sum of (-1)^k is 1), with the
    binomials in plain integer arithmetic.  The right side is t^a for
    t = 2^(p-1), taken once per row by its own pow, not from M1 = t - 1, so
    the two sides stay independent routes; where a steps by 1, t^a is one
    product with the previous power.
    """
    m = p**4
    m1, m2, m3 = moments
    t = pow(2, p - 1, m)
    out = []
    prev, power = 0, 1
    for a in a_values:
        if a < 1:
            raise ValueError(f"a must be >= 1, got {a}")
        power = power * t % m if a == prev + 1 else pow(t, a, m)
        prev = a
        c2 = a * (a - 1) // 2
        out.append((a, (1 + a * m1 + c2 * m2 + c2 * (a - 2) // 3 * m3) % m, power))
    return out


def lhs_power_sums_batch(p: int, a_max: int) -> list[int]:
    """sum_{k=0}^{p-1} (-1)^((a-1)k) binomial(p-1, k)^a mod p^4 for every
    a = 1..a_max; entry [a] is the sum.

    The direct-power oracle route for theorem_row's left side.  The summand is
    (-1)^k u_k^a with u_k = (-1)^k binomial(p-1, k), and a ladder of list
    products turns the (a-1)-th powers of the u_k into the a-th.  The
    terms at k and p-1-k are equal (p-1 is even), so only the half row is
    kept: each k below the middle counts twice and the middle once.
    """
    p = int(odd_prime(p))
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    m = p**4
    mid = (p - 1) // 2
    row = binom_pm1(p, 4)
    base = powers = [m - row[k] if k & 1 else row[k] for k in range(mid + 1)]
    del row
    mid_sign = -1 if mid & 1 else 1
    sums = [0]
    for a in range(1, a_max + 1):
        if a > 1:
            powers = [x * u % m for x, u in zip(powers, base)]
        sums.append((2 * (sum(powers[::2]) - sum(powers[1::2])) - mid_sign * powers[mid]) % m)
    return sums


def _correction(p: int, bpm3: "int | None") -> int:
    """p^3 B / 48 mod p^4, which times a(a-1)(3a-4) is Theorem 1.1's
    correction: B is `bpm3`, B_(p-3) mod p (the p^3 in front makes that
    enough), for p >= 5, and B_0 = 1 at p = 3, where the 3 in 48 cancels
    against p^3 before the rest of 48 is inverted mod p^4."""
    g, m = gcd(48, p), p**4
    return (1 if p == 3 else bpm3) * (p**3 // g) * pow(48 // g, -1, m) % m


def rhs_theorem(p: int, a: int, bpm3: "int | None") -> int:
    """2^(a(p-1)) + (a(a-1)(3a-4)/48) p^3 B_(p-3) mod p^4, the right side of
    Theorem 1.1 built for one a: carlitz reads it at a = 2, and the tests
    compare theorem_row's records with it.  `bpm3` is B_(p-3) mod p, not
    read at p = 3 (see _correction)."""
    p = int(odd_prime(p))
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    m = p**4
    return (pow(2, a * (p - 1), m) + a * (a - 1) * (3 * a - 4) * _correction(p, bpm3)) % m


def verify_theorem_1_1(c: "PrimeContext", a_values) -> list[CongruenceCheck]:
    """Check the headline congruence at c.p for each a of `a_values`, both
    sides mod p^4, from the context's theorem_row of `a_values`, with
    p^3 B / 48 taken once for the row."""
    p = int(c.p)
    m, corr = p**4, _correction(p, c.bpm3)
    return [_record(("theorem_1_1", p, (a,), m, lhs, rhs, lhs == rhs))
            for a, lhs, power in c.row(a_values)
            for rhs in [(power + a * (a - 1) * (3 * a - 4) * corr) % m]]


def verify_corollary(c: "PrimeContext", a_values=(3, 4, 5)) -> list[CongruenceCheck]:
    """The a = 3, 4, 5 specializations with their stated coefficients.

    Both sides are the theorem's at a; the verdict also requires the
    stated coefficient (5/8, 2, 55/12) to equal a(a-1)(3a-4)/48.
    """
    out = []
    for t in verify_theorem_1_1(c, a_values):
        (a,) = t.params
        if a not in COROLLARY_COEFFICIENTS:
            raise ValueError(f"corollary is stated for a in (3, 4, 5), got {a}")
        holds = COROLLARY_COEFFICIENTS[a] == theorem_coefficient(a)
        out.append(_check(f"corollary_a{a}", t.p, t.params, t.modulus, t.lhs, t.rhs, holds))
    return out


def verify_morley(c: "PrimeContext") -> CongruenceCheck:
    """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) == 4^(p-1) mod p^3, p >= 5."""
    p = int(c.p)
    if p < 5:
        raise ValueError("Morley's congruence needs p >= 5")
    m = p**3
    return _check("morley", p, (), m, c.central4 % m, pow(4, p - 1, m))


def verify_carlitz(c: "PrimeContext") -> CongruenceCheck:
    """Central binomial congruence sharpened to mod p^4, every odd prime.

    (-1)^((p-1)/2) binomial(p-1, (p-1)/2)
        == 4^(p-1) + (1/12) p^3 B_(p-3)   (mod p^4).

    The right side is rhs_theorem's at a = 2, where a(a-1)(3a-4)/48 = 1/12.
    """
    p = int(c.p)
    return _check("carlitz", p, (), p**4, c.central4, rhs_theorem(c.p, 2, c.bpm3))


def verify_cai_granville(c: "PrimeContext", a_values) -> list[CongruenceCheck]:
    """The mod-p^3 statement: the alternating power sum == 2^(a(p-1)), p >= 5,
    for each a of `a_values`, from the context's theorem_row of `a_values`."""
    p = int(c.p)
    if p < 5:
        raise ValueError("the mod-p^3 statement needs p >= 5")
    m = p**3
    return [_record(("cai_granville", p, (a,), m, lhs := s % m, rhs := power % m, lhs == rhs))
            for a, s, power in c.row(a_values)]


def chamberland_dilcher_sums(p: int, triples) -> dict[tuple[int, int, int], int]:
    """u = sum_{k=0}^{2p} (-1)^(eps k) binomial(p, k)^a binomial(2p, k)^b
    mod p^3 for each (eps, a, b) of `triples`, keyed by the triple.

    The two binomial rows are built once, mod p^3, and every triple sums
    over them.  Every denominator below p is a unit, binomial(p, p) = 1,
    binomial(2p, p) = 2 prod_{i<p} (p+i)/i and binomial(2p, k) =
    binomial(2p, 2p-k), so no row divides by p; reduction mod p^3
    commutes with the powers, so a term of valuation >= 3 is simply 0.
    With a >= 1 the sum stops at k = p; a = 0 reads binomial(p, k)^0 = 1
    up to k = 2p, as the exact route does.
    """
    p = int(odd_prime(p))
    m3 = p**3
    inv = inverse_range(p - 1, m3)
    row1, half, central = [1], [1], 2
    for k in range(1, p):
        row1.append(row1[-1] * (p - k + 1) % m3 * inv[k] % m3)
        half.append(half[-1] * (2 * p - k + 1) % m3 * inv[k] % m3)
        central = central * (p + k) % m3 * inv[k] % m3
    del inv
    row1 += [1] + [0] * p  # binomial(p, k) = 0 past k = p
    row2 = half + [central] + half[::-1]
    out = {}
    for eps, a, b in triples:
        if eps not in (0, 1) or a < 0 or b < 0:
            raise ValueError("need eps in (0, 1) and a, b >= 0")
        n = p + 1 if a else 2 * p + 1
        even, odd = (sum(pow(x, a, m3) * pow(y, b, m3) for x, y in zip(row1[i:n:2], row2[i:n:2])) for i in (0, 1))
        out[eps, a, b] = (even - odd if eps else even + odd) % m3
    return out


def chamberland_dilcher_exact(p: int, eps: int, a: int, b: int) -> int:
    """Oracle route: the same u-sum over exact integer binomials, mod p^3."""
    m3 = int(p) ** 3
    total = 0
    c1 = c2 = 1  # binomial(p, k) and binomial(2p, k); c1 reaches 0 past k = p
    for k in range(2 * p + 1):
        t = pow(c1, a, m3) * pow(c2, b, m3)
        total += -t if (eps and k & 1) else t
        c1 = c1 * (p - k) // (k + 1)
        c2 = c2 * (2 * p - k) // (k + 1)
    return total % m3


def verify_chamberland_dilcher(c: "PrimeContext", eps: int, a: int, b: int) -> CongruenceCheck:
    """u == 1 + (-1)^eps 2^b mod p^3 for p >= 5, outside the two excluded triples.

    (eps, a, b) = (0, 0, 1) and (0, 1, 0) are the known failures and are
    rejected up front.  The guarantee is stated for a >= 1 (for a = 0
    the sum no longer truncates at k = p and the congruence can fail);
    a = 0 requests are still computed and judged as-is.
    """
    p = int(c.p)
    if p < 5:
        raise ValueError("the u-sum congruence needs p >= 5")
    if (eps, a, b) in CD_EXCLUDED:
        raise ExcludedTriple(f"(eps, a, b) = {(eps, a, b)} is a known exception")
    m3 = p**3
    return _check("chamberland_dilcher", p, (eps, a, b), m3, c.cd[eps, a, b], (1 + (-1) ** eps * pow(2, b, m3)) % m3)


def _alternating_binomial_sum(n: int, e: int) -> int:
    """sum_{k=0}^{2n} (-1)^k binomial(2n, k)^e, exact."""
    acc = 0
    c = 1
    for k in range(2 * n + 1):
        acc += c**e if k % 2 == 0 else -(c**e)
        c = c * (2 * n - k) // (k + 1)
    return acc


def alternating_square_sum(n: int) -> int:
    """sum_{k=0}^{2n} (-1)^k binomial(2n, k)^2, exact."""
    return _alternating_binomial_sum(n, 2)


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
    central = comb(2 * n, n) * comb(3 * n, n)
    rhs = central if n % 2 == 0 else -central
    return _check("exact_1_4", n, (n,), 0, _alternating_binomial_sum(n, 3), rhs)


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
        and combined.denominator % 3 != 0
        and combined.numerator % 81 == 0
    )
    return _check("p3_special", 3, (a,), 81, lhs, rhs, bookkeeping)
