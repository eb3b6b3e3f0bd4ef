"""Harmonic-type sums over 1..p-1, plain and parity-restricted.

The fast paths are two sweeps per prime over linear inverse tables: the
half-range sums (HalfSums) and the double and triple sums with even
largest index (EvenSums).  The single sums over even k are the
half-range sums scaled by 2^-n, so neither sweep sums them again.  Each
sweep has naive counterparts (full loops, builtin modular inversion)
kept as an oracle.  The verify_* functions read those sums
from a context.PrimeContext and compare them with their closed forms,
which involve the Fermat quotient q2 = (2^(p-1)-1)/p and Bernoulli
residues mod p (also read from the context).
"""

from typing import TYPE_CHECKING, NamedTuple

from .congruences import CongruenceCheck, _check
from .residues import OddPrime, inverse_range

if TYPE_CHECKING:
    from .context import PrimeContext

__all__ = [
    "HalfSums",
    "EvenSums",
    "half_range_sums",
    "even_index_sums",
    "naive_half_harmonic",
    "naive_even_single",
    "naive_even_double",
    "naive_even_triple",
    "verify_lemma_2_1",
    "verify_lemma_2_2",
    "verify_derived_sums",
]

N_CAP = 12


def _validate(p: int) -> int:
    if p < 5:
        raise ValueError("harmonic sums here need p >= 5")
    return int(p)


class HalfSums(NamedTuple):
    """Half-range sums over k <= (p-1)/2: h1 = sum 1/k mod p^3, and
    hn[n] = sum 1/k^n for 2 <= n <= min(N_CAP, p-2), mod p^2 for even n
    and mod p for odd n."""

    h1: int
    hn: dict[int, int]


class EvenSums(NamedTuple):
    """Sums whose largest index k is even: double[(s, t, e)] =
    sum_{j<k} 1/(j^s k^t) mod p^e, and triple = sum_{i<j<k} 1/(ijk) mod p.

    The single sums over even k are the half-range sums scaled, since
    sum_{k even, k<p} 1/k^n = 2^-n sum_{k<=(p-1)/2} 1/k^n: HalfSums
    carries them."""

    double: dict[tuple[int, int, int], int]
    triple: int


def half_range_sums(p: int) -> HalfSums:
    """The half-range sums from one inverse table of 1..(p-1)/2: a ladder of
    list products turns the (n-1)-th powers of the inverses into the n-th."""
    p = _validate(OddPrime(p))
    m3, m2 = p**3, p * p
    inv3 = inverse_range((p - 1) // 2, m3)
    h1 = sum(inv3) % m3
    base = powers = [v % m2 for v in inv3]
    del inv3  # the ladder reads the table mod p^2 only
    hn = {}
    for n in range(2, min(N_CAP, p - 2) + 1):
        powers = [a * b % m2 for a, b in zip(powers, base)]
        hn[n] = sum(powers) % (m2 if n % 2 == 0 else p)
    return HalfSums(h1, hn)


def even_index_sums(p: int) -> EvenSums:
    """The even-largest-index sums in one sweep over an inverse table of 1..p-1.

    Each step takes an odd index (prefixes only) and the even index
    after it.  Running prefixes of 1/j mod p^2 and 1/j^2 mod p feed the
    terms at each even k; the triple sum uses sum_{i<j<=x} 1/(ij) =
    ((sum 1/i)^2 - sum 1/i^2) / 2.  The accumulators are reduced once,
    at the end.
    """
    p = _validate(OddPrime(p))
    m2 = p * p
    inv2 = inverse_range(p - 1, m2)
    pf1_2 = pf2 = 0  # prefixes of 1/j mod p^2 and of 1/j^2 mod p
    d112 = d121 = d211 = triple = 0
    for k in range(2, p, 2):
        y2 = inv2[k - 1]
        y = y2 % p
        pf1_2 = (pf1_2 + y2) % m2
        pf1 = pf1_2 % p
        pf2 = (pf2 + y * y) % p
        x2 = inv2[k]
        x = x2 % p
        xx = x * x % p
        d112 += pf1_2 * x2
        d121 += pf1 * xx
        d211 += pf2 * x
        triple += (pf1 * pf1 - pf2) * x
        pf1_2 += x2
        pf2 += xx
    double = {(1, 1, 2): d112 % m2, (1, 2, 1): d121 % p, (2, 1, 1): d211 % p}
    return EvenSums(double, triple * pow(2, -1, p) % p)


def naive_half_harmonic(p: int, n: int, e: int) -> int:
    """Oracle: term-by-term with builtin modular inversion."""
    m = int(p) ** e
    return sum(pow(k, -n, m) for k in range(1, (p - 1) // 2 + 1)) % m


def naive_even_single(p: int, n: int, e: int) -> int:
    m = int(p) ** e
    return sum(pow(k, -n, m) for k in range(2, p, 2)) % m


def naive_even_double(p: int, s: int, t: int, e: int) -> int:
    """Oracle: the literal sum over every pair j < k, k even."""
    m = int(p) ** e
    inv_s = [pow(j, -s, m) for j in range(1, p)]  # inv_s[j - 1] = 1/j^s
    return sum(pow(k, -t, m) * sum(inv_s[: k - 1]) for k in range(2, p, 2)) % m


def naive_even_triple(p: int) -> int:
    """Oracle: sum_{i<j<k, k even} 1/(ijk) mod p in O(p^2), with a running
    prefix P(j) = sum_{i<j} 1/i, so that the sum is over j < k of
    P(j)/(jk) (independent of the fast path's squared-prefix identity)."""
    inv = [0] + [pow(k, -1, p) for k in range(1, p)]
    acc = 0
    for k in range(2, p, 2):
        prefix = inner = 0
        for j in range(1, k):
            inner += prefix * inv[j]
            prefix += inv[j]
        acc += inner % p * inv[k]
    return acc % p


def verify_lemma_2_1(c: "PrimeContext") -> list[CongruenceCheck]:
    """Closed forms for the half-range sums sum_{k <= (p-1)/2} 1/k^n.

    Part (i), n = 1 mod p^3:
        -2 q2 + p q2^2 - (2/3) p^2 q2^3 - (7/12) p^2 B_(p-3).
    Part (ii), 2 <= n <= min(p-2, N_CAP):
        even n, mod p^2:  n (2^(n+1) - 1) / (2(n+1)) * p * B_(p-n-1);
        odd n,  mod p:    -(2 (2^(n-1) - 1) / n) * B_(p-n).

    The B_(p-j) are read from c.bern, which builds each on its first read.
    """
    p = _validate(c.p)
    m3, m2 = p**3, p * p
    half, bern = c.half_sums, c.bern
    q = c.q2 % m3
    rhs1 = (
        -2 * q
        + p * q * q
        - 2 * p * p * pow(q, 3, m3) * pow(3, -1, m3)
        - 7 * p * p * bern[3] * pow(12, -1, m3)
    ) % m3
    checks = [_check("lemma_2_1_i", p, (), m3, half.h1, rhs1)]
    for n, lhs in half.hn.items():
        if n % 2 == 0:
            coef = n * (pow(2, n + 1, p) - 1) % p * pow(2 * (n + 1), -1, p) % p
            rhs = p * (coef * bern[n + 1] % p) % m2
            modulus = m2
        else:
            rhs = (-2 * (pow(2, n - 1, p) - 1) * pow(n, -1, p) * bern[n]) % p
            modulus = p
        checks.append(_check("lemma_2_1_ii", p, (n,), modulus, lhs, rhs))
    return checks


def verify_lemma_2_2(c: "PrimeContext") -> list[CongruenceCheck]:
    """The two mod-p double sums restricted to even larger index:

        sum 1/(j k^2) == (5/8) B_(p-3),   sum 1/(j^2 k) == -(3/8) B_(p-3).
    """
    p, bpm3 = _validate(c.p), c.bpm3
    d121, d211 = c.even_sums.double[(1, 2, 1)], c.even_sums.double[(2, 1, 1)]
    inv8 = pow(8, -1, p)
    rhs_a = 5 * inv8 * bpm3 % p
    rhs_b = -3 * inv8 * bpm3 % p
    return [
        _check("lemma_2_2_a", p, (), p, d121, rhs_a),
        _check("lemma_2_2_b", p, (), p, d211, rhs_b),
    ]


def verify_derived_sums(c: "PrimeContext") -> list[CongruenceCheck]:
    """The double/triple sums with even larger index against their closed forms.

    With D = sum_{j<k, k even} 1/(jk) mod p^2 and
    T = sum_{i<j<k, k even} 1/(ijk) mod p:

        D == p T + (1/2) q2^2 - (1/3) p q2^3 - (7/24) p B_(p-3)   (mod p^2)
        D == 2 p T + (1/2) q2^2 - (1/6) p q2^3 - (7/48) p B_(p-3) (mod p^2)
        D == (1/2)(q2^2 - p q2^3) - (7/16) p B_(p-3)              (mod p^2)
        T == -(1/6) q2^3 - (7/48) B_(p-3)                         (mod p)

    The first two tie D to T with coefficients 1 and 2; eliminating T
    from the pair yields the last two, so all four are checked.
    """
    p, q2, bpm3 = _validate(c.p), c.q2, c.bpm3
    m2 = p * p
    d, t = c.even_sums.double[(1, 1, 2)], c.even_sums.triple

    def inv(n: int, m: int = p) -> int:
        return pow(n, -1, m)

    q = q2 % m2
    q3p = pow(q2, 3, p)
    qq = q * q % m2
    half_qq = qq * inv(2, m2) % m2
    rhs_2_7 = (p * t + half_qq - p * (q3p * inv(3) % p) - 7 * p * (bpm3 * inv(24) % p)) % m2
    rhs_2_8 = (2 * p * t + half_qq - p * (q3p * inv(6) % p) - 7 * p * (bpm3 * inv(48) % p)) % m2
    rhs_2_9 = ((qq - p * q3p) * inv(2, m2) - 7 * p * (bpm3 * inv(16) % p)) % m2
    rhs_2_10 = (-q3p * inv(6) - 7 * bpm3 * inv(48)) % p

    return [
        _check("eq_2_7", p, (), m2, d, rhs_2_7),
        _check("eq_2_8", p, (), m2, d, rhs_2_8),
        _check("eq_2_9", p, (), m2, d, rhs_2_9),
        _check("eq_2_10", p, (), p, t, rhs_2_10),
    ]
