"""Routes only the tests read: per-prime references and the product expansion
behind acceptance criterion 11.  Nothing in the package calls them."""

from math import comb

from carlitzscan.harmonic import EvenSums
from carlitzscan.residues import OddPrime, inverse_range


def lhs_power_sum_exact(p: int, a: int) -> int:
    """sum_{k=0}^{p-1} (-1)^((a-1)k) binomial(p-1, k)^a over exact integer
    binomials, reduced mod p^4: the reference for lhs_power_sums_batch."""
    m = int(p) ** 4
    acc = 0
    for k in range(p):
        t = comb(p - 1, k) ** a
        # (-1)^((a-1)k) is -1 iff a-1 and k are both odd
        acc += -t if a % 2 == 0 and k % 2 == 1 else t
    return acc % m


def alternating_square_sum_printed_limit(n: int) -> int:
    """sum_{k=0}^{n} (-1)^k binomial(2n, k)^2, exact: the sum with the
    upper limit it is sometimes printed with.  Truncation breaks the
    identity already at n = 1 (-3 vs -2), so the full range 0..2n is the
    one verified."""
    return sum((-1) ** k * comb(2 * n, k) ** 2 for k in range(n + 1))


def binom_pm1_naive(p: int, e: int) -> list[int]:
    """binomial(p-1, k) mod p^e for k = 0..p-1 via exact integer binomials."""
    m = int(p) ** e
    return [comb(p - 1, k) % m for k in range(p)]


def symmetric_inverse_sums(p: int, r: int, e: int) -> tuple[int, int, int]:
    """Elementary symmetric sums (sigma1, sigma2, sigma3) of 1/1, ..., 1/r mod p^e.

    Incremental Newton-style update per added term x = 1/k:
    sigma3 += sigma2*x, sigma2 += sigma1*x, sigma1 += x.  O(r) total.
    """
    if not 0 <= r <= p - 1:
        raise ValueError(f"r must be in 0..p-1, got {r}")
    m = p**e
    inv = inverse_range(r, m) if r else []
    s1 = s2 = s3 = 0
    for k in range(1, r + 1):
        x = inv[k]
        s3 = (s3 + s2 * x) % m
        s2 = (s2 + s1 * x) % m
        s1 = (s1 + x) % m
    return s1, s2, s3


def symmetric_inverse_sums_naive(p: int, r: int, e: int) -> tuple[int, int, int]:
    """The same sums by literal enumeration of tuples (O(r^3))."""
    m = p**e
    inv = [0] + [pow(k, -1, m) for k in range(1, r + 1)]
    s1 = sum(inv[1:]) % m
    s2 = 0
    for k in range(2, r + 1):
        for j in range(1, k):
            s2 = (s2 + inv[j] * inv[k]) % m
    s3 = 0
    for k in range(3, r + 1):
        for j in range(2, k):
            x = inv[j] * inv[k] % m
            for i in range(1, j):
                s3 = (s3 + inv[i] * x) % m
    return s1, s2, s3


def naive_even_single(p: int, n: int, e: int) -> int:
    """sum_{k even, k<p} 1/k^n mod p^e, term by term."""
    m = int(p) ** e
    return sum(pow(k, -n, m) for k in range(2, p, 2)) % m


def even_index_sums(p: int) -> EvenSums:
    """The even-largest-index sums in one sweep over an inverse table of 1..p-1.

    Each step takes an odd index (prefixes only) and the even index
    after it.  Running prefixes of 1/j mod p^2 and 1/j^2 mod p feed the
    terms at each even k; the triple sum uses sum_{i<j<=x} 1/(ij) =
    ((sum 1/i)^2 - sum 1/i^2) / 2.  The accumulators are reduced once,
    at the end.

    The second reference for even_index_sweep: its squared-prefix
    identity shares no step with the sweep or the naive sums, which the
    oracle compares with the sweep, p <= 1000.
    """
    p = int(OddPrime(p))
    if p < 5:
        raise ValueError("harmonic sums here need p >= 5")
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
