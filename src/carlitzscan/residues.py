"""Arithmetic in Z/p^e Z for odd primes p and exponents 1 <= e <= 4.

Everything here is exact integer arithmetic on plain ints (canonical
residues in [0, p^e)); single inverses come from the builtin
pow(x, -1, m).
"""

from fractions import Fraction
from math import comb

__all__ = [
    "NegativeValuation",
    "OddPrime",
    "is_odd_prime",
    "inverse_range",
    "reduce_rational",
    "binom_pm1",
    "binom_pm1_naive",
    "signed_central_binomial",
    "symmetric_inverse_sums",
    "symmetric_inverse_sums_naive",
]

MAX_PRIME = 2**31  # supported range; keeps p^4 comfortably in a few machine words


class NegativeValuation(ArithmeticError):
    """Raised when a rational has p in its denominator after cancellation."""


_MR_BASES = (2, 3, 5, 7)  # deterministic for n < 3_215_031_751 > 2^31


def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for odd n in (2, 2^31)."""
    if n < 3 or n % 2 == 0 or n >= MAX_PRIME:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OddPrime(int):
    """An int validated to be an odd prime below 2^31."""

    def __new__(cls, value: int) -> "OddPrime":
        if not is_odd_prime(int(value)):
            raise ValueError(f"not an odd prime below 2^31: {value!r}")
        return super().__new__(cls, value)


def inverse_range(n: int, m: int) -> list[int]:
    """Inverses of 1..n mod m by the recurrence 1/k == -(m // k) / (m % k).

    Entry 0 is unused (set to 0).  Since m % k < k, each entry reads an
    earlier one.  Requires m to be a power of a prime > n, so that every
    k <= n and every m % k is a unit.
    """
    inv = [0, 1]
    for k in range(2, n + 1):
        inv.append((m - m // k) * inv[m % k] % m)
    return inv[: n + 1]


def reduce_rational(q: "Fraction | int", p: int, e: int) -> int:
    """Image of an exact rational in Z/p^e Z.

    The p-part of the denominator must cancel against the numerator;
    otherwise the rational has no image and NegativeValuation is raised.
    Postcondition: den * result == num (mod p^e).
    """
    m = p**e
    if isinstance(q, int):
        return q % m
    num, den = q.numerator, q.denominator
    if num == 0:
        return 0
    while den % p == 0:
        if num % p != 0:
            raise NegativeValuation(f"{q} has negative {p}-adic valuation")
        num //= p
        den //= p
    return num * pow(den, -1, m) % m


def binom_pm1(p: int, e: int) -> list[int]:
    """Table of binomial(p-1, k) mod p^e for k = 0 .. p-1.

    Built incrementally: entry(k) = entry(k-1) * (p-k) * inverse(k),
    with the inverses of 1..p-1 batch-computed.  O(p) ring operations.
    Every entry is a unit (binomial(p-1, k) == (-1)^k mod p).
    """
    p = int(OddPrime(p))
    if not 1 <= e <= 4:
        raise ValueError(f"exponent must be in 1..4, got {e}")
    m = p**e
    inv = inverse_range(p - 1, m)
    table = [0] * p
    t = 1
    table[0] = 1
    for k in range(1, p):
        t = t * (p - k) % m * inv[k] % m
        table[k] = t
    return table


def binom_pm1_naive(p: int, e: int) -> list[int]:
    """Same table via exact integer binomials (oracle route)."""
    m = int(p) ** e
    return [comb(p - 1, k) % m for k in range(p)]


def signed_central_binomial(p: int, e: int) -> int:
    """(-1)^((p-1)/2) * binomial(p-1, (p-1)/2) mod p^e, in O(p) multiplications.

    Numerator and denominator products are accumulated separately so a
    single inversion suffices.
    """
    p = int(OddPrime(p))
    if not 1 <= e <= 4:
        raise ValueError(f"exponent must be in 1..4, got {e}")
    m = p**e
    mid = (p - 1) // 2
    num = den = 1
    for k in range(1, mid + 1):
        num = num * (p - k) % m
        den = den * k % m
    c = num * pow(den, -1, m) % m
    return c if mid % 2 == 0 else (m - c) % m


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
    """The same sums by literal enumeration of tuples (oracle route, O(r^3))."""
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
