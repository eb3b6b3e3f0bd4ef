"""Arithmetic in Z/p^e Z for odd primes p and exponents 1 <= e <= 4.

Everything here is exact integer arithmetic on plain ints (canonical
residues in [0, p^e)); single inverses come from the builtin
pow(x, -1, m).
"""

from fractions import Fraction
from math import prod

__all__ = [
    "NegativeValuation",
    "OddPrime",
    "is_odd_prime",
    "inverse_range",
    "reduce_rational",
    "binom_pm1",
    "signed_central_binomials",
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
    """An int validated to be an odd prime below 2^31 (once: an OddPrime passes through)."""

    def __new__(cls, value: int) -> "OddPrime":
        if isinstance(value, OddPrime):
            return value
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


_FACTOR_RUN = 16  # factors multiplied as small ints before each reduction mod the big modulus
# steps a chunk-wide sweep takes between reductions of its state mod the
# chunk's products: each step multiplies by small ints only, so the state
# grows by a few words per run, and most of the divisions are spared
SWEEP_RUN = 8


def signed_central_binomials(primes) -> dict[int, int]:
    """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) mod p^4 for each odd prime p of
    `primes`, from one sweep.

    (-1)^mid C(p-1, mid) = (-1)^mid (p-1)! / mid!^2 with mid = (p-1)/2, so
    one running k! modulo the product of the p^4, read at k = mid and at
    k = p-1, serves every p.  A p's modulus leaves the product once both
    of its readings are taken.  The factors go in by runs of
    _FACTOR_RUN, which spares most reductions of the big product.
    """
    primes = {int(OddPrime(p)) for p in primes}
    m = prod(p**4 for p in primes)
    reads = sorted((pos, p) for p in primes for pos in ((p - 1) // 2, p - 1))
    half, out = {}, {}
    f = k = 1  # f = k! mod m
    for pos, p in reads:
        for lo in range(k + 1, pos + 1, _FACTOR_RUN):
            f = f * prod(range(lo, min(lo + _FACTOR_RUN, pos + 1))) % m
        k, m4, mid = pos, p**4, (p - 1) // 2
        if pos == mid:
            half[p] = f % m4
        else:
            c = f * pow(half.pop(p), -2, m4) % m4
            out[p] = c if mid % 2 == 0 else -c % m4
            m //= m4
            f %= m
    return out
