"""Arithmetic in Z/p^e Z for odd primes p and exponents 1 <= e <= 4.

Everything here is exact integer arithmetic.  Hot paths work on plain
ints (canonical residues in [0, p^e)); the Residue class is a thin
typed wrapper for scalar work at API boundaries.
"""

from fractions import Fraction
from math import comb

__all__ = [
    "NotInvertible",
    "NegativeValuation",
    "OddPrime",
    "ResidueRing",
    "Residue",
    "PadicRational",
    "is_odd_prime",
    "make_ring",
    "mod_pow",
    "mod_inv",
    "egcd",
    "invert_mod",
    "inverse_range",
    "batch_invert",
    "p_valuation",
    "reduce_rational",
    "binom_pm1",
    "binom_pm1_naive",
    "signed_central_binomial",
    "symmetric_inverse_sums",
    "symmetric_inverse_sums_naive",
]

MAX_PRIME = 2**31  # supported range; keeps p^4 comfortably in a few machine words


class NotInvertible(ArithmeticError):
    """Raised when an element shares a factor with the modulus."""


class NegativeValuation(ArithmeticError):
    """Raised when a rational has p in its denominator after cancellation."""


# A p-adic rational is just an exact rational; fractions.Fraction already
# keeps gcd(num, den) = 1 and den > 0, which is all the type promises.
# Its p-valuation is computed on demand by p_valuation().
PadicRational = Fraction

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


class ResidueRing:
    """The ring Z/p^e Z for an odd prime p and 1 <= e <= 4."""

    __slots__ = ("prime", "exponent", "modulus")

    def __init__(self, prime: int, exponent: int):
        if not 1 <= exponent <= 4:
            raise ValueError(f"exponent must be in 1..4, got {exponent}")
        p = OddPrime(prime)
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "modulus", int(p) ** exponent)

    def __setattr__(self, name, value):
        raise AttributeError("ResidueRing is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ResidueRing)
            and self.prime == other.prime
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash((int(self.prime), self.exponent))

    def __repr__(self):
        return f"ResidueRing(p={int(self.prime)}, e={self.exponent})"

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)


def make_ring(p: int, e: int) -> ResidueRing:
    """Build Z/p^e Z, validating p (odd prime < 2^31) and e (1..4)."""
    return ResidueRing(p, e)


class Residue:
    """A canonical residue in a fixed ResidueRing, with operator support."""

    __slots__ = ("value", "ring")

    def __init__(self, value: int, ring: ResidueRing):
        self.value = value % ring.modulus
        self.ring = ring

    def _coerce(self, other) -> int:
        if isinstance(other, Residue):
            if other.ring != self.ring:
                raise ValueError(f"mixed rings: {self.ring} vs {other.ring}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return Residue(self.value + v, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return Residue(self.value - v, self.ring)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return Residue(v - self.value, self.ring)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return v
        return Residue(self.value * v, self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(-self.value, self.ring)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        return Residue(pow(self.value, exp, self.ring.modulus), self.ring)

    def inverse(self) -> "Residue":
        return Residue(invert_mod(self.value, self.ring.modulus), self.ring)

    def __eq__(self, other):
        if isinstance(other, Residue):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.ring.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.ring))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Residue({self.value} mod {self.ring.modulus})"


def mod_pow(base: Residue, exp: int) -> Residue:
    """base**exp in its ring by square-and-multiply (builtin pow)."""
    return base**exp


def mod_inv(x: Residue) -> Residue:
    """Multiplicative inverse in the ring; raises NotInvertible if p | x."""
    return x.inverse()


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def invert_mod(a: int, m: int) -> int:
    """Inverse of a mod m via extended Euclid; NotInvertible if gcd > 1."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise NotInvertible(f"{a} is not invertible mod {m} (gcd {g})")
    return x % m


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


def batch_invert(values: list[int], m: int) -> list[int]:
    """Inverses of an arbitrary list of units mod m, one extended Euclid total."""
    n = len(values)
    pref = [1] * (n + 1)
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % m
        pref[i + 1] = acc
    out = [0] * n
    t = invert_mod(acc, m)
    for i in range(n - 1, -1, -1):
        out[i] = t * pref[i] % m
        t = t * values[i] % m
    return out


def p_valuation(q: "Fraction | int", p: int) -> int:
    """p-adic valuation of a nonzero rational (negative if p divides the denominator)."""
    if q == 0:
        raise ValueError("valuation of 0 is undefined here")
    if isinstance(q, int):
        num, den = q, 1
    else:
        num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def reduce_rational(q: "Fraction | int", ring: ResidueRing) -> int:
    """Image of an exact rational in Z/p^e Z.

    The p-part of the denominator must cancel against the numerator;
    otherwise the rational has no image and NegativeValuation is raised.
    Postcondition: den * result == num (mod p^e).
    """
    if isinstance(q, int):
        return q % ring.modulus
    num, den = q.numerator, q.denominator
    if num == 0:
        return 0
    p = int(ring.prime)
    while den % p == 0:
        if num % p != 0:
            raise NegativeValuation(f"{q} has negative {p}-adic valuation")
        num //= p
        den //= p
    return num * invert_mod(den, ring.modulus) % ring.modulus


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
    c = num * invert_mod(den, m) % m
    return c if mid % 2 == 0 else (m - c) % m


def symmetric_inverse_sums(p: int, r: int, ring: ResidueRing) -> tuple[int, int, int]:
    """Elementary symmetric sums (sigma1, sigma2, sigma3) of 1/1, ..., 1/r in the ring.

    Incremental Newton-style update per added term x = 1/k:
    sigma3 += sigma2*x, sigma2 += sigma1*x, sigma1 += x.  O(r) total.
    """
    if not 0 <= r <= int(ring.prime) - 1:
        raise ValueError(f"r must be in 0..p-1, got {r}")
    m = ring.modulus
    inv = inverse_range(r, m) if r else []
    s1 = s2 = s3 = 0
    for k in range(1, r + 1):
        x = inv[k]
        s3 = (s3 + s2 * x) % m
        s2 = (s2 + s1 * x) % m
        s1 = (s1 + x) % m
    return s1, s2, s3


def symmetric_inverse_sums_naive(p: int, r: int, ring: ResidueRing) -> tuple[int, int, int]:
    """The same sums by literal enumeration of tuples (oracle route, O(r^3))."""
    m = ring.modulus
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
