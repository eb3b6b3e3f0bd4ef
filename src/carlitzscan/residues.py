"""Arithmetic in Z/p^e Z for odd primes p and exponents 1 <= e <= 4.

Everything here is exact integer arithmetic on plain ints (canonical
residues in [0, p^e)); single inverses come from the builtin
pow(x, -1, m).  The odd-prime sieve lives here too, one flag byte per odd
number: the CLI scans the primes `sieve_odd_primes` reads out of the
flags, as OddPrimes built without a second test, and the central
binomial's start multiplies primes straight off them.
"""

from itertools import chain, compress, islice
from math import isqrt, prod
from operator import itemgetter

__all__ = [
    "OddPrime",
    "odd_prime",
    "is_odd_prime",
    "sieve_odd_primes",
    "inverse_range",
    "binom_pm1",
    "walk_reads",
    "signed_central_binomials",
]

MAX_PRIME = 2**31  # supported range; keeps p^4 comfortably in a few machine words


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


_SEGMENT = 1 << 20  # odd numbers a segment flags, one byte each


def _odd_flags(lo: int, hi: int):
    """Yield (start, flags) over the odd numbers of [lo, hi], one segment at
    a time: start is odd, and flags[i] is 1 exactly when start + 2 i is prime."""
    small = sieve_odd_primes(3, isqrt(hi)) if hi > 8 else []  # 9 is the first odd composite
    for start in range(max(lo, 3) | 1, hi + 1, 2 * _SEGMENT):
        flags = bytearray([1]) * min(_SEGMENT, (hi - start) // 2 + 1)
        for q in small:  # from q^2 on, each q strikes its odd multiples
            i = (max(q, -(-start // q) | 1) * q - start) // 2
            flags[i::q] = bytearray(len(range(i, len(flags), q)))
        yield start, flags
        del flags  # so the next segment is built once the caller drops this one


def sieve_odd_primes(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi], read out of _odd_flags' segments."""
    return list(chain.from_iterable(compress(range(s, s + 2 * len(f), 2), f) for s, f in _odd_flags(lo, hi)))


class OddPrime(int):
    """An int validated to be an odd prime below 2^31 (once: an OddPrime
    passes through, and its copies and pickles are rebuilt untested)."""

    def __new__(cls, value: int) -> "OddPrime":
        if isinstance(value, OddPrime):
            return value
        if not is_odd_prime(int(value)):
            raise ValueError(f"not an odd prime below 2^31: {value!r}")
        return super().__new__(cls, value)

    @classmethod
    def proven(cls, value: int) -> "OddPrime":
        """An OddPrime built without the test, for a `value` already proved
        an odd prime below 2^31: one of sieve_odd_primes' primes, say."""
        return int.__new__(cls, value)

    def __reduce__(self):
        return OddPrime.proven, (int(self),)


def odd_prime(p: int) -> OddPrime:
    """p as an OddPrime: p itself if it is one, which skips even the class's
    Python-level __new__ (about 0.04 us against 0.12 us a call), else
    OddPrime(p), which tests it."""
    return p if type(p) is OddPrime else OddPrime(p)


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


def binom_pm1(p: int, e: int) -> list[int]:
    """Table of binomial(p-1, k) mod p^e for k = 0 .. p-1.

    Built incrementally: entry(k) = entry(k-1) * (p-k) * inverse(k),
    with the inverses of 1..p-1 batch-computed.  O(p) ring operations.
    Every entry is a unit (binomial(p-1, k) == (-1)^k mod p).
    """
    p = int(odd_prime(p))
    if not 1 <= e <= 4:
        raise ValueError(f"exponent must be in 1..4, got {e}")
    m = p**e
    inv = inverse_range(p - 1, m)
    table = [1]
    for k in range(1, p):
        table.append(table[-1] * (p - k) % m * inv[k] % m)
    return table


_FACTOR_RUN = 16  # factors multiplied as small ints before each reduction mod the big modulus
# steps a chunk-wide sweep takes between reductions of its state mod the
# chunk's products: each step multiplies by small ints only, so the state
# grows by a few words per run, and most of the divisions are spared
SWEEP_RUN = 8


def walk_reads(reads, exponents):
    """Yield a sweep's reads (x, p, tag) by x as (p, tag, x0, x, moduli): walk
    (x0, x], from the previous read's x or 0, then read at p, an int.  moduli[i]
    is the product of q**exponents[i] over the primes q still to be read, cut
    in place.  Each p but an OddPrime is proved once, as its first read is drawn."""
    proved, walk = {}, []
    for x, p, tag in reads:
        if p not in proved:
            proved[p] = int(odd_prime(p))
        walk.append((x, proved[p], tag))
    walk.sort(key=itemgetter(0))
    last = {p: i for i, (_, p, _) in enumerate(walk)}
    moduli = [prod(proved.values()) ** e for e in exponents]
    for i, (x, p, tag) in enumerate(walk):
        yield p, tag, walk[i - 1][0] if i else 0, x, moduli
        if last[p] == i:
            for j, e in enumerate(exponents):
                moduli[j] //= p**e


def _runs_mod(factors, count: int, m: int, acc: int = 1) -> int:
    """acc times the product of the first `count` of `factors` mod m, in runs of _FACTOR_RUN."""
    factors = iter(factors)
    for _ in range(0, count, _FACTOR_RUN):
        acc = acc * prod(islice(factors, _FACTOR_RUN)) % m
    return acc


def _central_binomial_mod(mid: int, m: int) -> int:
    """C(2 mid, mid) mod m from its prime factorisation (Kummer).

    Each prime q <= n = 2 mid enters to the power
    sum_i (floor(n/q^i) - 2 floor(mid/q^i)).  For q > sqrt(n) only i = 1
    counts, and the power is 1 exactly when v = n // q is odd: those primes
    stream out of the odd flags of (sqrt(n), n], the span (n // (v+1), n // v]
    of each odd v in turn, and none is held in a list.
    """
    n, root, acc = 2 * mid, max(isqrt(2 * mid), 2), 1
    for q in [2] + sieve_odd_primes(3, root):
        e, qi = 0, q
        while qi <= n:
            e += n // qi - 2 * (mid // qi)
            qi *= q
        acc *= q**e  # each q^e <= n, so acc < n^pi(sqrt(n)) until the first run reduces it
    for start, flags in _odd_flags(root + 1, n):
        last, view = start + 2 * len(flags) - 2, memoryview(flags)
        for v in range(n // last | 1, n // start + 1, 2):  # the segment's odd n // q
            lo, hi = max(n // (v + 1), start - 1), min(n // v, last)
            i, k = (lo + 2 - start) // 2, (hi - start) // 2 + 1
            acc = _runs_mod(compress(range(start + 2 * i, start + 2 * k, 2), view[i:k]), flags.count(1, i, k), m, acc)
        view.release()
        del flags, view  # one segment at a time: the next is built after this one is freed
    return acc % m


def signed_central_binomials(primes) -> dict[int, int]:
    """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) mod p^4 for each odd prime p of
    `primes`, from one sweep.

    With mid = (p-1)/2, the sweep's first segment takes C(2 mid, mid) from
    its prime factorisation modulo the product of the p^4
    (_central_binomial_mod).  Each later one walks to its prime's mid by
    C(2k+2, k+1) = C(2k, k) * 2(2k+1) / (k+1), kept as a running
    numerator and denominator: every k+1 <= mid < p for each p still in
    the product, so the denominator stays a unit.  The factors go in by
    runs of _FACTOR_RUN, which spares most reductions of the big product.
    """
    num, den, out = 1, 1, {}
    for p, _, k, mid, (m,) in walk_reads((((p - 1) // 2, p, None) for p in primes), (4,)):
        if k:
            num = _runs_mod(range(4 * k + 2, 4 * mid, 4), mid - k, m, num)  # 2(2i+1) for k <= i < mid
            den = _runs_mod(range(k + 1, mid + 1), mid - k, m, den)
        else:
            num = _central_binomial_mod(mid, m)
        m4 = p**4
        c = num * pow(den, -1, m4) % m4
        out[p] = c if mid % 2 == 0 else -c % m4
    return out
