"""Bernoulli numbers and Fermat quotients, exact and modulo prime powers."""

from fractions import Fraction
from math import comb

from .residues import OddPrime, inverse_range

__all__ = [
    "bernoulli_exact",
    "bernoulli_mod_p",
    "bernoulli_pm3_mod_p",
    "bernoulli_window_mod_p",
    "fermat_quotient_2",
    "fermat_quotients_all_bases",
    "power_sum_mod",
    "smallest_prime_factors",
]

BERNOULLI_CAP = 400

# Exact Bernoulli numbers B_0..B_n, extended on demand.  The list is
# replaced wholesale (never mutated in place), so concurrent readers in
# one process always see a consistent prefix; workers in a process pool
# each grow their own copy.
_bcache: list[Fraction] = [Fraction(1)]


def bernoulli_exact(n: int) -> Fraction:
    """B_n as an exact rational, by the defining recurrence.

    Convention: sum_{j=0}^{n} binomial(n+1, j) B_j = 0 with B_0 = 1,
    so B_1 = -1/2.  Capped at n <= 400; the recurrence is O(n^2) exact
    rational work and is meant for oracle-scale use.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n > BERNOULLI_CAP:
        raise ValueError(f"Bernoulli index capped at {BERNOULLI_CAP}, got {n}")
    global _bcache
    if n >= len(_bcache):
        bs = list(_bcache)
        for m in range(len(bs), n + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += comb(m + 1, j) * bs[j]
            bs.append(-acc / (m + 1))
        _bcache = bs
    return _bcache[n]


_spf_cache: list[int] = []


def smallest_prime_factors(n: int) -> list[int]:
    """Sieve of smallest prime factors for 0..n (spf[k] == k iff k is prime).

    The table is cached per process and only ever grows, so repeated
    scans over a prime range pay for one sieve.
    """
    global _spf_cache
    if n >= len(_spf_cache):
        size = max(n + 1, 2 * len(_spf_cache), 1024)
        spf = list(range(size))
        for q in range(2, int(size**0.5) + 1):
            if spf[q] == q:
                for k in range(q * q, size, q):
                    if spf[k] == k:
                        spf[k] = q
        _spf_cache = spf
    return _spf_cache


def power_sum_mod(p: int, exp: int, e: int = 2) -> int:
    """sum_{k=1}^{p-1} k^exp mod p^e.

    k -> k^exp mod p^e is completely multiplicative, so the sieve of
    smallest prime factors turns the sum into one modular exponentiation
    per prime k plus a single multiplication per composite k: O(p) ring
    operations despite the huge exponent.
    """
    p = int(OddPrime(p))
    m = p**e
    spf = smallest_prime_factors(p - 1)
    powv = [0] * p
    powv[1] = 1
    total = 1
    for k in range(2, p):
        s = spf[k]
        v = pow(k, exp, m) if s == k else powv[s] * powv[k // s] % m
        powv[k] = v
        total += v
    return total % m


def bernoulli_mod_p(p: int, index: int) -> int:
    """B_index mod p for an even index with 2 <= index <= p-3, p >= 5.

    Power-sum extraction, the oracle route for the Voronoi kernel below:
    with S = sum_{k=1}^{p-1} k^index mod p^2, we have
    S == p * B_index (mod p^2), so B_index == (S/p) mod p.
    Why: sum_{k<p} k^index = (B_{index+1}(p) - B_{index+1})/(index+1)
    expands to binomial(index+1, index) B_index p / (index+1) = B_index p
    plus terms carrying p^2 or more.  The nearest such term involves
    B_{index-1}, which vanishes (odd index >= 3), and the von
    Staudt-Clausen p-part of deeper Bernoulli denominators costs at most
    one factor p against p^3, so everything else dies mod p^2.
    """
    p = int(OddPrime(p))
    if p < 5:
        raise ValueError("p must be >= 5 (for p = 3 use B_0 = 1 directly)")
    if index % 2 != 0 or not 2 <= index <= p - 3:
        raise ValueError(f"index must be even in 2..p-3, got {index}")
    s = power_sum_mod(p, index, 2)
    # p | S is guaranteed by the extraction identity
    if s % p != 0:
        raise AssertionError(f"power sum not divisible by p={p}")
    return (s // p) % p


def bernoulli_pm3_mod_p(p: int) -> int:
    """B_(p-3) mod p for p >= 5, by Voronoi's congruence."""
    p = int(OddPrime(p))
    if p < 5:
        raise ValueError("p must be >= 5 (for p = 3 use B_0 = 1 directly)")
    return _voronoi_window(p, [3])[3]


def bernoulli_window_mod_p(p: int, offsets: "list[int] | tuple[int, ...]") -> dict[int, int]:
    """B_(p-j) mod p for each odd offset j in `offsets` (3 <= j <= p-2).

    Same kernel as bernoulli_pm3_mod_p: one inverse table of 1..p/3
    serves every offset.
    """
    p = int(OddPrime(p))
    if p < 5:
        raise ValueError("p must be >= 5")
    offs = sorted(set(int(j) for j in offsets))
    for j in offs:
        if j % 2 == 0 or not 3 <= j <= p - 2:
            raise ValueError(f"offsets must be odd in 3..p-2, got {j}")
    return _voronoi_window(p, offs)


def _voronoi_window(p: int, offsets: list[int]) -> dict[int, int]:
    """B_(p-j) mod p for ascending odd j in 3..p-2 by Voronoi's congruence.

    For an odd c coprime to p, with k = p - j even and x^(k-1) == x^(-j),
    Voronoi's congruence (c^k - 1) B_k == k c^(k-1) sum_x x^(k-1) floor(cx/p)
    folds under x -> p - x to

        (c - c^j) B_(p-j) == 2 j sum_{i=1}^{(c-1)/2} S(floor(i p / c))  (mod p),

    where S(n) = sum_{x=1}^{n} x^(-j).  At c = 3 this is
    2 j T_j / (3 - 3^j) with T_j the sum of x^(-j) over x < p/3.  The
    third-range sum appears in no checked identity (c = 2 would give the
    half-range sum of Lemma 2.1(ii)).  Where 3^(j-1) == 1 (mod p)
    (p = 13, 41, 61, 73 for j <= 13) the next odd c with c^(j-1) != 1
    takes over; one exists below p, since the x with x^(j-1) == 1 form a
    proper subgroup, which cannot be {1, 3, 5, ..., p-2}: that set would
    be the squares, yet 4 is a square.
    """
    out: dict[int, int] = {}
    c = 3
    while len(out) < len(offsets):
        todo = [j for j in offsets if j not in out and (c - pow(c, j, p)) % p]
        if todo:
            out.update(_voronoi_sums(p, c, todo))
        c += 2
    return out


def _voronoi_sums(p: int, c: int, offsets: list[int]) -> dict[int, int]:
    """The folded Voronoi sums at one odd c, for ascending odd offsets."""
    half = c // 2
    cuts = [i * p // c for i in range(half + 1)]
    inv = inverse_range(cuts[-1], p)
    sq = [v * v % p for v in inv]
    powers, exp = inv, 1
    out = {}
    for j in offsets:
        # exponent ladder x^(-1) -> x^(-j) by the gaps between offsets
        step = sq if j - exp == 2 else [pow(v, j - exp, p) for v in inv]
        powers = [a * b % p for a, b in zip(powers, step)]
        exp = j
        run = total = 0
        for lo, hi in zip(cuts, cuts[1:]):
            run += sum(powers[lo + 1 : hi + 1])
            total += run
        out[j] = 2 * j * total * pow(c - pow(c, j, p), -1, p) % p
    return out


def fermat_quotient_2(p: int) -> int:
    """q_2(p) = (2^(p-1) - 1)/p, canonical mod p^3.

    Computed from 2^(p-1) mod p^4 followed by the exact division by p
    that Fermat's little theorem guarantees.
    """
    p = int(OddPrime(p))
    t = pow(2, p - 1, p**4)
    return ((t - 1) // p) % p**3


def fermat_quotients_all_bases(p: int) -> list[int]:
    """q_k(p) = (k^(p-1) - 1)/p mod p for k = 0..p-1 (entries 0, 1 are 0).

    Fermat quotients are additive in the base: q_(jk) == q_j + q_k
    (mod p), so one modular exponentiation per prime base extends to all
    composite bases through the smallest-prime-factor sieve.
    """
    p = int(OddPrime(p))
    m = p * p
    spf = smallest_prime_factors(p - 1)
    q = [0] * p
    for k in range(2, p):
        s = spf[k]
        if s == k:
            q[k] = (pow(k, p - 1, m) - 1) // p
        else:
            q[k] = (q[s] + q[k // s]) % p
    return q
