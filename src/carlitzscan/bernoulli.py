"""Bernoulli numbers and Fermat quotients, exact and modulo prime powers."""

from fractions import Fraction
from math import comb

from .residues import SWEEP_RUN, odd_prime, walk_reads

__all__ = [
    "bernoulli_exact",
    "bernoulli_mod_p",
    "bernoulli_pm3_mod_primes",
    "fermat_quotient_2",
    "power_sum_mod",
    "smallest_prime_factors",
    "voronoi_fold",
]

BERNOULLI_CAP = 400

# Exact Bernoulli numbers B_0..B_n, extended on demand.  The list is
# replaced wholesale (never mutated in place), so concurrent readers in
# one process always see a consistent prefix; a scan's forked workers
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
    p = int(odd_prime(p))
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

    Power-sum extraction, the oracle's route for the B_(p-j) that the
    chunk sweeps take from Voronoi's congruence (voronoi_fold, and its
    c = 2, 3, 6 fold in bernoulli_pm3_mod_primes): with
    S = sum_{k=1}^{p-1} k^index mod p^2, we have
    S == p * B_index (mod p^2), so B_index == (S/p) mod p.
    Why: sum_{k<p} k^index = (B_{index+1}(p) - B_{index+1})/(index+1)
    expands to binomial(index+1, index) B_index p / (index+1) = B_index p
    plus terms carrying p^2 or more.  The nearest such term involves
    B_{index-1}, which vanishes (odd index >= 3), and the von
    Staudt-Clausen p-part of deeper Bernoulli denominators costs at most
    one factor p against p^3, so everything else dies mod p^2.
    """
    p = int(odd_prime(p))
    if p < 5:
        raise ValueError("p must be >= 5 (for p = 3 use B_0 = 1 directly)")
    if index % 2 != 0 or not 2 <= index <= p - 3:
        raise ValueError(f"index must be even in 2..p-3, got {index}")
    s = power_sum_mod(p, index, 2)
    # p | S is guaranteed by the extraction identity
    if s % p != 0:
        raise AssertionError(f"power sum not divisible by p={p}")
    return (s // p) % p


# the x^(-3) sum behind B_(p-3) takes every x up to PM3_FULL and only the
# odd x beyond; below 166 = 997 // 6, so primes under the oracle's cap of
# 1000 read the odd walk too (787..997 at 128)
PM3_FULL = 128


def _cube_walk(step: int, reads, sums: dict) -> None:
    """Add 8^(-a) times the sum of x^(-3) over x = 1, 1 + step, ... <= pos to
    sums[p] = [num, den] mod p, for each read (pos, p, a) of `reads`.

    One running fraction modulo the product of the read primes serves
    every read (its denominator, a product of x^3 with x < p, is a unit
    mod each p); it is reduced every SWEEP_RUN steps, and a p leaves the
    product after its last read (residues.walk_reads).
    """
    num, den = 0, 1
    for p, a, pos0, pos, (m,) in walk_reads(reads, (1,)):
        for x in range((pos0 + 1) | (step - 1), pos + 1, step):  # the walk's x in (pos0, pos]
            c = x * x * x
            num = num * c + den
            den *= c
            if x // step % SWEEP_RUN == 0:
                num, den = num % m, den % m
        n, d = num % p, (den % p << 3 * a) % p
        s = sums[p]
        s[0], s[1] = (s[0] * d + n * s[1]) % p, s[1] * d % p


def bernoulli_pm3_mod_primes(primes) -> dict[int, int]:
    """B_(p-3) mod p for each prime p >= 5 of `primes`, from two walks.

    With S(n) = sum_{x<=n} x^(-3), Voronoi's congruence at c = 2, 3 and
    6, folded by x -> p - x, gives S((p-1)/2) == -2B, S(p // 3) == -4B and
    2 S(p // 6) + 2 S(p // 3) + S((p-1)/2) == -70B (mod p), B = B_(p-3);
    hence B_(p-3) == -S(p // 6)/30, for p >= 7.  (At p = 5 the factor 30
    vanishes mod p, and B_2 = 1/6 == 1 is taken exactly.)  x^(-3) is
    completely multiplicative and each x is 2^a y with y odd, so

        S(n) = sum_{a>=0} 8^(-a) O(n >> a),   O(n) = sum_{odd y<=n} y^(-3),

    and the tail from any level a on is 8^(-a) S(n >> a).  So a prime
    reads the odd walk at (p // 6) >> a while that exceeds PM3_FULL, then
    the full walk once, at the first (p // 6) >> a <= PM3_FULL: about
    p/12 steps in all, half of one walk over every x to p // 6.  Both
    walks are prefix sums free of p, shared by the whole chunk; each prime
    keeps its sum as a fraction mod p and takes one inverse.
    """
    # a plain int is tested here, once: both walks pass the OddPrimes untested
    primes = {odd_prime(p) for p in primes}
    if 3 in primes:
        raise ValueError("p must be >= 5 (for p = 3 use B_0 = 1 directly)")
    out = {5: 1} if 5 in primes else {}
    primes.discard(5)
    odd, full = [], []
    for p in primes:
        n, a = p // 6, 0
        while n > PM3_FULL:
            odd.append((n, p, a))
            n, a = n >> 1, a + 1
        full.append((n, p, a))
    sums = {int(p): [0, 1] for p in primes}
    _cube_walk(2, odd, sums)
    _cube_walk(1, full, sums)
    for p, (num, den) in sums.items():
        out[p] = -num * pow(30 * den, -1, p) % p
    return out


def voronoi_fold(p: int, j: int) -> tuple[int, list[int]]:
    """The factor 2j / (c - c^j) mod p of Voronoi's congruence for
    B_(p-j) mod p at the odd offset j (3 <= j <= p-2), and its cuts
    floor(i p / c) for i = 1..(c-1)/2: B_(p-j) is the factor times the
    sum over the cuts n of S(n) = sum_{x=1}^{n} x^(-j) mod p.

    For an odd c coprime to p, with k = p - j even and x^(k-1) == x^(-j),
    Voronoi's congruence (c^k - 1) B_k == k c^(k-1) sum_x x^(k-1) floor(cx/p)
    folds under x -> p - x to

        (c - c^j) B_(p-j) == 2 j sum_{i=1}^{(c-1)/2} S(floor(i p / c))  (mod p).

    At c = 3 this is 2 j T_j / (3 - 3^j) with T_j the sum of x^(-j) over
    x < p/3.  The third-range sum appears in no checked identity (c = 2
    would give the half-range sum of Lemma 2.1(ii)).  Where 3^(j-1) == 1
    (mod p) (p = 13, 41, 61, 73 for j <= 13) the next odd c with
    c^(j-1) != 1 takes over; one exists below p, since the x with
    x^(j-1) == 1 form a proper subgroup, which cannot be
    {1, 3, 5, ..., p-2}: that set would be the squares, yet 4 is a square.
    """
    c = 3
    while (d := (c - pow(c, j, p)) % p) == 0:
        c += 2
    return 2 * j * pow(d, -1, p) % p, [i * p // c for i in range(1, c // 2 + 1)]


def fermat_quotient_2(p: int) -> int:
    """q_2(p) = (2^(p-1) - 1)/p, canonical mod p^3.

    Computed from 2^(p-1) mod p^4 followed by the exact division by p
    that Fermat's little theorem guarantees.
    """
    p = int(odd_prime(p))
    t = pow(2, p - 1, p**4)
    return ((t - 1) // p) % p**3
