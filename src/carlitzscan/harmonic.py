"""Harmonic-type sums over 1..p-1, plain and parity-restricted.

The half-range sums with lemma 2.1's Bernoulli window (HalfSums) and the
double and triple sums with even largest index (EvenSums) come from two
sweeps over a chunk of primes at once: inverse_power_sweep and
even_index_sweep.  The single sums over even k are the half-range sums
scaled by 2^-n, so neither sweep sums them again.  The naive loops
(builtin modular inversion) are the oracle's routes.  The verify_*
functions read those sums from a context.PrimeContext and compare them
with their closed forms, which involve the Fermat quotient
q2 = (2^(p-1)-1)/p and Bernoulli residues mod p (also read from the
context).
"""

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .bernoulli import voronoi_fold
from .congruences import CongruenceCheck, _check
from .residues import SWEEP_RUN, walk_reads

if TYPE_CHECKING:
    from .context import PrimeContext

__all__ = [
    "HalfSums",
    "EvenSums",
    "inverse_power_sweep",
    "even_index_sweep",
    "naive_half_harmonic",
    "naive_even_double",
    "naive_even_triple",
    "verify_lemma_2_1",
    "verify_lemma_2_2",
    "verify_derived_sums",
]

N_CAP = 12

# lemma 2.1 (ii): the half-range sum of 1/k^n is this times p B_(p-n-1) mod p^2 (even n) or B_(p-n) mod p
LEMMA_2_1_COEFFICIENTS = {n: Fraction(n * (2 ** (n + 1) - 1), 2 * (n + 1)) if n % 2 == 0
                          else Fraction(-2 * (2 ** (n - 1) - 1), n) for n in range(2, N_CAP + 1)}


def _validate(p: int) -> int:
    if p < 5:
        raise ValueError("harmonic sums here need p >= 5")
    return int(p)


class HalfSums(NamedTuple):
    """Half-range sums over k <= (p-1)/2: h1 = sum 1/k mod p^3, and
    hn[n] = sum 1/k^n for 2 <= n <= min(N_CAP, p-2), mod p^2 for even n
    and mod p for odd n; with window[j] = B_(p-j) mod p for the odd
    j in 5..min(N_CAP + 1, p - 2), which lemma 2.1 reads beside B_(p-3)
    on the right-hand sides of those sums."""

    h1: int
    hn: dict[int, int]
    window: dict[int, int]


class EvenSums(NamedTuple):
    """Sums whose largest index k is even: double[(s, t, e)] =
    sum_{j<k} 1/(j^s k^t) mod p^e, and triple = sum_{i<j<k} 1/(ijk) mod p.

    The single sums over even k are the half-range sums scaled, since
    sum_{k even, k<p} 1/k^n = 2^-n sum_{k<=(p-1)/2} 1/k^n: HalfSums
    carries them."""

    double: dict[tuple[int, int, int], int]
    triple: int


def _window_offsets(p: int) -> range:
    """The odd offsets j >= 5 of the B_(p-j) that lemma 2.1 reads beside B_(p-3)."""
    return range(5, min(N_CAP + 1, p - 2) + 1, 2)


def _power_sums(es: list[int], m: int) -> list[int]:
    """[0, p_1, ..., p_t] mod m from es = [1, e_1, ..., e_t] by Newton's identities,
    p_n = (-1)^(n-1) n e_n + sum_{i<n} (-1)^(i-1) e_i p_(n-i): no division."""
    ps = [0]
    for n in range(1, len(es)):
        acc = n * es[n] if n & 1 else -n * es[n]
        for i in range(1, n):
            acc += es[i] * ps[n - i] if i & 1 else -es[i] * ps[n - i]
        ps.append(acc % m)
    return ps


def inverse_power_sweep(primes) -> dict[int, HalfSums]:
    """The half-range sums and lemma 2.1's Bernoulli window (HalfSums) for
    each prime p >= 5 of `primes`, from one sweep.

    The power sums of 1/1, ..., 1/x follow by Newton's identities from the
    elementary symmetric sums e_j = c_j / x!, where c_j(x) = x c_j(x-1) +
    c_(j-1)(x-1) and c_0 = x! are free of p, so one sweep of c_0..c_13 over
    x, multiplying by x only, serves every p.  It is read at x = (p-1)/2
    for the half-range sums, and at voronoi_fold's cuts (x = p // 3 but at
    p = 13, 41, 61, 73) for the window: B_(p-j) is voronoi_fold's factor
    times the sum of x^(-j) read at the cuts.  All of c_0..c_13 are kept
    modulo the product of the p^3 (h1 is read mod p^3): c_(j-1) is added
    into c_j at each step, so a narrower modulus for the higher c_j would
    divide c_1's wide carries by it at every reduction.
    """
    def reads():  # (x, p, the offsets j read); p's middle first, so walk_reads proves p before voronoi_fold
        for p in set(primes):
            q = _validate(p)
            yield (q - 1) // 2, p, ()
            cuts = defaultdict(list)
            for j in _window_offsets(q):
                folds[q, j], xs = voronoi_fold(q, j)
                for x in xs:
                    cuts[x].append(j)
            yield from ((x, p, offsets) for x, offsets in cuts.items())

    folds, totals, out = {}, defaultdict(int), {}  # folds[p, j]: voronoi_fold's factor
    c = [1] + [0] * (N_CAP + 1)
    for p, offsets, x0, x, (m,) in walk_reads(reads(), (3,)):
        for k in range(x0 + 1, x + 1):
            c = [k * a + b for a, b in zip(c, [0, *c])]
            if k % SWEEP_RUN == 0:
                c = [v % m for v in c]
        if offsets:
            g = pow(c[0], -1, p)
            ps = _power_sums([1] + [v * g % p for v in c[1 : max(offsets) + 1]], p)
            for j in offsets:
                totals[p, j] += ps[j]
            continue
        p2, p3, n_top = p * p, p**3, min(N_CAP, p - 2)
        g = pow(c[0], -1, p3)
        ps = _power_sums([1] + [v * g % p2 for v in c[1 : n_top + 1]], p2)
        hn = {n: ps[n] if n % 2 == 0 else ps[n] % p for n in range(2, n_top + 1)}
        window = {j: folds[p, j] * totals[p, j] % p for j in _window_offsets(p)}
        out[p] = HalfSums(c[1] * g % p3, hn, window)
    return out


def even_index_sweep(primes) -> dict[int, EvenSums]:
    """The even-largest-index sums (EvenSums) for each prime p >= 5 of
    `primes`, from one sweep over k = 1..p-1.

    With f = k! and the numerators c1 = f H1(k), c2 = f e2(k) and
    q = f^2 H2(k) of the prefix sums H1 = sum 1/j, H2 = sum 1/j^2 and
    e2 = sum_{i<j} 1/(ij), the terms at an even k are

        H1(k-1)/k = c1(k-1) / k!,            e2(k-1)/k = c2(k-1) / k!,
        H1(k-1)/k^2 = c1(k-1) (k-1)! / k!^2,  H2(k-1)/k = k q(k-1) / k!^2,

    each added to a running numerator over k! or k!^2.  The state is free
    of p and every step multiplies by k or k^2 only.  The double sum read
    mod p^2, its inputs, and c2 and t, which take c1's carries, are kept
    modulo the product of the p^2, the rest modulo that of the primes, and
    a p leaves the products once read.
    """
    f, c1, d112, c2, t = 1, 0, 0, 0, 0  # mod m2; d112, t over f
    f2, c1f, q, d121, d211 = 1, 0, 0, 0, 0  # mod m1; d121, d211 over f^2
    out = {}
    for p, _, k0, k1, (m1, m2) in walk_reads(((_validate(p) - 1, p, None) for p in primes), (1, 2)):
        for k in range(k0 + 1, k1 + 1):
            kk = k * k
            if k & 1:
                d112, t, d121, d211 = k * d112, k * t, kk * d121, kk * d211
            else:
                d112, t = k * d112 + c1, k * t + c2
                d121, d211 = kk * d121 + c1f, kk * d211 + k * q
            # each right-hand side reads the state at k-1
            c2 = k * c2 + c1
            c1f = kk * c1f + k * f2
            q = kk * q + f2
            c1 = k * c1 + f
            f *= k
            f2 *= kk
            if k % SWEEP_RUN == 0:
                f, c1, d112, c2, t = (v % m2 for v in (f, c1, d112, c2, t))
                f2, c1f, q, d121, d211 = (v % m1 for v in (f2, c1f, q, d121, d211))
        p2 = p * p
        g = pow(f, -1, p2)  # 1 / (p-1)!
        gg = g * g % p
        double = {(1, 1, 2): d112 * g % p2, (1, 2, 1): d121 * gg % p, (2, 1, 1): d211 * gg % p}
        out[p] = EvenSums(double, t * g % p)
    return out


def naive_half_harmonic(p: int, n: int, e: int) -> int:
    """Oracle: term-by-term with builtin modular inversion."""
    m = int(p) ** e
    return sum(pow(k, -n, m) for k in range(1, (p - 1) // 2 + 1)) % m


def naive_even_double(p: int, s: int, t: int, e: int) -> int:
    """Oracle: the literal sum over every pair j < k, k even, from prefix sums."""
    m = int(p) ** e
    prefix = list(accumulate((pow(j, -s, m) for j in range(1, p)), initial=0))  # sum_{j<k} 1/j^s at k - 1
    return sum(pow(k, -t, m) * prefix[k - 1] for k in range(2, p, 2)) % m


def naive_even_triple(p: int) -> int:
    """Oracle: sum_{i<j<k, k even} 1/(ijk) mod p from running sums
    P(k) = sum_{i<k} 1/i and D(k) = sum_{i<j<k} 1/(ij), so that the sum
    is over even k of D(k)/k (independent of the fast path's
    squared-prefix identity)."""
    single = double = acc = 0
    for k in range(1, p):
        x = pow(k, -1, p)
        if k % 2 == 0:
            acc += double * x
        double = (double + single * x) % p
        single += x
    return acc % p


def verify_lemma_2_1(c: "PrimeContext") -> list[CongruenceCheck]:
    """Closed forms for the half-range sums sum_{k <= (p-1)/2} 1/k^n.

    Part (i), n = 1 mod p^3:
        -2 q2 + p q2^2 - (2/3) p^2 q2^3 - (7/12) p^2 B_(p-3)
        = (-24 q2 + 12 p q2^2 - 8 p^2 q2^3 - 7 p^2 B_(p-3)) / 12.
    Part (ii), 2 <= n <= min(p-2, N_CAP), with LEMMA_2_1_COEFFICIENTS[n]:
        even n, mod p^2:  n (2^(n+1) - 1) / (2(n+1)) * p * B_(p-n-1);
        odd n,  mod p:    -(2 (2^(n-1) - 1) / n) * B_(p-n).

    Each side takes one inverse: of 12 mod p^3, or of the coefficient's
    denominator mod p.  B_(p-3) is read from c.bpm3, the other B_(p-j)
    from c.half_sums.window.
    """
    p = _validate(c.p)
    m3, m2 = p**3, p * p
    half, bern = c.half_sums, {3: c.bpm3, **c.half_sums.window}
    q = c.q2 % m3
    qq = q * q
    rhs1 = (-24 * q + 12 * p * qq - 8 * p * p * qq * q - 7 * p * p * bern[3]) * pow(12, -1, m3) % m3
    checks = [_check("lemma_2_1_i", p, (), m3, half.h1, rhs1)]
    for n, lhs in half.hn.items():
        f = LEMMA_2_1_COEFFICIENTS[n]
        coef = f.numerator * pow(f.denominator, -1, p)
        if n % 2 == 0:
            rhs, modulus = p * (coef * bern[n + 1] % p), m2
        else:
            rhs, modulus = coef * bern[n] % p, p
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
    from the pair yields the last two, so all four are checked.  Over
    the common denominator 48 their right sides are, with B = B_(p-3),
    (48 p T + 24 q2^2 - 16 p q2^3 - 14 p B)/48, (96 p T + 24 q2^2 - 8 p q2^3
    - 7 p B)/48, (24 q2^2 - 24 p q2^3 - 21 p B)/48 and (-8 q2^3 - 7 B)/48,
    so one inverse of 48 mod p^2 serves all four.
    """
    p, bpm3 = _validate(c.p), c.bpm3
    m2 = p * p
    d, t = c.even_sums.double[(1, 1, 2)], c.even_sums.triple
    q = c.q2 % m2
    qq, q3, inv48 = q * q, q * q * q, pow(48, -1, m2)
    # the numerators over 48: 1/2 = 24/48, 1/3 = 16/48, 1/6 = 8/48, 7/16 = 21/48, 7/24 = 14/48
    rhs_2_7 = (48 * p * t + 24 * qq - 16 * p * q3 - 14 * p * bpm3) * inv48 % m2
    rhs_2_8 = (96 * p * t + 24 * qq - 8 * p * q3 - 7 * p * bpm3) * inv48 % m2
    rhs_2_9 = (24 * qq - 24 * p * q3 - 21 * p * bpm3) * inv48 % m2
    rhs_2_10 = (-8 * q3 - 7 * bpm3) * inv48 % p

    return [
        _check("eq_2_7", p, (), m2, d, rhs_2_7),
        _check("eq_2_8", p, (), m2, d, rhs_2_8),
        _check("eq_2_9", p, (), m2, d, rhs_2_9),
        _check("eq_2_10", p, (), p, t, rhs_2_10),
    ]
