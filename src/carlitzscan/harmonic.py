"""Harmonic-type sums over 1..p-1, plain and parity-restricted.

Fast paths are single O(p) sweeps with batch-inverted tables and prefix
accumulation; each has a naive counterpart (full loops, builtin modular
inversion) kept as an oracle.  The verify_* functions package the sums
into CongruenceCheck records against their closed forms, which involve
the Fermat quotient q2 = (2^(p-1)-1)/p and Bernoulli residues mod p.
"""

from dataclasses import dataclass, field

from .bernoulli import bernoulli_pm3_mod_p, bernoulli_window_mod_p, fermat_quotient_2
from .congruences import CongruenceCheck
from .residues import OddPrime, inverse_range, invert_mod

__all__ = [
    "HarmonicProfile",
    "half_harmonic",
    "even_single",
    "even_double",
    "even_triple",
    "even_restricted_sums",
    "naive_half_harmonic",
    "naive_even_single",
    "naive_even_double",
    "naive_even_triple",
    "lemma_2_1_offsets",
    "verify_lemma_2_1",
    "verify_lemma_2_2",
    "verify_derived_sums",
]

N_CAP_DEFAULT = 12


def _validate(p: int, e: int, lo: int = 1, hi: int = 3) -> int:
    p = int(OddPrime(p))
    if p < 5:
        raise ValueError("harmonic sums here need p >= 5")
    if not lo <= e <= hi:
        raise ValueError(f"exponent e must be in {lo}..{hi}, got {e}")
    return p


def half_harmonic(p: int, n: int, e: int, inv: "list[int] | None" = None) -> int:
    """sum_{k=1}^{(p-1)/2} 1/k^n mod p^e.

    Supported windows: n = 1 with e <= 3, and 2 <= n <= p-2 with e <= 2.
    """
    p = _validate(p, e)
    if n == 1:
        if e > 3:
            raise ValueError("n = 1 is computed at most mod p^3")
    elif not 2 <= n <= p - 2:
        raise ValueError(f"n must be 1 or in 2..p-2, got {n}")
    elif e > 2:
        raise ValueError("n >= 2 is computed at most mod p^2")
    m = p**e
    mid = (p - 1) // 2
    if inv is None:
        inv = inverse_range(mid, m)
    if n == 1:
        return sum(inv[1:]) % m
    return sum(pow(x, n, m) for x in inv[1:]) % m


def even_single(p: int, n: int, e: int) -> int:
    """sum over even k in 1..p-1 of 1/k^n mod p^e."""
    p = _validate(p, e)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    m = p**e
    inv = inverse_range(p - 1, m)
    return sum(pow(inv[k], n, m) for k in range(2, p, 2)) % m


def even_double(p: int, s: int, t: int, e: int) -> int:
    """sum_{1 <= j < k <= p-1, k even} 1/(j^s k^t) mod p^e.

    One sweep: a running prefix of sum 1/j^s feeds the terms at each
    even k.
    """
    p = _validate(p, e)
    if s < 1 or t < 1:
        raise ValueError(f"unsupported shape (s, t, e) = {(s, t, e)}")
    m = p**e
    inv = inverse_range(p - 1, m)
    prefix = 0
    acc = 0
    for k in range(1, p):
        x = inv[k]
        if k % 2 == 0:
            acc = (acc + prefix * pow(x, t, m)) % m
        prefix = (prefix + pow(x, s, m)) % m
    return acc


def even_triple(p: int) -> int:
    """sum_{1 <= i < j < k <= p-1, k even} 1/(ijk) mod p.

    Uses sum_{i<j<=x} 1/(ij) = ((sum 1/i)^2 - sum 1/i^2) / 2 as a
    prefix, so the triple sum costs O(p).
    """
    p = _validate(p, 1)
    inv = inverse_range(p - 1, p)
    inv2 = invert_mod(2, p)
    p1 = p2 = acc = 0
    for k in range(1, p):
        x = inv[k]
        if k % 2 == 0:
            e2 = (p1 * p1 - p2) * inv2 % p
            acc = (acc + x * e2) % p
        p1 = (p1 + x) % p
        p2 = (p2 + x * x) % p
    return acc


@dataclass(frozen=True)
class HarmonicProfile:
    """Bundle of the parity-restricted sums at one prime.

    half_h1 is mod p^3; half_hn[n] is mod p^2 for even n and mod p for
    odd n; even_single is keyed (n, e), even_double (s, t, e); the
    triple sum is mod p.
    """

    p: int
    half_h1: int
    half_hn: dict[int, int] = field(default_factory=dict)
    even_single: dict[tuple[int, int], int] = field(default_factory=dict)
    even_double: dict[tuple[int, int, int], int] = field(default_factory=dict)
    even_triple: int = 0


def even_restricted_sums(p: int, n_cap: int = N_CAP_DEFAULT) -> HarmonicProfile:
    """Fill a HarmonicProfile in a handful of O(p) sweeps."""
    p = _validate(p, 1)
    m3, m2 = p**3, p * p
    mid = (p - 1) // 2
    inv3 = inverse_range(p - 1, m3)

    half = sum(inv3[1 : mid + 1]) % m3
    hn: dict[int, int] = {}
    nmax = min(n_cap, p - 2)
    sums = [0] * (nmax + 1)
    for k in range(1, mid + 1):
        v = inv3[k] % m2
        t = v
        for n in range(2, nmax + 1):
            t = t * v % m2
            sums[n] += t
    for n in range(2, nmax + 1):
        hn[n] = sums[n] % m2 if n % 2 == 0 else sums[n] % p

    singles: dict[tuple[int, int], int] = {}
    s13 = sum(inv3[k] for k in range(2, p, 2)) % m3
    s22 = sum(inv3[k] % m2 * (inv3[k] % m2) % m2 for k in range(2, p, 2)) % m2
    s31 = sum(pow(inv3[k] % p, 3, p) for k in range(2, p, 2)) % p
    singles[(1, 3)] = s13
    singles[(1, 2)] = s13 % m2
    singles[(1, 1)] = s13 % p
    singles[(2, 2)] = s22
    singles[(2, 1)] = s22 % p
    singles[(3, 1)] = s31

    doubles: dict[tuple[int, int, int], int] = {}
    inv2p = invert_mod(2, p)
    pf1_2 = 0  # prefix of 1/j mod p^2
    pf1 = pf2 = 0  # prefixes of 1/j, 1/j^2 mod p
    d112 = d121 = d211 = triple = 0
    for k in range(1, p):
        x2 = inv3[k] % m2
        x = x2 % p
        if k % 2 == 0:
            d112 = (d112 + pf1_2 * x2) % m2
            d121 = (d121 + pf1 * x * x) % p
            d211 = (d211 + pf2 * x) % p
            e2 = (pf1 * pf1 - pf2) * inv2p % p
            triple = (triple + x * e2) % p
        pf1_2 = (pf1_2 + x2) % m2
        pf1 = (pf1 + x) % p
        pf2 = (pf2 + x * x) % p
    doubles[(1, 1, 2)] = d112
    doubles[(1, 2, 1)] = d121
    doubles[(2, 1, 1)] = d211

    return HarmonicProfile(p, half, hn, singles, doubles, triple)


def naive_half_harmonic(p: int, n: int, e: int) -> int:
    """Oracle: term-by-term with builtin modular inversion."""
    m = int(p) ** e
    return sum(pow(k, -n, m) for k in range(1, (p - 1) // 2 + 1)) % m


def naive_even_single(p: int, n: int, e: int) -> int:
    m = int(p) ** e
    return sum(pow(k, -n, m) for k in range(2, p, 2)) % m


def naive_even_double(p: int, s: int, t: int, e: int) -> int:
    m = int(p) ** e
    acc = 0
    for k in range(2, p, 2):
        kt = pow(k, -t, m)
        for j in range(1, k):
            acc = (acc + pow(j, -s, m) * kt) % m
    return acc


def naive_even_triple(p: int) -> int:
    acc = 0
    inv = [0] + [pow(k, -1, p) for k in range(1, p)]
    for k in range(2, p, 2):
        for j in range(2, k):
            x = inv[j] * inv[k] % p
            for i in range(1, j):
                acc = (acc + inv[i] * x) % p
    return acc


def lemma_2_1_offsets(p: int, n_cap: int = N_CAP_DEFAULT) -> list[int]:
    """The offsets j of the B_(p-j) that verify_lemma_2_1 reads at p."""
    offsets = {3}
    for n in range(2, min(n_cap, p - 2) + 1):
        offsets.add(n + 1 if n % 2 == 0 else n)
    return sorted(offsets)


def verify_lemma_2_1(
    p: int,
    n_cap: int = N_CAP_DEFAULT,
    q2: "int | None" = None,
    bern: "dict[int, int] | None" = None,
) -> list[CongruenceCheck]:
    """Closed forms for the half-range sums sum_{k <= (p-1)/2} 1/k^n.

    Part (i), n = 1 mod p^3:
        -2 q2 + p q2^2 - (2/3) p^2 q2^3 - (7/12) p^2 B_(p-3).
    Part (ii), 2 <= n <= min(p-2, n_cap):
        even n, mod p^2:  n (2^(n+1) - 1) / (2(n+1)) * p * B_(p-n-1);
        odd n,  mod p:    -(2 (2^(n-1) - 1) / n) * B_(p-n).
    """
    p = _validate(p, 1)
    m3, m2 = p**3, p * p
    nmax = min(n_cap, p - 2)
    if q2 is None:
        q2 = fermat_quotient_2(p).value
    if bern is None:
        bern = bernoulli_window_mod_p(p, lemma_2_1_offsets(p, n_cap))

    mid = (p - 1) // 2
    inv3 = inverse_range(mid, m3)
    checks = []

    lhs1 = sum(inv3[1:]) % m3
    q = q2 % m3
    rhs1 = (
        -2 * q
        + p * q * q
        - 2 * p * p * pow(q, 3, m3) * invert_mod(3, m3)
        - 7 * p * p * bern[3] * invert_mod(12, m3)
    ) % m3
    checks.append(CongruenceCheck("lemma_2_1_i", p, (), m3, lhs1, rhs1, lhs1 == rhs1))

    sums = [0] * (nmax + 1)
    for k in range(1, mid + 1):
        v = inv3[k] % m2
        t = v
        for n in range(2, nmax + 1):
            t = t * v % m2
            sums[n] += t
    for n in range(2, nmax + 1):
        if n % 2 == 0:
            lhs = sums[n] % m2
            coef = n * (pow(2, n + 1, p) - 1) % p * invert_mod(2 * (n + 1), p) % p
            rhs = p * (coef * bern[n + 1] % p) % m2
            modulus = m2
        else:
            lhs = sums[n] % p
            rhs = (-2 * (pow(2, n - 1, p) - 1) * invert_mod(n, p) * bern[n]) % p
            modulus = p
        checks.append(
            CongruenceCheck("lemma_2_1_ii", p, (n,), modulus, lhs, rhs, lhs == rhs)
        )
    return checks


def verify_lemma_2_2(p: int, bpm3: "int | None" = None) -> list[CongruenceCheck]:
    """The two mod-p double sums restricted to even larger index:

        sum 1/(j k^2) == (5/8) B_(p-3),   sum 1/(j^2 k) == -(3/8) B_(p-3).
    """
    p = _validate(p, 1)
    if bpm3 is None:
        bpm3 = bernoulli_pm3_mod_p(p).value
    inv = inverse_range(p - 1, p)
    pf1 = pf2 = d121 = d211 = 0
    for k in range(1, p):
        x = inv[k]
        if k % 2 == 0:
            d121 = (d121 + pf1 * x * x) % p
            d211 = (d211 + pf2 * x) % p
        pf1 = (pf1 + x) % p
        pf2 = (pf2 + x * x) % p
    inv8 = invert_mod(8, p)
    rhs_a = 5 * inv8 * bpm3 % p
    rhs_b = -3 * inv8 * bpm3 % p
    return [
        CongruenceCheck("lemma_2_2_a", p, (), p, d121, rhs_a, d121 == rhs_a),
        CongruenceCheck("lemma_2_2_b", p, (), p, d211, rhs_b, d211 == rhs_b),
    ]


def verify_derived_sums(
    p: int, q2: "int | None" = None, bpm3: "int | None" = None
) -> list[CongruenceCheck]:
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
    p = _validate(p, 1)
    m2 = p * p
    if q2 is None:
        q2 = fermat_quotient_2(p).value
    if bpm3 is None:
        bpm3 = bernoulli_pm3_mod_p(p).value

    inv = inverse_range(p - 1, m2)
    inv2p = invert_mod(2, p)
    pf1_2 = pf1 = pf2 = 0
    d = t = 0
    for k in range(1, p):
        x2 = inv[k]
        x = x2 % p
        if k % 2 == 0:
            d = (d + pf1_2 * x2) % m2
            e2 = (pf1 * pf1 - pf2) * inv2p % p
            t = (t + x * e2) % p
        pf1_2 = (pf1_2 + x2) % m2
        pf1 = (pf1 + x) % p
        pf2 = (pf2 + x * x) % p

    q = q2 % m2
    q3p = pow(q2, 3, p)
    qq = q * q % m2
    half_qq = qq * invert_mod(2, m2) % m2
    rhs_2_7 = (p * t + half_qq - p * (q3p * invert_mod(3, p) % p) - 7 * p * (bpm3 * invert_mod(24, p) % p)) % m2
    rhs_2_8 = (2 * p * t + half_qq - p * (q3p * invert_mod(6, p) % p) - 7 * p * (bpm3 * invert_mod(48, p) % p)) % m2
    rhs_2_9 = ((qq - p * q3p) * invert_mod(2, m2) - 7 * p * (bpm3 * invert_mod(16, p) % p)) % m2
    rhs_2_10 = (-q3p * invert_mod(6, p) - 7 * bpm3 * invert_mod(48, p)) % p

    return [
        CongruenceCheck("eq_2_7", p, (), m2, d, rhs_2_7, d == rhs_2_7),
        CongruenceCheck("eq_2_8", p, (), m2, d, rhs_2_8, d == rhs_2_8),
        CongruenceCheck("eq_2_9", p, (), m2, d, rhs_2_9, d == rhs_2_9),
        CongruenceCheck("eq_2_10", p, (), p, t, rhs_2_10, t == rhs_2_10),
    ]
