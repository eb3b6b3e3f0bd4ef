"""Tests for Bernoulli residues, power sums, and Fermat quotients."""

from fractions import Fraction

import pytest

from carlitzscan.bernoulli import (
    BERNOULLI_CAP,
    PM3_FULL,
    bernoulli_exact,
    bernoulli_mod_p,
    bernoulli_pm3_mod_primes,
    fermat_quotient_2,
    power_sum_mod,
    smallest_prime_factors,
)
from carlitzscan.context import CHUNK, PrimeContext, PrimeRange
from carlitzscan.residues import is_odd_prime

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def test_bernoulli_exact_first_values():
    assert bernoulli_exact(0) == 1
    assert bernoulli_exact(1) == Fraction(-1, 2)
    assert bernoulli_exact(2) == Fraction(1, 6)
    assert bernoulli_exact(3) == 0
    assert bernoulli_exact(4) == Fraction(-1, 30)
    assert bernoulli_exact(6) == Fraction(1, 42)
    assert bernoulli_exact(12) == Fraction(-691, 2730)


def test_bernoulli_exact_odd_indices_vanish():
    for n in range(3, 60, 2):
        assert bernoulli_exact(n) == 0


def test_bernoulli_exact_bounds():
    with pytest.raises(ValueError):
        bernoulli_exact(-1)
    with pytest.raises(ValueError):
        bernoulli_exact(BERNOULLI_CAP + 1)


def test_bernoulli_exact_defining_recurrence():
    # sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1
    from math import comb

    for n in range(1, 40):
        total = sum(comb(n + 1, j) * bernoulli_exact(j) for j in range(n + 1))
        assert total == 0, n


def test_smallest_prime_factors():
    spf = smallest_prime_factors(30)
    assert spf[2] == 2 and spf[3] == 3 and spf[4] == 2
    assert spf[15] == 3 and spf[29] == 29 and spf[30] == 2
    for n in range(2, 31):
        assert n % spf[n] == 0
        assert all(n % q for q in range(2, spf[n]))


def test_power_sum_mod_matches_direct():
    for p in (5, 7, 11, 31, 101):
        for e in (1, 2, 3):
            m = p**e
            for exp in (2, 3, 10, p - 3, p - 1):
                direct = sum(pow(k, exp, m) for k in range(1, p)) % m
                assert power_sum_mod(p, exp, e) == direct, (p, exp, e)


def test_bernoulli_mod_p_known_values():
    known = {5: 1, 7: 3, 11: 4, 13: 5}  # B_(p-3) mod p
    assert bernoulli_pm3_mod_primes(known) == known
    assert {p: bernoulli_mod_p(p, p - 3) for p in known} == known


def test_bernoulli_mod_p_matches_exact_recurrence():
    for p in PRIMES_TO_61:
        for index in range(2, p - 2, 2):
            b = bernoulli_exact(index)
            want = b.numerator * pow(b.denominator, -1, p) % p
            assert bernoulli_mod_p(p, index) == want, (p, index)


def test_bernoulli_mod_p_validation():
    with pytest.raises(ValueError):
        bernoulli_mod_p(3, 2)
    with pytest.raises(ValueError):
        bernoulli_mod_p(7, 3)
    with pytest.raises(ValueError):
        bernoulli_mod_p(7, 6)


def test_power_sum_divisibility_backing_the_extraction():
    # sum of k^m over 1..p-1 is divisible by p for even m in [2, p-3],
    # which is what makes the mod-p value of B_m recoverable from it
    for p in PRIMES_TO_61:
        for m in range(2, p - 2, 2):
            assert power_sum_mod(p, m, 2) % p == 0, (p, m)


def test_bernoulli_window_matches_single_extractions():
    for p in (11, 13, 31, 61, 101):
        offsets = [j for j in range(3, 14, 2) if j <= p - 2]
        ctx = PrimeContext(p)
        window = {3: ctx.bpm3, **ctx.half_sums.window}
        assert sorted(window) == sorted(offsets)
        for j in offsets:
            assert window[j] == bernoulli_mod_p(p, p - j), (p, j)


def test_fermat_quotient_2_known_values():
    assert fermat_quotient_2(3) == 1
    assert fermat_quotient_2(5) == 3
    assert fermat_quotient_2(7) == 9


def test_fermat_quotient_2_defining_property():
    # p * q2 == 2^(p-1) - 1 mod p^4, with q2 canonical mod p^3
    for p in (3, 5, 7, 11, 31, 101, 1093):
        q = fermat_quotient_2(p)
        assert 0 <= q < p**3
        assert p * q % p**4 == (pow(2, p - 1, p**4) - 1) % p**4, p
    # 1093 is a Wieferich prime: the quotient vanishes mod p there
    assert fermat_quotient_2(1093) % 1093 == 0


def test_power_sum_times_p_matches_exact_bernoulli():
    # S = sum k^m == p * B_m mod p^2 for even m in [2, p-3]
    for p in PRIMES_TO_61:
        m2 = p * p
        for m in range(2, p - 2, 2):
            b = bernoulli_exact(m)
            rhs = p * (b.numerator * pow(b.denominator, -1, p) % p) % m2
            exact = sum(k**m for k in range(1, p)) % m2
            assert exact == rhs, (p, m)
            assert power_sum_mod(p, m, 2) == exact, (p, m)


def test_is_odd_prime_consistency_with_tables():
    assert all(is_odd_prime(p) for p in PRIMES_TO_61)


def _odd_primes_to(n):
    return [p for p in range(5, n + 1, 2) if is_odd_prime(p)]


def _range_windows(primes) -> dict:
    """B_(p-j) mod p for lemma 2.1's offsets j at each prime, as the range's
    sweeps give them to verify: one PrimeRange per chunk of CHUNK primes."""
    windows = {}
    for i in range(0, len(primes), CHUNK):
        r = PrimeRange(primes[i : i + CHUNK])
        windows.update({p: {3: r.bpm3[p], **r.half_sums[p].window} for p in r.primes})
    return windows


def test_voronoi_window_matches_power_sum_extraction_to_3000(bernoulli_window):
    # the fast path (Voronoi's congruence, in the range's sweeps) against
    # the oracle route, power-sum extraction, for every window offset the
    # harmonic checks read
    for p, window in _range_windows(_odd_primes_to(3000)).items():
        offsets = [j for j in range(3, 14, 2) if j <= p - 2]
        assert sorted(window) == offsets, p
        assert window == bernoulli_window(p), p


def test_voronoi_fallback_primes():
    # 3 - 3^j == 0 (mod p) exactly at these (p, j) for p <= 3000 and odd
    # j <= 13; there the kernel switches to another c
    degenerate = {
        (p, j)
        for p in _odd_primes_to(3000)
        for j in range(3, min(13, p - 2) + 1, 2)
        if pow(3, j - 1, p) == 1
    }
    assert degenerate == {(13, 7), (41, 9), (61, 11), (73, 13)}
    windows = _range_windows(sorted({p for p, _ in degenerate}))
    for p, j in sorted(degenerate):
        assert windows[p][j] == bernoulli_mod_p(p, p - j)
        b = bernoulli_exact(p - j)
        assert windows[p][j] == b.numerator * pow(b.denominator, -1, p) % p


def test_bpm3_walks_match_extraction_in_every_chunking(bernoulli_window):
    # a chunk's primes read the odd walk at other levels, and leave its
    # product at other points, as the chunk bounds move; 787..3000 read
    # one to two odd levels, the primes below only the full walk
    primes = _odd_primes_to(3000)
    for size in (128, 16, 1):
        for i in range(0, len(primes), size):
            chunk = primes[i : i + size]
            assert bernoulli_pm3_mod_primes(chunk) == {p: bernoulli_window(p)[3] for p in chunk}, chunk


def test_bpm3_walks_match_the_direct_sum_near_1e5():
    # the central-1e5 window: each p // 6 > 16000 reads eight odd levels
    primes = [p for p in range(99551, 99710, 2) if is_odd_prime(p)]
    assert len(primes) == 16
    direct = {p: -sum(pow(x, -3, p) for x in range(1, p // 6 + 1)) * pow(30, -1, p) % p for p in primes}
    assert bernoulli_pm3_mod_primes(primes) == direct


def test_wolstenholme_prime_16843_both_routes():
    assert bernoulli_pm3_mod_primes([16843]) == {16843: 0}
    assert bernoulli_mod_p(16843, 16840) == 0
    # in a chunk that starts with primes reading the full walk only
    # (p // 6 <= PM3_FULL)
    low = [p for p in range(601, 6 * PM3_FULL, 2) if is_odd_prime(p)]
    assert bernoulli_pm3_mod_primes([*low, 16843])[16843] == 0


def test_wolstenholme_prime_2124679_voronoi():
    # McIntosh and Roettger, Math. Comp. 76 (2007)
    assert bernoulli_pm3_mod_primes([2124679]) == {2124679: 0}
    # as the last of 16 primes, the one that leaves the odd walk's product last
    top = [p for p in range(2124679, 2124000, -2) if is_odd_prime(p)][:16]
    assert bernoulli_pm3_mod_primes(top)[2124679] == 0


def test_wieferich_primes_q2_vanishes():
    for p in (1093, 3511):
        assert fermat_quotient_2(p) % p == 0
