"""Tests for half-range and parity-restricted harmonic sums."""

import random
from fractions import Fraction

import pytest

from carlitzscan.context import PrimeContext
from carlitzscan.harmonic import (
    inverse_power_sweep,
    naive_even_double,
    naive_even_triple,
    naive_half_harmonic,
    verify_derived_sums,
    verify_lemma_2_1,
    verify_lemma_2_2,
)
from helpers import even_index_sums, naive_even_single

SMALL = [5, 7, 11, 13]
MEDIUM = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97, 101]


def context_half_sums(p):
    """The half-range sums at p as verify reads them, from a range of p alone."""
    return PrimeContext(p).half_sums


def test_half_harmonic_frozen_values():
    assert context_half_sums(5).h1 == 64
    assert context_half_sums(7).h1 % 7 == 3
    assert context_half_sums(5).hn[2] % 5 == 0


def test_even_sums_frozen_values():
    assert even_index_sums(7).double[(1, 2, 1)] == 1
    assert even_index_sums(7).double[(2, 1, 1)] == 5
    assert even_index_sums(5).double[(1, 2, 1)] == 0
    assert even_index_sums(5).double[(1, 1, 2)] == 2
    assert even_index_sums(5).triple == 4
    assert even_index_sums(7).triple == 1


def test_half_harmonic_matches_naive():
    for p in SMALL + [31]:
        half = context_half_sums(p)
        assert half.h1 == naive_half_harmonic(p, 1, 3)
        assert set(half.hn) == set(range(2, min(13, p - 1)))
        for n, v in half.hn.items():
            assert v == naive_half_harmonic(p, n, 2 if n % 2 == 0 else 1), (p, n)


# the single sums over even k that `sums` prints, as (n, e):
# sum 1/k^n mod p^e over even k < p
EVEN_SINGLES = [(1, 3), (1, 2), (1, 1), (2, 2), (2, 1), (3, 1)]


def even_single_from_half(p, half, n, e):
    # sum_{k even, k<p} 1/k^n = 2^-n sum_{k<=(p-1)/2} 1/k^n
    m = p**e
    return (half.h1 if n == 1 else half.hn[n]) * pow(2, -n, m) % m


def test_even_single_matches_naive():
    for p in SMALL:
        half = context_half_sums(p)
        for n, e in EVEN_SINGLES:
            assert even_single_from_half(p, half, n, e) == naive_even_single(p, n, e), (p, n, e)


def test_even_double_matches_naive():
    for p in SMALL:
        for (s, t, e), v in even_index_sums(p).double.items():
            assert v == naive_even_double(p, s, t, e), (p, s, t, e)


def test_naive_even_double_is_linear():
    # the oracle's literal double sums keep a running prefix, so a prime
    # above 10^4 takes a fraction of a second, and they match the
    # per-prime sweep there
    p = 10007
    for (s, t, e), v in even_index_sums(p).double.items():
        assert v == naive_even_double(p, s, t, e), (s, t, e)


def test_naive_even_triple_is_linear():
    # the oracle's triple sum keeps running sums of 1/i and of 1/(ij), so
    # a prime above 10^4 takes milliseconds; it matches the per-prime
    # sweep there and the literal triple loop at small primes
    p = 10007
    assert naive_even_triple(p) == even_index_sums(p).triple
    for p in (5, 7, 11, 13, 31):
        literal = sum(pow(i * j * k, -1, p) for k in range(2, p, 2) for j in range(2, k) for i in range(1, j))
        assert naive_even_triple(p) == literal % p, p


def test_even_triple_matches_naive():
    for p in SMALL + [17, 19, 31]:
        assert even_index_sums(p).triple == naive_even_triple(p), p


def test_validation_rejects_small_or_bad_args():
    for sweep in (lambda p: inverse_power_sweep([p]), even_index_sums):
        with pytest.raises(ValueError):
            sweep(3)
        with pytest.raises(ValueError):
            sweep(9)


def test_profile_matches_piecewise_functions():
    # every field of the profile against its own naive enumeration,
    # up to the oracle's cap of p <= 1000
    for p in SMALL + [29, 499, 997]:
        half, even = context_half_sums(p), even_index_sums(p)
        assert half.h1 == naive_half_harmonic(p, 1, 3)
        for n, v in half.hn.items():
            e = 2 if n % 2 == 0 else 1
            assert v == naive_half_harmonic(p, n, e), (p, n)
        for n, e in EVEN_SINGLES:
            assert even_single_from_half(p, half, n, e) == naive_even_single(p, n, e), (p, n, e)
        for (s, t, e), v in even.double.items():
            assert v == naive_even_double(p, s, t, e), (p, s, t, e)
        assert even.triple == naive_even_triple(p)


def test_profile_covers_the_shapes_the_closed_forms_need():
    half, even = context_half_sums(11), even_index_sums(11)
    for n, e in EVEN_SINGLES:
        assert even_single_from_half(11, half, n, e) == naive_even_single(11, n, e), (n, e)
    for key in [(1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        assert key in even.double
    assert set(half.hn) == set(range(2, 10))  # N_CAP 12 clipped at p-2


def test_half_harmonic_even_n_vanishes_mod_p():
    # for even n the half-range sum picks up a factor of p
    for p in MEDIUM:
        for n in range(2, min(13, p - 1), 2):
            assert naive_half_harmonic(p, n, 1) == 0, (p, n)


def test_lemma_2_1_all_match_small_primes():
    for p in MEDIUM:
        checks = verify_lemma_2_1(PrimeContext(p))
        tags = {c.identity for c in checks}
        assert tags == {"lemma_2_1_i", "lemma_2_1_ii"}
        for c in checks:
            assert c.verdict, (p, c.identity, c.params, c.lhs, c.rhs)
        part_i = [c for c in checks if c.identity == "lemma_2_1_i"]
        assert len(part_i) == 1 and part_i[0].modulus == p**3
        for c in checks:
            if c.identity == "lemma_2_1_ii":
                n = c.params[0]
                assert c.modulus == (p * p if n % 2 == 0 else p)


def test_lemma_2_2_all_match_small_primes():
    for p in MEDIUM:
        a, b = verify_lemma_2_2(PrimeContext(p))
        assert a.identity == "lemma_2_2_a" and b.identity == "lemma_2_2_b"
        assert a.verdict and b.verdict, p
        assert a.modulus == b.modulus == p


def test_lemma_2_2_p7_values_verbatim():
    a, b = verify_lemma_2_2(PrimeContext(7))
    assert (a.lhs, a.rhs) == (1, 1)
    assert (b.lhs, b.rhs) == (5, 5)


def test_derived_sums_all_match_small_primes():
    for p in MEDIUM:
        checks = verify_derived_sums(PrimeContext(p))
        assert [c.identity for c in checks] == ["eq_2_7", "eq_2_8", "eq_2_9", "eq_2_10"]
        for c in checks:
            assert c.verdict, (p, c.identity, c.lhs, c.rhs)


def test_derived_sums_share_one_double_sum():
    checks = verify_derived_sums(PrimeContext(61))
    d_records = [c for c in checks if c.identity in ("eq_2_7", "eq_2_8", "eq_2_9")]
    assert len({c.lhs for c in d_records}) == 1
    assert all(c.modulus == 61**2 for c in d_records)


def test_derived_right_sides_are_linear_combinations():
    # 2 * (first closed form) - (second) must reproduce the third at
    # every prime, because that is how T is eliminated from the pair
    for p in (11, 31, 61, 101):
        c7, c8, c9, _ = verify_derived_sums(PrimeContext(p))
        m2 = p * p
        assert (2 * c7.rhs - c8.rhs) % m2 == c9.rhs, p


def test_elimination_identity_in_exact_rationals():
    # with free rational values q, B, T the four closed forms satisfy
    # the same linear relations the congruences do; p stays symbolic
    # enough as a plain rational value
    rng = random.Random(12)
    for _ in range(25):
        q = Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))
        bb = Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))
        pp = Fraction(rng.randrange(1, 40))
        t = -Fraction(1, 6) * q**3 - Fraction(7, 48) * bb
        rhs7 = pp * t + q * q / 2 - pp * q**3 / 3 - Fraction(7, 24) * pp * bb
        rhs8 = 2 * pp * t + q * q / 2 - pp * q**3 / 6 - Fraction(7, 48) * pp * bb
        rhs9 = (q * q - pp * q**3) / 2 - Fraction(7, 16) * pp * bb
        assert rhs7 == rhs8 == rhs9


def test_parity_collapse_of_alternating_tail():
    # sum_{r=k}^{p-1} (-1)^r is 1 for even k and 0 for odd k (p odd)
    for p in (5, 7, 11, 13, 31):
        for k in range(p):
            tail = sum((-1) ** r for r in range(k, p))
            assert tail == (1 if k % 2 == 0 else 0), (p, k)


def test_parity_collapse_weighted_by_random_coefficients():
    # swapping the order of summation in sum_r (-1)^r sum_{k<=r} g(k)
    # leaves exactly the even-k terms
    rng = random.Random(7)
    for p in (7, 11, 13):
        g = [rng.randrange(1000) for _ in range(p)]
        lhs = sum((-1) ** r * sum(g[: r + 1]) for r in range(p))
        rhs = sum(g[k] for k in range(0, p, 2))
        assert lhs == rhs, p
