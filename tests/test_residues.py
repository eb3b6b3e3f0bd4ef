"""Unit tests for the fixed-modulus residue arithmetic layer."""

import copy
import pickle
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from carlitzscan import residues as rs
from carlitzscan.residues import (
    MAX_PRIME,
    OddPrime,
    binom_pm1,
    inverse_range,
    is_odd_prime,
    sieve_odd_primes,
    signed_central_binomials,
)
from helpers import binom_pm1_naive, symmetric_inverse_sums, symmetric_inverse_sums_naive

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_is_odd_prime_small_range():
    sieve = {n for n in range(3, 2000, 2) if all(n % d for d in range(3, n, 2))}
    for n in range(2000):
        assert is_odd_prime(n) == (n in sieve), n


def test_is_odd_prime_rejects_two_and_bound():
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(-7)
    assert not is_odd_prime(MAX_PRIME + 11)


def test_is_odd_prime_large_known_values():
    assert is_odd_prime(99991)
    assert is_odd_prime(2**31 - 1)
    assert not is_odd_prime(99991 * 99989)
    # strong pseudoprime to base 2, caught by the other bases
    assert not is_odd_prime(2047)


def test_odd_prime_constructor():
    assert OddPrime(7) == 7
    assert isinstance(OddPrime(7), int)
    for bad in (2, 9, 1, 0, -3, 15):
        with pytest.raises(ValueError):
            OddPrime(bad)


def test_an_odd_prime_is_tested_once(monkeypatch):
    # copies and pickles (a pool task's primes) and the primes a sieve proved
    # are built untested; a plain int is still tested
    p = OddPrime(97)
    tested = []
    monkeypatch.setattr(rs, "is_odd_prime", lambda n: tested.append(n) or is_odd_prime(n))
    twins = [copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)), OddPrime.proven(97), OddPrime(p)]
    assert all(type(t) is OddPrime and t == 97 for t in twins) and tested == []
    with pytest.raises(ValueError):
        OddPrime(99)
    assert OddPrime(101) == 101 and tested == [99, 101]


def test_inverse_range_matches_builtin():
    for p, e in [(5, 1), (5, 4), (7, 2), (31, 3), (101, 1)]:
        m = p**e
        table = inverse_range(p - 1, m)
        assert len(table) == p
        for k in range(1, p):
            assert table[k] == pow(k, -1, m)


def test_binom_pm1_known_rows():
    assert binom_pm1(7, 1) == [1, 6, 1, 6, 1, 6, 1]
    assert binom_pm1(5, 4)[2] == 6
    assert binom_pm1(3, 4)[1] == 2
    assert binom_pm1(3, 1) == [1, 2, 1]


def test_binom_pm1_matches_naive():
    for p in SMALL_PRIMES + [101]:
        for e in range(1, 5):
            assert binom_pm1(p, e) == binom_pm1_naive(p, e), (p, e)


def test_binom_pm1_row_is_alternating_mod_p():
    # (-1)^k pattern: binom(p-1, k) == (-1)^k mod p
    for p in SMALL_PRIMES:
        row = binom_pm1(p, 1)
        for k, v in enumerate(row):
            assert v == (1 if k % 2 == 0 else p - 1)


def test_binom_pm1_symmetry():
    for p in (5, 7, 11, 31):
        row = binom_pm1(p, 4)
        for k in range(p):
            assert row[k] == row[p - 1 - k]


def test_signed_central_binomial_matches_comb():
    # the range's sweep gives the value mod p^4, which fixes it mod each p^e
    central4 = signed_central_binomials(SMALL_PRIMES + [97, 101])
    assert sorted(central4) == SMALL_PRIMES + [97, 101]
    for p, c in central4.items():
        mid = (p - 1) // 2
        for e in (1, 2, 3, 4):
            want = (-1) ** mid * comb(p - 1, mid) % p**e
            assert c % p**e == want, (p, e)
    # a chunk's first prime takes its value from the factorisation of
    # C(p-1, (p-1)/2) and the later ones walk to theirs by the ratio of
    # consecutive central binomials: both where the first prime is not 3,
    # up to four primes just below 10^5
    for primes in (sieve_odd_primes(733, 1523), [10007], sieve_odd_primes(99900, 10**5)[-4:]):
        central4 = signed_central_binomials(primes)
        assert sorted(central4) == primes
        for p, c in central4.items():
            mid = (p - 1) // 2
            assert c == (-1) ** mid * comb(p - 1, mid) % p**4, p


def test_central_binomial_start_holds_one_segment(monkeypatch):
    # the Kummer start streams the odd flags of (sqrt(n), n] segment by
    # segment; with segments of 4096 odd numbers, the start at p = 200003
    # crosses 25 of them, and each is freed before the next is sieved
    monkeypatch.setattr(rs, "_SEGMENT", 4096)
    p = 200003
    mid = (p - 1) // 2
    tracemalloc.start()
    try:
        got = rs._central_binomial_mod(mid, p**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == comb(p - 1, mid) % p**4
    assert peak < 2.5 * rs._SEGMENT, peak


def test_symmetric_inverse_sums_known():
    assert symmetric_inverse_sums(7, 3, 1) == (3, 1, 6)
    assert symmetric_inverse_sums(7, 0, 4) == (0, 0, 0)
    assert symmetric_inverse_sums(7, 1, 2) == (1, 0, 0)


def test_symmetric_inverse_sums_matches_naive():
    for p in (5, 7, 11, 13, 31):
        for e in (1, 2, 4):
            for r in range(p):
                got = symmetric_inverse_sums(p, r, e)
                assert got == symmetric_inverse_sums_naive(p, r, e), (p, e, r)


def test_symmetric_sums_match_exact_fractions():
    """sigma_m from exact rational arithmetic, then reduced into the ring."""
    for p in (5, 7, 11):
        for r in range(p):
            ks = range(1, r + 1)
            e1 = sum(Fraction(1, k) for k in ks)
            e2 = sum(
                Fraction(1, j * k) for k in ks for j in range(1, k)
            )
            e3 = sum(
                Fraction(1, i * j * k)
                for k in ks
                for j in range(2, k)
                for i in range(1, j)
            )
            want = tuple(x.numerator * pow(x.denominator, -1, p**4) % p**4 for x in (e1, e2, e3))
            assert symmetric_inverse_sums(p, r, 4) == want, (p, r)


def test_newton_identities_for_inverse_sums():
    """sigma1*sigma2 = 3 sigma3 + M21 + M12 and the cube expansion, exactly."""
    for r in range(1, 25):
        ks = range(1, r + 1)
        s1 = sum(Fraction(1, k) for k in ks)
        s2 = sum(Fraction(1, j * k) for k in ks for j in range(1, k))
        s3 = sum(
            Fraction(1, i * j * k)
            for k in ks
            for j in range(2, k)
            for i in range(1, j)
        )
        p3 = sum(Fraction(1, k**3) for k in ks)
        mixed = sum(Fraction(1, (j * j) * k) + Fraction(1, j * (k * k))
                    for k in ks for j in range(1, k))
        assert s1 * s2 == 3 * s3 + mixed
        assert s1**3 == 6 * s3 + 3 * mixed + p3


def test_binom_pm1_rejects_bad_input():
    with pytest.raises(ValueError):
        binom_pm1(9, 2)
    with pytest.raises(ValueError):
        binom_pm1(7, 0)
