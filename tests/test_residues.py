"""Unit tests for the fixed-modulus residue arithmetic layer."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitzscan.residues import (
    MAX_PRIME,
    NegativeValuation,
    OddPrime,
    binom_pm1,
    binom_pm1_naive,
    inverse_range,
    is_odd_prime,
    reduce_rational,
    signed_central_binomial,
    symmetric_inverse_sums,
    symmetric_inverse_sums_naive,
)

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


def test_inverse_range_matches_builtin():
    for p, e in [(5, 1), (5, 4), (7, 2), (31, 3), (101, 1)]:
        m = p**e
        table = inverse_range(p - 1, m)
        assert len(table) == p
        for k in range(1, p):
            assert table[k] == pow(k, -1, m)


def test_reduce_rational_known_values():
    assert reduce_rational(Fraction(9, 4), 3, 4) == 63
    assert reduce_rational(Fraction(1), 3, 4) == 1
    assert reduce_rational(Fraction(0), 3, 4) == 0
    assert reduce_rational(7, 5, 2) == 7
    with pytest.raises(NegativeValuation):
        reduce_rational(Fraction(1, 3), 3, 4)


def test_reduce_rational_cancels_p_power_in_denominator():
    # 27/12 has denominator valuation -1 but total valuation +2, so the
    # 3-part cancels and the value agrees with 9/4
    assert reduce_rational(Fraction(27, 12), 3, 4) == reduce_rational(Fraction(9, 4), 3, 4)


@settings(max_examples=200, deadline=None)
@given(
    num=st.integers(min_value=-(10**9), max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
    p=st.sampled_from(SMALL_PRIMES),
    e=st.integers(min_value=1, max_value=4),
)
def test_reduce_rational_residue_property(num, den, p, e):
    """den * r == num mod p^e whenever the rational reduces at all."""
    q = Fraction(num, den)
    m = p**e
    try:
        r = reduce_rational(q, p, e)
    except NegativeValuation:
        # p divides the reduced denominator, hence not the numerator
        assert q.denominator % p == 0 and q.numerator % p != 0
        return
    assert 0 <= r < m
    assert q.denominator * r % m == q.numerator % m


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
    for p in SMALL_PRIMES + [97, 101]:
        mid = (p - 1) // 2
        for e in (1, 2, 3, 4):
            want = (-1) ** mid * comb(p - 1, mid) % p**e
            assert signed_central_binomial(p, e) == want, (p, e)


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
            want = tuple(reduce_rational(x, p, 4) for x in (e1, e2, e3))
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
