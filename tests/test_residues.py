"""Unit tests for the fixed-modulus residue arithmetic layer."""

import copy
import pickle
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest

from carlitzscan import bernoulli as bn
from carlitzscan import congruences as cg
from carlitzscan import harmonic as hm
from carlitzscan import residues as rs
from carlitzscan.residues import (
    MAX_PRIME,
    OddPrime,
    binom_pm1,
    inverse_range,
    is_odd_prime,
    sieve_odd_primes,
    signed_central_binomials,
    walk_reads,
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


def test_walk_reads_orders_the_reads_and_shrinks_the_moduli_after_a_last_read():
    # reads come out by x, those at one x in the order they came; each
    # prime's factors leave the moduli only once its last read is out
    reads = [(9, 7, "a"), (2, 5, "b"), (4, 3, "c"), (9, 5, "d"), (2, 7, "e"), (6, 3, "f")]
    got = list((p, tag, x0, x, tuple(moduli)) for p, tag, x0, x, moduli in walk_reads(reads, (1, 3)))
    assert [(p, tag, x0, x) for p, tag, x0, x, _ in got] == [
        (5, "b", 0, 2), (7, "e", 2, 2), (3, "c", 2, 4), (3, "f", 4, 6), (7, "a", 6, 9), (5, "d", 9, 9)]
    unread = [{3, 5, 7}, {3, 5, 7}, {3, 5, 7}, {3, 5, 7}, {5, 7}, {5}]
    assert [moduli for *_, moduli in got] == [(prod(q), prod(q) ** 3) for q in unread]
    assert list(walk_reads([], (4,))) == []


def test_walk_reads_proves_each_prime_once_and_yields_plain_ints(monkeypatch):
    # a plain int is tested at its first read only, an OddPrime never, and
    # every p comes out an exact int whichever went in
    tested = []
    monkeypatch.setattr(rs, "is_odd_prime", lambda n: tested.append(n) or is_odd_prime(n))
    reads = [(x, p, None) for x in range(1, 4) for p in (11, OddPrime.proven(13), 17, 11)]
    ps = [p for p, *_ in walk_reads(reads, (2,))]
    assert sorted(tested) == [11, 17] and sorted(set(ps)) == [11, 13, 17]
    assert all(type(p) is int for p in ps)
    with pytest.raises(ValueError):
        list(walk_reads([(1, 7, None), (2, 9, None)], (1,)))


def test_walk_reads_proves_a_prime_before_its_next_read_is_drawn():
    # a sweep may build a prime's later reads from it: 15 fails at its
    # first read, so no read after it is drawn
    drawn = []

    def reads():
        for p in (7, 15):
            yield 1, p, None
            drawn.append(p)

    with pytest.raises(ValueError):
        list(walk_reads(reads(), (1,)))
    assert drawn == [7]
    # the inverse-power sweep builds a prime's cuts after its middle read, so
    # 15, for which every c has c^5 == c (mod 15), fails before voronoi_fold
    # could search for a c forever
    with pytest.raises(ValueError):
        hm.inverse_power_sweep([15])


SWEEPS = [cg.staver_sweep, hm.inverse_power_sweep, hm.even_index_sweep, signed_central_binomials,
          bn.bernoulli_pm3_mod_primes]


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_each_sweep_is_the_same_in_any_chunks(sweep):
    # every prime 5..3000 in one call and in chunks of 128, 16 and 1: each
    # chunk restarts the walk, so its reads and moduli begin elsewhere
    primes = sieve_odd_primes(5, 3000)
    whole = sweep(primes)
    assert sorted(whole) == primes and all(type(p) is int for p in whole)
    for size in (128, 16, 1):
        chunked = {}
        for i in range(0, len(primes), size):
            chunked.update(sweep(primes[i : i + size]))
        assert chunked == whole, size


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
