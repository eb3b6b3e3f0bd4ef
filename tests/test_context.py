"""Tests for the chunk-wide sweeps of PrimeRange against the per-prime kernels."""

import tracemalloc

import pytest

from carlitzscan import bernoulli as bn
from carlitzscan import residues as rs
from carlitzscan.cli import sieve_odd_primes
from carlitzscan.context import PrimeContext, PrimeRange

PRIMES_TO_3000 = sieve_odd_primes(3, 3000)


@pytest.fixture(scope="module")
def kernels():
    """The per-prime routes at every odd prime <= 3000."""
    central = {p: rs.signed_central_binomial(p, 4) for p in PRIMES_TO_3000}
    bpm3 = {p: bn.bernoulli_pm3_mod_p(p) for p in PRIMES_TO_3000 if p > 3}
    return central, bpm3


@pytest.mark.parametrize("size", [1, 7, 128])
def test_range_matches_the_per_prime_kernels(kernels, size):
    central, bpm3 = kernels
    for i in range(0, len(PRIMES_TO_3000), size):
        r = PrimeRange(PRIMES_TO_3000[i : i + size])
        assert r.central4 == {p: central[p] for p in r.primes}
        assert r.bpm3 == {p: bpm3[p] for p in r.primes if p > 3}


def test_range_at_the_degenerate_primes():
    # p = 3 has a central binomial but no B_(p-3) (the checks use B_0 = 1);
    # q2 == 0 (mod p) at the Wieferich primes 1093 and 3511, and
    # B_(p-3) == 0 (mod p) at the Wolstenholme prime 16843
    special = (3, 1093, 3511, 16843)
    r = PrimeRange(special)
    assert r.central4 == {p: rs.signed_central_binomial(p, 4) for p in special}
    assert r.bpm3 == {p: bn.bernoulli_pm3_mod_p(p) for p in special[1:]}
    assert r.bpm3[16843] == 0
    for p in special:
        alone = PrimeContext(p)
        assert alone.central4 == r.central4[p]
        assert alone.bpm3 == (None if p == 3 else r.bpm3[p])
    with pytest.raises(ValueError):
        bn.bernoulli_pm3_mod_primes([3, 5])
    with pytest.raises(ValueError):
        PrimeRange([5, 9])


def test_contexts_read_their_range():
    r = PrimeRange([13, 7, 11, 13])
    contexts = list(r.contexts())
    assert [c.p for c in contexts] == [7, 11, 13]
    assert all(c.prime_range is r for c in contexts)
    assert {c.p: c.central4 for c in contexts} == r.central4
    assert {c.p: c.bpm3 for c in contexts} == r.bpm3


def test_bernoulli_window_holds_the_range_value():
    # lemma 2.1's window takes j = 3 from the range and j >= 5 from one ladder
    for p in (5, 7, 13, 41, 61, 73, 101):
        ctx = PrimeContext(p)
        top = min(13, p - 2)
        assert ctx.bern == {j: bn.bernoulli_mod_p(p, p - j) for j in range(3, top + 1, 2)}
        assert ctx.bern[3] == ctx.bpm3


def test_context_keeps_no_ladder():
    # the window's ladder (lists of about p/3 ints) is dropped once built,
    # and B_(p-3) comes from the range's sweep, which keeps one int per prime
    tracemalloc.start()
    try:
        ctx = PrimeContext(100003)
        before = tracemalloc.get_traced_memory()[0]
        assert ctx.bpm3 == ctx.bern[3]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sorted(ctx.bern) == [3, 5, 7, 9, 11, 13]
    assert held < 64 * 1024, held
