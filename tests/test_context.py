"""Tests for the chunk-wide sweeps of PrimeRange against one reference route per field."""

import tracemalloc
from dataclasses import replace
from math import comb

import pytest

from carlitzscan import bernoulli as bn
from carlitzscan import congruences as cg
from carlitzscan import harmonic as hm
from carlitzscan import residues as rs
from carlitzscan.context import DEFAULT_CD_TRIPLES, FIELDS, IDENTITIES, PrimeContext, PrimeRange
from carlitzscan.residues import sieve_odd_primes
from helpers import even_index_sums

PRIMES_TO_3000 = sieve_odd_primes(3, 3000)
FALLBACK_PRIMES = (13, 41, 61, 73)  # where 3^(j-1) == 1 (mod p) for a window offset j
# the ranges here hold the u-sums of one triple outside the defaults, with
# eps = 1 and both binomial rows, compared up to the oracle's cap: the
# exact binomials cost about p^2 per triple, some 30 ms at p = 3000
CD_TRIPLES = ((1, 1, 2),)
CD_P_MAX = 1000


def per_prime(p: int, bernoulli_window) -> dict:
    """Each PrimeRange field's value at p by its reference route, the
    Bernoulli residues from the bernoulli_window fixture; the fields
    stated for p >= 5 are left out at p = 3, and the u-sums of
    CD_TRIPLES above CD_P_MAX.  The moments enter as the power sums
    S_1..S_3 by direct powers: S_a = 1 + a M1 + C(a,2) M2 + C(a,3) M3 is
    unit-triangular in M1..M3, so the three fix the moments.  The
    even-index sums come from even_index_sums, one pass over an inverse
    table, which the harmonic tests check against the naive sums."""
    mid = (p - 1) // 2
    values = {"moments": tuple(cg.lhs_power_sums_batch(p, 3)[1:]), "central4": (-1) ** mid * comb(p - 1, mid) % p**4,
              "q2": (pow(2, p - 1) - 1) // p % p**3}
    if p > 3:
        window = dict(bernoulli_window(p))
        values["bpm3"] = window.pop(3)
        values["half_sums"] = hm.HalfSums(
            hm.naive_half_harmonic(p, 1, 3),
            {n: hm.naive_half_harmonic(p, n, 2 if n % 2 == 0 else 1) for n in range(2, min(hm.N_CAP, p - 2) + 1)},
            window,
        )
        values["even_sums"] = even_index_sums(p)
        if p <= CD_P_MAX:
            values["cd"] = {t: cg.chamberland_dilcher_exact(p, *t) for t in CD_TRIPLES}
    return values


def range_values(r: PrimeRange) -> dict:
    """per_prime's layout, read from the range's fields."""
    def read(name, p):
        value = getattr(r, name)[p]
        return tuple(lhs for _, lhs, _ in cg.theorem_row(p, value, (1, 2, 3))) if name == "moments" else value

    def names(p):
        return [name for name, field in FIELDS.items() if p >= field.p_min and (name != "cd" or p <= CD_P_MAX)]

    return {p: {name: read(name, p) for name in names(p)} for p in r.primes}


@pytest.fixture(scope="module")
def references(bernoulli_window):
    """The reference routes at every odd prime <= 3000."""
    return {p: per_prime(p, bernoulli_window) for p in PRIMES_TO_3000}


@pytest.mark.parametrize("size", [1, 7, 128])
def test_range_matches_the_per_prime_kernels(references, size):
    for i in range(0, len(PRIMES_TO_3000), size):
        r = PrimeRange(PRIMES_TO_3000[i : i + size], CD_TRIPLES)
        assert range_values(r) == {p: references[p] for p in r.primes}


def test_range_at_the_degenerate_primes(bernoulli_window):
    # p = 3 has a central binomial, q2 and moments but no B_(p-3) (the
    # checks use B_0 = 1), no harmonic sums and no u-sums; q2 == 0 (mod p)
    # at the Wieferich primes 1093 and 3511, and B_(p-3) == 0 (mod p) at
    # the Wolstenholme prime 16843
    special = (3, 1093, 3511, 16843)
    r = PrimeRange(special, CD_TRIPLES)
    assert range_values(r) == {p: per_prime(p, bernoulli_window) for p in special}
    assert r.bpm3[16843] == 0
    for p in special:
        alone = PrimeContext(p)
        assert alone.central4 == r.central4[p]
        assert alone.moments == r.moments[p]
        assert alone.q2 == r.q2[p]
        if p > 3:
            assert (alone.bpm3, alone.half_sums.window, alone.half_sums, alone.even_sums) == (
                r.bpm3[p], r.half_sums[p].window, r.half_sums[p], r.even_sums[p])
    for sweep in (bn.bernoulli_pm3_mod_primes, hm.inverse_power_sweep, hm.even_index_sweep):
        with pytest.raises(ValueError):
            sweep([3, 5])
    # a field is None below its least p, and the range sweeps it from there
    for name in ("bpm3", "half_sums", "even_sums", "cd"):
        assert getattr(PrimeContext(3), name) is None
        assert 3 not in getattr(r, name)
    with pytest.raises(ValueError):
        PrimeRange([5, 9])


def test_window_at_the_fallback_primes(bernoulli_window):
    # at these primes some offset's fold leaves c = 3 for a larger c, whose
    # cuts floor(i p / c), i = 1..(c-1)/2, are more than one, and the
    # inverse-power sweep reads them beside p // 3
    for p in FALLBACK_PRIMES:
        offsets = range(5, min(hm.N_CAP + 1, p - 2) + 1, 2)
        assert any(len(bn.voronoi_fold(p, j)[1]) > 1 for j in offsets), p
    for chunk in (FALLBACK_PRIMES, (11, 13, 17), (37, 41, 43, 47), (59, 61, 67, 71, 73, 79)):
        r = PrimeRange(chunk, CD_TRIPLES)
        assert range_values(r) == {p: per_prime(p, bernoulli_window) for p in chunk}


def test_sweeps_hold_no_list_of_p():
    # each sweep keeps a fixed number of residues modulo the chunk's
    # products, so one prime peaks in kilobytes, where a per-prime sweep
    # over an inverse table (even_index_sums) holds p entries (p = 20011
    # keeps tracemalloc, which slows the sweeps about 40-fold, to seconds);
    # the central binomial's start holds its sieve's flags, one byte per odd
    # number below p, and streams the primes out of them: a list of the
    # primes below p alone would take some 80 KB
    def peak(fn, arg) -> int:
        tracemalloc.start()
        try:
            fn(arg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    p = 20011
    for sweep in (cg.staver_sweep, hm.inverse_power_sweep, hm.even_index_sweep):
        assert peak(sweep, [p]) < 16 * 1024, sweep.__name__
    assert peak(rs.signed_central_binomials, [p]) < p
    assert peak(even_index_sums, p) > 256 * 1024


def test_contexts_read_their_range():
    r = PrimeRange([13, 7, 11, 13])
    contexts = list(r.contexts())
    assert [c.p for c in contexts] == [7, 11, 13]
    assert all(c.prime_range is r for c in contexts)
    assert {c.p: c.moments for c in contexts} == r.moments
    assert {c.p: c.central4 for c in contexts} == r.central4
    assert {c.p: c.bpm3 for c in contexts} == r.bpm3
    assert {c.p: c.half_sums.window for c in contexts} == {p: half.window for p, half in r.half_sums.items()}
    assert {c.p: c.half_sums for c in contexts} == r.half_sums
    assert {c.p: c.even_sums for c in contexts} == r.even_sums
    assert {c.p: c.q2 for c in contexts} == r.q2
    assert {c.p: c.cd for c in contexts} == r.cd
    assert r.cd_triples == DEFAULT_CD_TRIPLES


def test_contexts_read_the_triples_of_their_range():
    # the range holds the distinct (eps, a, b) triples, in first-seen
    # order, and a context reads its u-sums from it; a context built
    # without a range builds a range of p with its own triples; the u-sums
    # and the check run over each distinct triple once
    triples = ((1, 1, 2), (0, 1, 1), (1, 1, 2))
    distinct = ((1, 1, 2), (0, 1, 1))
    r = PrimeRange([5, 7], triples)
    assert r.cd_triples == distinct
    assert r.cd == {p: {t: cg.chamberland_dilcher_exact(p, *t) for t in triples} for p in (5, 7)}
    assert list(r.cd[5]) == list(distinct)
    check = IDENTITIES["chamberland_dilcher"].check
    assert [[c.params for c in check(ctx)] for ctx in r.contexts()] == [list(distinct)] * 2
    alone = PrimeContext(7, cd_triples=triples)
    assert alone.prime_range.cd_triples == distinct
    assert alone.cd == r.cd[7]


def test_each_field_is_stored_by_one_producer_call(monkeypatch):
    # PrimeRange.__getattr__ is the one place that stores a field: the first
    # read of a field runs its producer once, over the range's primes from
    # its p_min, and the range gains that one name; the moments read q2 and
    # central4 through the same door, so they are read first there
    calls = []
    for name, field in list(FIELDS.items()):
        def counted(r, primes, name=name, by_prime=field.by_prime):
            calls.append((name, list(primes)))
            return by_prime(r, primes)

        monkeypatch.setitem(FIELDS, name, replace(field, by_prime=counted))
    primes = (3, 5, 7, 13, 41)
    inputs = {"moments": ("q2", "central4")}
    for name, field in FIELDS.items():
        r = PrimeRange(primes)
        for first in inputs.get(name, ()):
            getattr(r, first)
        calls.clear()
        held = set(vars(r))
        value = getattr(r, name)
        assert calls == [(name, [p for p in primes if p >= field.p_min])], name
        assert set(vars(r)) == held | {name} and vars(r)[name] is value, name
        assert getattr(r, name) is value and len(calls) == 1, name
    # read first on a fresh range, the moments run each of the three
    # producers once, and the range gains those three names
    calls.clear()
    r = PrimeRange(primes)
    r.moments
    assert sorted(name for name, _ in calls) == ["central4", "moments", "q2"]
    assert set(vars(r)) == {"primes", "cd_triples", "central4", "moments", "q2"}
    # the half-range sums carry the window from the same sweep
    assert r.half_sums == hm.inverse_power_sweep([5, 7, 13, 41])
    assert [sorted(half.window) for half in r.half_sums.values()] == [[], [5], [5, 7, 9, 11], [5, 7, 9, 11, 13]]


def test_bernoulli_window_holds_the_range_value():
    # lemma 2.1 reads B_(p-3) from the range's B_(p-3) sweep and the
    # window's offsets j >= 5 from its inverse-power sweep
    for p in (5, 7, 13, 41, 61, 73, 101):
        ctx = PrimeContext(p)
        top = min(13, p - 2)
        assert ctx.half_sums.window == {j: bn.bernoulli_mod_p(p, p - j) for j in range(5, top + 1, 2)}
        assert ctx.bpm3 == bn.bernoulli_mod_p(p, p - 3)


def test_context_keeps_no_ladder():
    # B_(p-3) and the window come from the range's sweeps, which keep a
    # fixed number of residues and one int per prime and offset, never a
    # list of about p/3 inverse powers
    tracemalloc.start()
    try:
        ctx = PrimeContext(100003)
        before = tracemalloc.get_traced_memory()[0]
        assert ctx.bpm3 is not None and ctx.half_sums.window
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sorted(ctx.half_sums.window) == [5, 7, 9, 11, 13]
    assert held < 64 * 1024, held
