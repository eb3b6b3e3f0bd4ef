"""Tests for the congruence checkers and exact identities."""

import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from carlitzscan.congruences import (
    CD_EXCLUDED,
    COROLLARY_COEFFICIENTS,
    CongruenceCheck,
    ExcludedTriple,
    alternating_square_sum,
    chamberland_dilcher_exact,
    chamberland_dilcher_sums,
    exact_identity_1_3,
    exact_identity_1_4,
    lhs_power_sums_batch,
    rhs_theorem,
    staver_sweep,
    theorem_coefficient,
    theorem_row,
    verify_cai_granville,
    verify_carlitz,
    verify_chamberland_dilcher,
    verify_corollary,
    verify_morley,
    verify_p3_special,
    verify_theorem_1_1,
)
from carlitzscan.context import PrimeContext, PrimeRange
from carlitzscan.residues import binom_pm1, sieve_odd_primes
from helpers import alternating_square_sum_printed_limit, lhs_power_sum_exact

SMALL = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_lhs_power_sum_frozen_values():
    assert lhs_power_sums_batch(5, 3)[3] == 346
    assert lhs_power_sums_batch(3, 2)[2] == 79
    assert lhs_power_sums_batch(5, 1)[1] == 16


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009, 1093, 10007])
def test_moment_route_matches_direct_powers(p):
    # p = 3 has an odd middle index; 1093 is a Wieferich prime
    moments = PrimeContext(p).moments
    assert all(mj % p**j == 0 for j, mj in enumerate(moments, 1))
    direct = lhs_power_sums_batch(p, 40)
    for a, lhs, _ in theorem_row(p, moments, range(1, 41)):
        assert lhs == direct[a], (p, a)
    with pytest.raises(ValueError):
        theorem_row(p, moments, (0,))


STAVER_PRIMES = (*sieve_odd_primes(3, 300), 1093, 3511, 16843)


def _reciprocal_binomial_sum(p: int) -> int:
    """sum_k 1/binomial(p-1, k) mod p^4, from the exact binomials."""
    m, c, acc = p**4, 1, 0
    for k in range(p):
        acc += pow(c % m, -1, m)
        c = c * (p - 1 - k) // (k + 1)
    return acc % m


@pytest.fixture(scope="module")
def reciprocal_sums():
    return {p: _reciprocal_binomial_sum(p) for p in STAVER_PRIMES}


@pytest.mark.parametrize("size", [1, 7, 128])
def test_staver_identity(reciprocal_sums, size):
    # the sweep's S_(-1) against sum_k 1/C(p-1, k) mod p^4 from the exact
    # binomials, at the Wieferich primes 1093 and 3511 and the Wolstenholme
    # prime 16843 too
    for i in range(0, len(STAVER_PRIMES), size):
        chunk = STAVER_PRIMES[i : i + size]
        assert staver_sweep(chunk) == {p: reciprocal_sums[p] for p in chunk}


def test_moment_verdicts_at_vanishing_bernoulli_prime():
    # B_(p-3) == 0 (mod 16843): the correction term drops out, and the
    # moment route must still read the lhs the direct powers give
    p = 16843
    ctx = PrimeContext(p)
    assert ctx.bpm3 == 0
    direct = lhs_power_sums_batch(p, 8)
    for a, t, c in zip(range(1, 9), verify_theorem_1_1(ctx, range(1, 9)), verify_cai_granville(ctx, range(1, 9)), strict=True):
        assert t.verdict and c.verdict, a
        assert t.lhs == direct[a] and c.lhs == direct[a] % p**3, a


ROW_PRIMES = (3, 5, 7, 13, 1093, 3511, 16843)
# unsorted, with duplicates, and with a huge a (t^a by pow where a does not step by 1)
ROW_A_VALUES = ((9, 1, 3, 3, 10**9 + 7), (10, 2, 7, 1, 10, 4), (10**9 + 7, 5, 4, 3, 2, 1, 1))


@pytest.mark.parametrize("p", ROW_PRIMES)
def test_row_records_match_their_per_a_builds(p):
    # one theorem_row serves every a of a list; each record must equal the
    # one built for its a alone: rhs_theorem on the right, and on the left
    # direct powers (the ladder for a <= 10, one pow per binomial above).
    # 1093 and 3511 are Wieferich primes, and B_(p-3) == 0 (mod 16843)
    ctx = PrimeContext(p)
    m, m3 = p**4, p**3
    direct = lhs_power_sums_batch(p, 10)
    row = binom_pm1(p, 4)

    @cache
    def lhs(a):
        if a <= 10:
            return direct[a]
        return sum(-pow(x, a, m) if a % 2 == 0 and k % 2 else pow(x, a, m) for k, x in enumerate(row)) % m

    def theorem(tag, a):
        return CongruenceCheck(tag, p, (a,), m, lhs(a), rhs_theorem(p, a, ctx.bpm3), True)

    for a_values in ROW_A_VALUES:
        assert verify_theorem_1_1(ctx, a_values) == [theorem("theorem_1_1", a) for a in a_values]
        if p >= 5:
            assert verify_cai_granville(ctx, a_values) == [
                CongruenceCheck("cai_granville", p, (a,), m3, lhs(a) % m3, pow(2, a * (p - 1), m3), True)
                for a in a_values
            ]
    assert verify_corollary(ctx, (5, 3, 4, 4)) == [theorem(f"corollary_a{a}", a) for a in (5, 3, 4, 4)]


def test_rhs_theorem_frozen_values():
    bpm3 = PrimeContext(5).bpm3
    assert rhs_theorem(5, 3, bpm3) == 346
    assert rhs_theorem(3, 2, None) == 79
    assert rhs_theorem(5, 1, bpm3) == 16


def test_rhs_theorem_matches_the_exact_rational_correction():
    # for p >= 5 the correction is taken mod p with 1/48 a unit; the exact
    # rational a(a-1)(3a-4)/48 * p^3 B_(p-3), reduced mod p^4, is the same,
    # every residue of B_(p-3) mod p included
    for p in (5, 7, 11, 13, 101):
        for bpm3 in {0, 1, p - 1, PrimeContext(p).bpm3}:
            for a in range(1, 30):
                exact = pow(2, a * (p - 1)) + theorem_coefficient(a) * bpm3 * p**3
                want = exact.numerator * pow(exact.denominator, -1, p**4) % p**4
                assert rhs_theorem(p, a, bpm3) == want, (p, a, bpm3)


def test_lhs_power_sum_matches_exact_small():
    for p in SMALL:
        batch = lhs_power_sums_batch(p, 5)
        for a in range(1, 6):
            assert batch[a] == lhs_power_sum_exact(p, a), (p, a)


def test_batch_matches_single():
    # a batch reaching only a agrees with the longer batch at a
    for p in SMALL:
        batch = lhs_power_sums_batch(p, 8)
        for a in range(1, 9):
            assert batch[a] == lhs_power_sums_batch(p, a)[a], (p, a)


def test_power_sum_a1_is_trivial():
    # a = 1 sums the whole binomial row: 2^(p-1) exactly
    for p in SMALL:
        assert lhs_power_sum_exact(p, 1) == pow(2, p - 1, p**4)


def test_power_sum_a2_equals_the_central_binomial_sweep():
    # the alternating square sum telescopes to one signed central
    # binomial coefficient, so the direct powers and the range's sweep
    # must agree exactly
    central4 = PrimeRange(sieve_odd_primes(3, 101)).central4
    for p, c in central4.items():
        assert lhs_power_sums_batch(p, 2)[2] == c, p


def test_theorem_coefficient_values():
    assert theorem_coefficient(1) == 0
    assert theorem_coefficient(2) == Fraction(1, 12)
    assert theorem_coefficient(3) == Fraction(5, 8)
    assert theorem_coefficient(4) == 2
    assert theorem_coefficient(5) == Fraction(55, 12)
    assert COROLLARY_COEFFICIENTS == {
        3: Fraction(5, 8),
        4: Fraction(2),
        5: Fraction(55, 12),
    }


def test_verify_theorem_small_primes():
    for p in SMALL:
        ctx = PrimeContext(p)
        for a, c in zip(range(1, 9), verify_theorem_1_1(ctx, range(1, 9)), strict=True):
            assert c.verdict, (p, a, c.lhs, c.rhs)
            assert c.identity == "theorem_1_1"
            assert c.modulus == p**4
            assert c.params == (a,)
            assert c.verdict == (c.lhs == c.rhs)


def test_rhs_reduces_to_power_of_two_mod_p3():
    # dropping the p^3 correction term recovers the mod-p^3 statement
    for p in (5, 7, 11, 31):
        for a in range(1, 9):
            assert rhs_theorem(p, a, PrimeContext(p).bpm3) % p**3 == pow(2, a * (p - 1), p**3), (p, a)


def test_verify_corollary_matches_theorem():
    for p in (3, 5, 7, 31):
        ctx = PrimeContext(p)
        for a, c, t in zip((3, 4, 5), verify_corollary(ctx), verify_theorem_1_1(ctx, (3, 4, 5)), strict=True):
            assert c.verdict, (p, a)
            assert c.identity == f"corollary_a{a}"
            assert (c.lhs, c.rhs) == (t.lhs, t.rhs)
    with pytest.raises(ValueError):
        verify_corollary(PrimeContext(7), (6,))


def test_verify_morley_known_values():
    c5 = verify_morley(PrimeContext(5))
    assert (c5.lhs, c5.rhs, c5.verdict) == (6, 6, True)
    c7 = verify_morley(PrimeContext(7))
    assert (c7.lhs, c7.rhs, c7.verdict) == (323, 323, True)
    with pytest.raises(ValueError):
        verify_morley(PrimeContext(3))


def test_verify_morley_sweep():
    for p in SMALL[1:] + [101, 103]:
        assert verify_morley(PrimeContext(p)).verdict, p


def test_verify_carlitz_known_values():
    c5 = verify_carlitz(PrimeContext(5))
    assert (c5.lhs, c5.rhs, c5.verdict) == (6, 6, True)
    assert c5.modulus == 625
    c3 = verify_carlitz(PrimeContext(3))
    assert (c3.lhs, c3.rhs, c3.verdict) == (79, 79, True)


def test_verify_carlitz_sweep():
    for p in SMALL + [101, 103]:
        assert verify_carlitz(PrimeContext(p)).verdict, p


def test_carlitz_refines_morley():
    for p in (5, 7, 11, 31):
        ctx = PrimeContext(p)
        c = verify_carlitz(ctx)
        m = verify_morley(ctx)
        assert c.lhs % p**3 == m.lhs


def test_verify_cai_granville():
    (c,) = verify_cai_granville(PrimeContext(5), (3,))
    assert (c.lhs, c.rhs, c.verdict) == (96, 96, True)
    for p in (5, 7, 11, 31):
        ctx = PrimeContext(p)
        for a, c in zip((1, 2, 3, 6), verify_cai_granville(ctx, (1, 2, 3, 6)), strict=True):
            assert c.verdict, (p, a)
    with pytest.raises(ValueError):
        verify_cai_granville(PrimeContext(3), (2,))


def test_u_sum_frozen_values():
    assert chamberland_dilcher_sums(5, [(1, 1, 1), (0, 2, 0), (0, 1, 1), (1, 2, 1), (0, 3, 0)]) == {
        (1, 1, 1): 124, (0, 2, 0): 2, (0, 1, 1): 3, (1, 2, 1): 124, (0, 3, 0): 2}
    assert chamberland_dilcher_sums(7, [(0, 1, 1), (1, 1, 2)]) == {(0, 1, 1): 3, (1, 1, 2): 340}


def test_u_sum_matches_exact_enumeration():
    # a = 0 sums to k = 2p, over the mirrored half of the C(2p, k) row;
    # b = 0 makes every C(2p, k) factor 1; no oracle compares u-sums at
    # 1009, which is above ORACLE_CAP_LIMIT
    triples = [(eps, a, b) for eps in (0, 1) for a in (0, 1, 2, 3) for b in (0, 1, 2, 3)]
    for p in (5, 7, 11, 13, 1009):
        got = chamberland_dilcher_sums(p, triples)
        assert list(got) == triples
        for t in triples:
            assert got[t] == chamberland_dilcher_exact(p, *t), (p, t)


def test_verify_u_sum_guaranteed_triples():
    triples = [(0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 1, 1), (1, 2, 1), (1, 1, 2)]
    for p in (5, 7, 11, 13, 31):
        ctx = PrimeContext(p, cd_triples=triples)
        for eps, a, b in triples:
            c = verify_chamberland_dilcher(ctx, eps, a, b)
            assert c.verdict, (p, eps, a, b, c.lhs, c.rhs)
            assert c.rhs == (1 + (-1) ** eps * 2**b) % p**3


def test_verify_u_sum_excluded_triples_raise():
    assert CD_EXCLUDED == ((0, 0, 1), (0, 1, 0))
    for eps, a, b in CD_EXCLUDED:
        with pytest.raises(ExcludedTriple):
            verify_chamberland_dilcher(PrimeContext(7, cd_triples=CD_EXCLUDED), eps, a, b)


def test_verify_u_sum_a_zero_is_judged_not_guaranteed():
    # a = 0 drops the first binomial factor; the sum is still computed
    # and judged, but the closed form no longer has to hold
    c = verify_chamberland_dilcher(PrimeContext(7, cd_triples=((0, 0, 2),)), 0, 0, 2)
    assert isinstance(c, CongruenceCheck)
    assert c.verdict == (c.lhs == c.rhs)


def test_alternating_square_sum_full_range():
    for n in range(0, 50):
        want = (-1) ** n * comb(2 * n, n)
        assert alternating_square_sum(n) == want, n


def test_alternating_square_sum_printed_limit_differs_at_n1():
    # the truncated upper limit k <= n gives -3 at n = 1 while the
    # closed form wants -2; the full range 0..2n restores it
    assert alternating_square_sum_printed_limit(1) == -3
    assert alternating_square_sum(1) == -2


def test_exact_identity_alternating_squares():
    for n in range(1, 60):
        c = exact_identity_1_3(n)
        assert c.verdict, n
        assert c.identity == "exact_1_3"
        assert c.modulus == 0
        assert c.rhs == (-1) ** n * comb(2 * n, n)


def test_exact_identity_cubes():
    for n in range(0, 50):
        c = exact_identity_1_4(n)
        assert c.verdict, n
        assert c.modulus == 0
        assert c.rhs == (-1) ** n * comb(2 * n, n) * comb(3 * n, n)
    assert exact_identity_1_4(1).lhs == -6
    assert exact_identity_1_4(2).lhs == 90


def test_p3_endgame_small_exponents():
    for a in range(1, 21):
        c = verify_p3_special(a)
        assert c.verdict, a
        assert c.p == 3 and c.modulus == 81
        assert c.rhs == 9 * a * (a - 1) % 81
    assert verify_p3_special(2).lhs == 18


def test_p3_endgame_agrees_with_theorem_at_p3():
    # the difference 2^(2a) - (mod p^3 main term) reproduced by the
    # wrapped checker must equal what the full verifier sees
    for a, th in zip((1, 2, 3, 5, 8, 13), verify_theorem_1_1(PrimeContext(3), (1, 2, 3, 5, 8, 13)), strict=True):
        assert th.verdict, a


def test_check_records_are_hashable_and_frozen():
    (c,) = verify_theorem_1_1(PrimeContext(5), (2,))
    assert hash(c)
    with pytest.raises(Exception):
        c.lhs = 0


def test_side_facts_decide_the_verdict_under_python_O():
    # the coefficient and bookkeeping checks are explicit code, not
    # asserts, so a broken side fact still fails the verdict under -O
    code = (
        "from fractions import Fraction\n"
        "import carlitzscan.congruences as cg\n"
        "from carlitzscan.context import PrimeContext\n"
        "cg.theorem_coefficient = lambda a: Fraction(0)\n"
        "print(cg.verify_corollary(PrimeContext(7), (3,))[0].verdict, cg.verify_p3_special(2).verdict)\n"
    )
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False"]
