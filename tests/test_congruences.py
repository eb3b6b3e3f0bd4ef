"""Tests for the congruence checkers and exact identities."""

import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from carlitzscan.bernoulli import bernoulli_pm3_mod_p
from carlitzscan.congruences import (
    CD_EXCLUDED,
    COROLLARY_COEFFICIENTS,
    CongruenceCheck,
    ExcludedTriple,
    alternating_square_sum,
    alternating_square_sum_printed_limit,
    binomial_moments,
    chamberland_dilcher_exact,
    chamberland_dilcher_u,
    exact_identity_1_3,
    exact_identity_1_4,
    lhs_power_sum_exact,
    lhs_power_sums_batch,
    moment_power_sum,
    rhs_theorem,
    theorem_coefficient,
    verify_cai_granville,
    verify_carlitz,
    verify_chamberland_dilcher,
    verify_corollary,
    verify_morley,
    verify_p3_special,
    verify_theorem_1_1,
)
from carlitzscan.context import PrimeContext
from carlitzscan.residues import is_odd_prime, signed_central_binomial

SMALL = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_lhs_power_sum_frozen_values():
    assert lhs_power_sums_batch(5, 3)[3] == 346
    assert lhs_power_sums_batch(3, 2)[2] == 79
    assert lhs_power_sums_batch(5, 1)[1] == 16


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009, 1093, 10007])
def test_moment_route_matches_direct_powers(p):
    # p = 3 has an odd middle index; 1093 is a Wieferich prime
    moments = binomial_moments(p)
    assert all(mj % p**j == 0 for j, mj in enumerate(moments, 1))
    direct = lhs_power_sums_batch(p, 40)
    for a in range(1, 41):
        assert moment_power_sum(p, a, moments) == direct[a], (p, a)
    with pytest.raises(ValueError):
        moment_power_sum(p, 0, moments)


def test_moment_verdicts_at_vanishing_bernoulli_prime():
    # B_(p-3) == 0 (mod 16843): the correction term drops out, and the
    # moment route must still read the lhs the direct powers give
    p = 16843
    ctx = PrimeContext(p, window=False)
    assert ctx.bpm3 == 0
    direct = lhs_power_sums_batch(p, 8)
    for a in range(1, 9):
        t = verify_theorem_1_1(ctx, a)
        c = verify_cai_granville(ctx, a)
        assert t.verdict and c.verdict, a
        assert t.lhs == direct[a] and c.lhs == direct[a] % p**3, a


def test_rhs_theorem_frozen_values():
    assert rhs_theorem(5, 3, bernoulli_pm3_mod_p(5)) == 346
    assert rhs_theorem(3, 2, None) == 79
    assert rhs_theorem(5, 1, bernoulli_pm3_mod_p(5)) == 16


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


def test_power_sum_a2_equals_signed_central_binomial():
    # the alternating square sum telescopes to one signed central
    # binomial coefficient, so the two fast paths must agree exactly
    for p in range(3, 102, 2):
        if is_odd_prime(p):
            assert lhs_power_sums_batch(p, 2)[2] == signed_central_binomial(p, 4), p


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
        for a in range(1, 9):
            c = verify_theorem_1_1(ctx, a)
            assert c.verdict, (p, a, c.lhs, c.rhs)
            assert c.identity == "theorem_1_1"
            assert c.modulus == p**4
            assert c.params == (a,)
            assert c.verdict == (c.lhs == c.rhs)


def test_rhs_reduces_to_power_of_two_mod_p3():
    # dropping the p^3 correction term recovers the mod-p^3 statement
    for p in (5, 7, 11, 31):
        for a in range(1, 9):
            assert rhs_theorem(p, a, bernoulli_pm3_mod_p(p)) % p**3 == pow(2, a * (p - 1), p**3), (p, a)


def test_verify_corollary_matches_theorem():
    for p in (3, 5, 7, 31):
        ctx = PrimeContext(p)
        for a in (3, 4, 5):
            c = verify_corollary(ctx, a)
            t = verify_theorem_1_1(ctx, a)
            assert c.verdict, (p, a)
            assert c.identity == f"corollary_a{a}"
            assert (c.lhs, c.rhs) == (t.lhs, t.rhs)
    with pytest.raises(ValueError):
        verify_corollary(PrimeContext(7), 6)


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
    c = verify_cai_granville(PrimeContext(5), 3)
    assert (c.lhs, c.rhs, c.verdict) == (96, 96, True)
    for p in (5, 7, 11, 31):
        ctx = PrimeContext(p)
        for a in (1, 2, 3, 6):
            assert verify_cai_granville(ctx, a).verdict, (p, a)
    with pytest.raises(ValueError):
        verify_cai_granville(PrimeContext(3), 2)


def test_u_sum_frozen_values():
    assert chamberland_dilcher_u(5, 1, 1, 1) == 124
    assert chamberland_dilcher_u(5, 0, 2, 0) == 2
    assert chamberland_dilcher_u(5, 0, 1, 1) == 3
    assert chamberland_dilcher_u(7, 0, 1, 1) == 3
    assert chamberland_dilcher_u(5, 1, 2, 1) == 124
    assert chamberland_dilcher_u(5, 0, 3, 0) == 2
    assert chamberland_dilcher_u(7, 1, 1, 2) == 340


def test_u_sum_matches_exact_enumeration():
    for p in (5, 7, 11, 13):
        for eps in (0, 1):
            for a in (0, 1, 2, 3):
                for b in (0, 1, 2):
                    got = chamberland_dilcher_u(p, eps, a, b)
                    want = chamberland_dilcher_exact(p, eps, a, b)
                    assert got == want, (p, eps, a, b)


def test_verify_u_sum_guaranteed_triples():
    for p in (5, 7, 11, 13, 31):
        for eps, a, b in [(0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 1, 1), (1, 2, 1), (1, 1, 2)]:
            c = verify_chamberland_dilcher(p, eps, a, b)
            assert c.verdict, (p, eps, a, b, c.lhs, c.rhs)
            assert c.rhs == (1 + (-1) ** eps * 2**b) % p**3


def test_verify_u_sum_excluded_triples_raise():
    assert CD_EXCLUDED == ((0, 0, 1), (0, 1, 0))
    for eps, a, b in CD_EXCLUDED:
        with pytest.raises(ExcludedTriple):
            verify_chamberland_dilcher(7, eps, a, b)


def test_verify_u_sum_a_zero_is_judged_not_guaranteed():
    # a = 0 drops the first binomial factor; the sum is still computed
    # and judged, but the closed form no longer has to hold
    c = verify_chamberland_dilcher(7, 0, 0, 2)
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
    for a in (1, 2, 3, 5, 8, 13):
        th = verify_theorem_1_1(PrimeContext(3), a)
        assert th.verdict, a


def test_check_records_are_hashable_and_frozen():
    c = verify_theorem_1_1(PrimeContext(5), 2)
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
        "print(cg.verify_corollary(PrimeContext(7), 3).verdict, cg.verify_p3_special(2).verdict)\n"
    )
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False"]
