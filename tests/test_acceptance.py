"""Acceptance suite: eleven go/no-go criteria for the whole package.

Each test prints one pass/fail line.  Congruences admit no tolerance,
so every comparison is exact equality of canonical residues or exact
integers.  The oracle gate (criterion 7) is a session fixture that the
scan criteria depend on, so it always executes before them.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from carlitzscan.bernoulli import bernoulli_exact, bernoulli_pm3_mod_primes
from carlitzscan.cli import ScanConfig, run_oracle_quantities
from carlitzscan.congruences import (
    COROLLARY_COEFFICIENTS,
    binom_pm1,
    exact_identity_1_3,
    exact_identity_1_4,
    lhs_power_sums_batch,
    rhs_theorem,
    theorem_coefficient,
    verify_carlitz,
    verify_morley,
    verify_p3_special,
)
from carlitzscan.context import CHUNK, IDENTITIES, PrimeContext, PrimeRange
from carlitzscan.harmonic import verify_derived_sums, verify_lemma_2_1, verify_lemma_2_2
from carlitzscan.residues import sieve_odd_primes
from helpers import alternating_square_sum_printed_limit, symmetric_inverse_sums

THEOREM_P_MAX = 10**4
CENTRAL_P_MAX = 10**5
LEMMA_P_MAX = 10**4


def report(n: int, ok: bool, msg: str) -> None:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {msg}")


def scan_contexts(primes: list[int]):
    """One PrimeContext per prime, one PrimeRange per chunk of primes, as verify scans them."""
    return (ctx for i in range(0, len(primes), CHUNK) for ctx in PrimeRange(primes[i : i + CHUNK]).contexts())


@pytest.fixture(scope="session")
def oracle_gate():
    """Criterion 7 gate: every fast path equals naive enumeration, p <= 101."""
    t0 = time.perf_counter()
    # every identity, so that each context field (the u-sums included) is compared
    cfg = ScanConfig(p_min=3, p_max=101, identities=tuple(IDENTITIES))
    bad = run_oracle_quantities(cfg)
    elapsed = time.perf_counter() - t0
    if bad is not None:
        report(7, False, f"oracle disagreement at {bad}")
        pytest.fail(f"oracle gate disagreement: {bad}")
    return elapsed


def test_criterion_01_theorem_sweep(oracle_gate):
    t0 = time.perf_counter()
    failures = []
    primes = sieve_odd_primes(3, THEOREM_P_MAX)
    # B_(p-3) from the range's sweep, a chunk of CHUNK primes at a time
    bpm3s = {ctx.p: ctx.bpm3 for ctx in scan_contexts(primes)}
    for p in primes:
        bpm3 = bpm3s[p]
        lhs = lhs_power_sums_batch(p, 10)
        for a in range(1, 11):
            if lhs[a] != rhs_theorem(p, a, bpm3):
                failures.append((p, a))
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(1, ok, f"main congruence mod p^4, {len(primes)} primes <= {THEOREM_P_MAX}, "
                  f"a = 1..10, {elapsed:.1f} s")
    assert ok, failures[:10]


def test_criterion_02_central_binomial_sweep(oracle_gate):
    t0 = time.perf_counter()
    failures = []
    primes = sieve_odd_primes(3, CENTRAL_P_MAX)
    for ctx in scan_contexts(primes):
        p = ctx.p
        if p >= 5 and not verify_morley(ctx).verdict:
            failures.append(("morley", p))
        if not verify_carlitz(ctx).verdict:
            failures.append(("carlitz", p))
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(2, ok, f"central binomial mod p^3 and p^4, {len(primes)} primes "
                  f"<= {CENTRAL_P_MAX}, {elapsed:.0f} s")
    assert ok, failures[:10]


def test_criterion_03_spot_values_with_local_oracle():
    # every expected number is recomputed here from scratch with exact
    # integers before being compared to the package's answer
    def local_rhs(p, a, b_exact):
        coef = Fraction(a * (a - 1) * (3 * a - 4), 48)
        x = Fraction(pow(2, a * (p - 1))) + coef * p**3 * b_exact
        m = p**4
        return x.numerator * pow(x.denominator, -1, m) % m

    s53 = sum((-1) ** ((3 - 1) * k) * comb(4, k) ** 3 for k in range(5))
    assert s53 == 346
    assert local_rhs(5, 3, Fraction(1, 6)) == 346 % 625

    s32 = sum((-1) ** k * comb(2, k) ** 2 for k in range(3))
    assert s32 == -2 and s32 % 81 == 79
    assert local_rhs(3, 2, Fraction(1)) == 79  # B_0 = 1 at p = 3

    carlitz5 = comb(4, 2)  # sign (+1)^2
    x = Fraction(pow(4, 4)) + Fraction(5**3, 12) * Fraction(1, 6)
    assert carlitz5 == 6
    assert x.numerator * pow(x.denominator, -1, 625) % 625 == 6

    ok = (
        lhs_power_sums_batch(5, 3)[3] == rhs_theorem(5, 3, PrimeContext(5).bpm3) == 346
        and lhs_power_sums_batch(3, 2)[2] == rhs_theorem(3, 2, None) == 79
        and verify_carlitz(PrimeContext(5)).lhs == verify_carlitz(PrimeContext(5)).rhs == 6
    )
    report(3, ok, "spot values 346 mod 625, 79 mod 81, 6 mod 625 rebuilt "
                  "from exact integers")
    assert ok


def test_criterion_04_closed_form_coefficients():
    ok = (
        theorem_coefficient(3) == Fraction(5, 8)
        and theorem_coefficient(4) == Fraction(2)
        and theorem_coefficient(5) == Fraction(55, 12)
        and COROLLARY_COEFFICIENTS[3] == Fraction(5, 8)
        and COROLLARY_COEFFICIENTS[4] == 2
        and COROLLARY_COEFFICIENTS[5] == Fraction(55, 12)
    )
    report(4, ok, "a(a-1)(3a-4)/48 equals 5/8, 2, 55/12 at a = 3, 4, 5")
    assert ok


def test_criterion_05_half_harmonic_closed_forms(oracle_gate):
    t0 = time.perf_counter()
    failures = []
    primes = sieve_odd_primes(5, LEMMA_P_MAX)
    for ctx in scan_contexts(primes):
        for c in verify_lemma_2_1(ctx):
            if not c.verdict:
                failures.append((ctx.p, c.identity, c.params))
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(5, ok, f"half-range sums parts (i) and (ii) n <= 12, "
                  f"{len(primes)} primes <= {LEMMA_P_MAX}, {elapsed:.0f} s")
    assert ok, failures[:10]


def test_criterion_06_even_restricted_closed_forms(oracle_gate):
    t0 = time.perf_counter()
    failures = []
    primes = sieve_odd_primes(5, LEMMA_P_MAX)
    for ctx in scan_contexts(primes):
        # both checks read the even-index sums of one sweep
        for c in verify_lemma_2_2(ctx):
            if not c.verdict:
                failures.append((ctx.p, c.identity))
        for c in verify_derived_sums(ctx):
            if c.identity in ("eq_2_9", "eq_2_10") and not c.verdict:
                failures.append((ctx.p, c.identity))
    a7, b7 = verify_lemma_2_2(PrimeContext(7))
    verbatim = (a7.lhs, a7.rhs) == (1, 1) and (b7.lhs, b7.rhs) == (5, 5)
    elapsed = time.perf_counter() - t0
    ok = not failures and verbatim
    report(6, ok, f"even-index double/triple sums and eliminations, "
                  f"{len(primes)} primes <= {LEMMA_P_MAX}, p=7 gives 1 and 5, "
                  f"{elapsed:.0f} s")
    assert ok, (failures[:10], verbatim)


def test_criterion_07_oracle_gate(oracle_gate):
    report(7, True, f"all fast paths equal naive enumeration for p <= 101 "
                    f"({oracle_gate:.1f} s)")
    assert oracle_gate >= 0


def test_criterion_08_exact_identities():
    failures = []
    for n in range(1, 301):
        if not exact_identity_1_3(n).verdict:
            failures.append(("squares", n))
    for n in range(1, 201):
        if not exact_identity_1_4(n).verdict:
            failures.append(("cubes", n))
    truncated = alternating_square_sum_printed_limit(1)
    full = exact_identity_1_3(1)
    documented = truncated == -3 and full.lhs == full.rhs == -2
    ok = not failures and documented
    report(8, ok, "alternating square identity n <= 300 and cube identity "
                  "n <= 200 in exact integers; truncated n=1 variant differs")
    assert ok, (failures[:5], truncated)


def test_criterion_09_bernoulli_two_routes():
    failures = []
    primes = sieve_odd_primes(5, 199)
    # B_(p-3) by Voronoi's congruence, from one sweep over the primes
    bpm3 = bernoulli_pm3_mod_primes(primes)
    for p in primes:
        b = bernoulli_exact(p - 3)
        want = b.numerator * pow(b.denominator, -1, p) % p
        if bpm3.get(p) != want:
            failures.append(p)
    ok = not failures
    report(9, ok, f"Voronoi's congruence equals exact recurrence at "
                  f"{len(primes)} primes 5..199")
    assert ok, failures


def test_criterion_10_smallest_prime_endgame():
    failures = []
    for a in range(1, 21):
        c = verify_p3_special(a)
        if not (c.verdict and c.rhs == 9 * a * (a - 1) % 81):
            failures.append(a)
        combined = Fraction(a * (a - 1) * (3 * a - 4), 48) * 27 + 9 * a * (a - 1)
        assert combined == Fraction(27, 16) * a * (a - 1) * (a + 4), a
        assert combined.numerator * pow(combined.denominator, -1, 81) % 81 == 0, a
    ok = not failures
    report(10, ok, "p=3 wrap-up: 9a(a-1) difference and the mod-81 "
                   "cancellation for a = 1..20")
    assert ok, failures


def test_criterion_11_product_expansion():
    failures = []
    primes = sieve_odd_primes(3, 101)
    for p in primes:
        m = p**4
        row = binom_pm1(p, 4)
        for r in range(p):
            s1, s2, s3 = symmetric_inverse_sums(p, r, 4)
            want = (1 - p * s1 + p * p * s2 - p**3 * s3) % m
            got = row[r] if r % 2 == 0 else (m - row[r]) % m
            if got != want:
                failures.append((p, r))
        for k in range(p):
            if sum((-1) ** r for r in range(k, p)) != (1 if k % 2 == 0 else 0):
                failures.append(("parity", p, k))
    ok = not failures
    report(11, ok, f"signed binomial equals 1 - p s1 + p^2 s2 - p^3 s3 mod p^4 "
                   f"for all r, {len(primes)} primes <= 101, with parity collapse")
    assert ok, failures[:10]
