"""End-to-end and unit tests for the command-line front end."""

import copy
import csv
import hashlib
import json
import multiprocessing
import multiprocessing.util
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, deque
from dataclasses import fields, replace
from math import ceil
from types import SimpleNamespace

import pytest

from carlitzscan import bernoulli as bn
from carlitzscan import cli
from carlitzscan import congruences as cg
from carlitzscan import harmonic as hm
from carlitzscan import residues as rs
from carlitzscan.cli import (
    CSV_HEADER,
    DEFAULT_IDENTITIES,
    ScanConfig,
    UsageError,
    _parse_a_values,
    run_oracle_quantities,
    run_verify,
)
from carlitzscan.congruences import CongruenceCheck
from carlitzscan.context import CHUNK, DEFAULT_CD_TRIPLES, FIELDS, Field, PrimeContext, PrimeRange
from carlitzscan.residues import is_odd_prime, sieve_odd_primes


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "carlitzscan", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def verify_records(cfg: ScanConfig) -> tuple[list[CongruenceCheck], int]:
    """run_verify's records, read back from its JSONL report, and its exit code."""
    report = run_verify(cfg)
    rows = map(json.loads, "".join(report).splitlines())
    records = [
        CongruenceCheck(r["identity"], r["p"], tuple(r["params"]), *map(int, (r["modulus"], r["lhs"], r["rhs"])), r["match"])
        for r in rows
    ]
    assert len(report) == len(records)
    return records, report.code


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# unit-level pieces


def test_sieve_odd_primes_small():
    assert sieve_odd_primes(3, 30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_odd_primes(3, 2) == []
    assert sieve_odd_primes(14, 16) == []
    assert sieve_odd_primes(97, 97) == [97]
    brute = [n for n in range(3, 1000) if is_odd_prime(n)]
    assert sieve_odd_primes(1, 999) == brute
    # a bound may be even, below 3, or past the other (an empty window)
    for lo, hi in ((14, 31), (15, 30), (-7, 2), (-7, 40), (0, 3), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4),
                   (30, 14), (98, 97), (98, 98), (10**6, 10**6 + 1000), (10**6 + 1, 10**6 + 999)):
        assert sieve_odd_primes(lo, hi) == [n for n in range(lo, hi + 1) if is_odd_prime(n)], (lo, hi)


def test_sieve_odd_primes_segmented_window():
    lo, hi = 10_000_000, 10_000_200
    got = sieve_odd_primes(lo, hi)
    assert got == [n for n in range(lo, hi + 1) if is_odd_prime(n)]
    assert 10_000_019 in got
    # pi(N) - 1 odd primes: 2 * 10^6 lies in the first segment of 2^20 odd
    # numbers, 4 * 10^6 in the second
    assert len(sieve_odd_primes(3, 2_000_000)) == 148932
    assert len(sieve_odd_primes(3, 4 * 10**6)) == 283145
    # a segment boundary lies 2^21 past the window's first odd number: a
    # prime p as the last flag of one segment, then as the first of the next
    p = next(n for n in range(12_000_001, 12_001_000, 2) if is_odd_prime(n))
    for lo in (p + 2 - 2**21, p - 2**21):
        got = sieve_odd_primes(lo, p + 300)
        assert [n for n in got if n >= p - 300] == [n for n in range(p - 300, p + 301) if is_odd_prime(n)]


def test_sieve_odd_primes_below_two_to_the_31_in_kilobytes():
    # a window's flags are no longer than the window, so one at the top of
    # the range holds them and the odd primes below sqrt(2^31), some 4,800
    lo, hi = rs.MAX_PRIME - 10_000, rs.MAX_PRIME - 1
    tracemalloc.start()
    try:
        got = sieve_odd_primes(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [n for n in range(lo, hi + 1) if is_odd_prime(n)]
    assert peak < 1 << 20


def test_parse_a_values():
    assert _parse_a_values("1,2,3") == (1, 2, 3)
    assert _parse_a_values("1..8") == tuple(range(1, 9))
    assert _parse_a_values("4") == (4,)
    with pytest.raises(UsageError):
        _parse_a_values("x,y")
    with pytest.raises(UsageError):
        _parse_a_values("3..z")


def test_a_values_are_bounded_before_any_is_built(capsys):
    # each a adds a record per prime, so the count is capped; a range
    # past the cap is refused from its ends, before range() is built
    limit = cli.A_VALUES_LIMIT
    assert len(_parse_a_values(f"1..{limit}")) == limit
    ScanConfig(a_values=tuple(range(1, limit + 1))).validate()
    with pytest.raises(UsageError):
        _parse_a_values(f"2..{limit + 2}")
    with pytest.raises(UsageError):
        ScanConfig(a_values=tuple(range(1, limit + 2))).validate()
    assert cli.main(["verify", "--p-max", "5", "--a", f"1..{10**12}"]) == 2
    assert f"at most {limit} a values" in capsys.readouterr().err


def test_scan_config_validation():
    ScanConfig().validate()
    with pytest.raises(UsageError):
        ScanConfig(p_min=10, p_max=9).validate()
    with pytest.raises(UsageError):
        ScanConfig(p_min=1, p_max=5).validate()
    with pytest.raises(UsageError):
        ScanConfig(jobs=0).validate()
    with pytest.raises(UsageError):
        ScanConfig(fmt="yaml").validate()
    with pytest.raises(UsageError):
        ScanConfig(a_values=(0, 1)).validate()
    with pytest.raises(UsageError):
        ScanConfig(oracle_cap=1001).validate()
    with pytest.raises(UsageError):
        ScanConfig(identities=("nope",)).validate()
    with pytest.raises(UsageError):
        ScanConfig(identities=("exact_1_3",), n_max=301).validate()
    with pytest.raises(UsageError):
        ScanConfig(identities=("exact_1_4",), n_max=201).validate()
    with pytest.raises(UsageError):
        ScanConfig(cd_triples=((0, 0, 1),)).validate()


def test_report_record_serialization():
    c = CongruenceCheck("morley", 7, (), 343, 323, 323, True)
    obj = json.loads(cli.jsonl_line(c))
    assert list(obj) == ["identity", "p", "params", "modulus", "lhs", "rhs", "match", "us"]
    assert obj["modulus"] == "343" and obj["lhs"] == "323" and obj["rhs"] == "323"
    assert obj["match"] is True and obj["us"] == 0
    row = cli.csv_row(c)
    assert row == ["morley", "7", "[]", "343", "323", "323", "true", "0"]


def test_jsonl_line_matches_json_dumps():
    # the line template writes what json.dumps writes for the record's dict:
    # no params, several params, a failed verdict and the negative lhs of
    # an exact identity
    records = [
        CongruenceCheck("morley", 7, (), 343, 323, 323, True),
        CongruenceCheck("chamberland_dilcher", 13, (1, 0, 1), 2197, 0, 2196, False),
        cg.exact_identity_1_3(3),
        *verify_records(ScanConfig(p_max=40, identities=tuple(cli.IDENTITIES), n_max=5))[0],
    ]
    assert records[2].lhs < 0
    for c in records:
        assert cli.jsonl_line(c) == json.dumps(dict(zip(cli.CSV_HEADER, cli._values(c))))


def test_run_verify_identity_filters():
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1_i",))
    records, code = verify_records(cfg)
    assert code == 0
    assert {r.identity for r in records} == {"lemma_2_1_i"}
    assert len(records) == len(sieve_odd_primes(5, 31))

    cfg = ScanConfig(p_min=5, p_max=31, identities=("eq_2_9",))
    records, code = verify_records(cfg)
    assert code == 0
    assert {r.identity for r in records} == {"eq_2_9"}

    cfg = ScanConfig(p_min=3, p_max=31, identities=("corollary",))
    records, code = verify_records(cfg)
    assert code == 0
    assert {r.identity for r in records} == {"corollary_a3", "corollary_a4", "corollary_a5"}

    # a part of lemma_2_1 adds no records next to the whole lemma
    whole, _ = verify_records(ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1",)))
    both, _ = verify_records(ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1", "lemma_2_1_ii")))
    assert both == whole


def test_run_verify_sorted_output():
    cfg = ScanConfig(p_min=3, p_max=60)
    records, code = verify_records(cfg)
    assert code == 0
    keys = [(r.p, r.identity, r.params) for r in records]
    assert keys == sorted(keys)


def test_run_verify_reports_failures_with_exit_1():
    # eps=1, a=0, b=1 sums the alternating binomial row, which is 0,
    # while the closed form wants -1: a genuine mismatch, not an error
    cfg = ScanConfig(
        p_min=5,
        p_max=11,
        identities=("chamberland_dilcher",),
        cd_triples=((1, 0, 1),),
    )
    records, code = verify_records(cfg)
    assert code == 1
    assert records and all(not r.verdict for r in records)
    assert all(r.lhs == 0 for r in records)


def test_oracle_quantity_filter_runs_clean():
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_2",))
    assert run_oracle_quantities(cfg) is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_disagreement_keeps_records_sorted(monkeypatch, jobs):
    monkeypatch.setitem(FIELDS, "q2", replace(FIELDS["q2"], naive=lambda p, q2: f"injected(p={p})"))
    cfg = ScanConfig(p_min=3, p_max=60, oracle_cap=31, jobs=jobs)
    assert run_oracle_quantities(cfg) == "injected(p=5)"
    records, code = verify_records(cfg)
    assert code == 1
    assert records and all(r.verdict for r in records)
    keys = [(r.p, r.identity, r.params) for r in records]
    assert keys == sorted(keys)


def _lines_through(text: str, fmt: str, p_last: int) -> list[str]:
    """The lines of a report (the CSV header included) up to its last record
    with p <= p_last."""
    lines = text.splitlines(keepends=True)
    start = 1 if fmt == "csv" else 0
    p_of = (lambda line: int(line.split(",", 2)[1])) if fmt == "csv" else (lambda line: json.loads(line)["p"])
    return lines[: start + sum(1 for line in lines[start:] if p_of(line) <= p_last)]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_disagreement_ends_the_report_after_its_prime(monkeypatch, capsys, jobs, fmt):
    # the scan stops at the first prime whose fields disagree: the report is
    # the clean report's prefix through that prime's records at every --jobs,
    # and verify and oracle each print one line for it
    argv = ["--p-max", "3000", "--oracle-cap", "1000", "--jobs", str(jobs), "--format", fmt]
    assert cli.main(["verify", *argv]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    prefix = _lines_through(clean.out, fmt, 101)
    assert 0 < len(prefix) < len(clean.out.splitlines())
    monkeypatch.setitem(FIELDS, "q2", replace(FIELDS["q2"], naive=lambda p, q2: "injected(p=101)" if p == 101 else None))
    built = []

    class RecordedRange(PrimeRange):
        def __init__(self, primes, *args):
            built.append(list(primes))
            super().__init__(primes, *args)

    monkeypatch.setattr(cli, "PrimeRange", RecordedRange)
    assert cli.main(["verify", *argv]) == 1
    cut = capsys.readouterr()
    assert cut.out == "".join(prefix)
    assert cut.err == "oracle disagreement: injected(p=101)\n"
    report = run_verify(ScanConfig(p_max=3000, oracle_cap=1000, jobs=jobs, fmt=fmt))
    assert "".join(report) == cut.out
    assert len(report) == len(prefix) - (fmt == "csv")
    assert report.code == 1 and report.disagreement == "injected(p=101)"
    assert capsys.readouterr().err == ""
    assert cli.main(["oracle", "--p-max", "1000", "--jobs", str(jobs)]) == 1
    assert capsys.readouterr() == ("", "oracle disagreement: injected(p=101)\n")
    if jobs == 1:
        # each of the three scans built the range of the chunk holding 101, and none past it
        assert len(built) == 3 and all(chunk[0] == 3 and 101 in chunk for chunk in built)
    # the stopped scans killed their workers
    assert_no_children()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_scan_split_at_a_prime_concatenates_to_the_whole(capsys, jobs):
    # verify --p-max X, then --p-min X+1 --p-max Y, writes the bytes of
    # verify --p-max Y for the per-prime identities; the whole scan's first
    # chunk ends past X at both --jobs.  The exact identities ignore
    # --p-min and are written again by every part
    def report(*argv):
        assert cli.main(["verify", "--jobs", str(jobs), *argv]) == 0
        return capsys.readouterr().out

    whole = report("--p-max", "1000")
    assert report("--p-max", "400") + report("--p-min", "401", "--p-max", "1000") == whole
    exact = ["--identity", "exact_1_3", "--n-max", "5"]
    assert report(*exact, "--p-max", "400") == report(*exact, "--p-min", "401", "--p-max", "1000") != ""


# sha256 of the JSONL report of each identity over 3 <= p <= 200 with
# a = 1..8, n_max = 50 and the default --cd triples, as written by the
# code before the per-prime context existed (commit 9a4e1d2, run with
# its --no-timing flag, which set the us column to 0 as it always is now)
GOLDEN_DIGESTS = {
    "theorem_1_1": "8789f638f45caa80839c5eb2c39a6962d55edc25683b6029f6a9803be3ac1428",
    "corollary": "05d168a2a03a6f1097a2ea07bdd90cc62689c0ba940407df6e311ca40b48a01e",
    "morley": "565806166f03a5620cccd15fa187350cab211912b07575169aa1504d7fe916af",
    "carlitz": "5f3b53861741d2238c001c1620cc607d8a290eeb21b47ee4afd035aba08167f9",
    "cai_granville": "e9fceb33239fc1cd46ddc60df1396a2acd796caa57628dd2ab707bca6c571117",
    "chamberland_dilcher": "425200747d6a5ee28c7496f17d752ebff1b2e5e6b5c2fe4e00ee0e1eeab8602e",
    "lemma_2_1": "0d68c518ff73e3f2d679801da30f97a76ac9078f187244ef390d434593fe2a24",
    "lemma_2_1_i": "0e5851d4785f3ed9ea834505c6e830d747a6138207e78ed59fda46c9c84e5854",
    "lemma_2_1_ii": "93cb9f8fb7a1bb5d51ace39c5ebcf699dddfe50fda86bc97a27501d1e305c6a5",
    "lemma_2_2": "9bf19eb83072f372beae5574d68999c6faa5243842a638dc8151949bdd25e6da",
    "eq_2_7": "f6079cf42c49f6c7328e2f435cd552aaed93f08091129906d96fd4413b128b25",
    "eq_2_8": "7f404bf885b30b0fe47baf827890d7c23f25b622bf02e286dbdf22dcdb5a4735",
    "eq_2_9": "1ddb102cfd545590561c588179db5105e9d945fa7db0550fd4c431a7b80305f5",
    "eq_2_10": "5aca2b48b97270069c418aefa9e240828a3546e98d7ed89510341af63f1435e0",
    "exact_1_3": "32ce06253612600126b4af59f692d4ee645c7709c38b255f0ba4a2b3ae4ba8f4",
    "exact_1_4": "501fd0e47f4b69de8b3db4b11f28e6ad59d79e9e349cd5e17fba28213386dd77",
    "p3_special": "e2d0bc2383aabb0c1dca21c3145b30244239cd6bb1b48038b051590e871d7791",
}


def test_reports_match_golden_digests():
    assert set(GOLDEN_DIGESTS) == set(cli.IDENTITIES)
    changed = []
    for tag, want in GOLDEN_DIGESTS.items():
        report = run_verify(ScanConfig(p_min=3, p_max=200, identities=(tag,), n_max=50))
        text = "".join(report)
        if report.code != 0 or hashlib.sha256(text.encode()).hexdigest() != want:
            changed.append(tag)
    assert changed == []


# sha256 of `sums` output at each prime, as written by the code that
# still summed the even-index single sums in their own sweep (8b15ea9)
SUMS_DIGESTS = {
    5: "f84baa273b06c18bda9f1d4bd8c218a30d229c6f94ca92d242a7be9723e15e54",
    7: "4e00644588864f8323cdfd4aaca8c497b7f975dc3e0ecffb453d896f7cbc9d4f",
    13: "11b3a7abf2869ce2298500fff80f7f26e6d29afb49cdf5eafd8acc6db02d7c31",
    101: "37819eb237eda8c26c60de1ed964774b66f1aa1f7bb89f776a9cfaf67d03ada9",
    1009: "b720b40e6f43bad982abef13082485f62f8225c899dc3053d438da077adaf7bc",
}


def test_sums_output_matches_golden_digests(capsys):
    changed = []
    for p, want in SUMS_DIGESTS.items():
        assert cli.main(["sums", str(p)]) == 0
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != want:
            changed.append(p)
    assert changed == []


def test_p_max_above_the_memory_limit_is_refused(monkeypatch, capsys):
    # refused with exit 2 before any context is built; nothing is scanned
    def forbidden(*args, **kwargs):
        raise AssertionError("an oversized prime reached the scan")

    monkeypatch.setattr(cli, "run_verify", forbidden)
    monkeypatch.setattr(cli, "PrimeContext", forbidden)
    limit = cli.P_MAX_LIMIT
    ScanConfig(p_min=limit, p_max=limit).validate()
    with pytest.raises(UsageError):
        ScanConfig(p_max=limit + 1).validate()
    over = next(n for n in range(limit + 1, 2 * limit) if is_odd_prime(n))
    assert cli.main(["verify", "--p-max", str(over)]) == 2
    assert cli.main(["sums", str(over)]) == 2
    assert str(limit) in capsys.readouterr().err


def test_oracle_starts_at_p_min(capsys):
    # p = 3 is compared too, as under verify --oracle-cap
    assert cli.main(["oracle", "--p-max", "31"]) == 0
    assert capsys.readouterr().out == "oracle agreement over 10 primes in [3, 31]\n"


def test_a_scan_config_is_checked_when_built():
    # Report and run_oracle_quantities take a ScanConfig as it is: one out
    # of range must never reach them
    with pytest.raises(UsageError):
        ScanConfig(p_max=cli.P_MAX_LIMIT + 1)


def test_oracle_counts_the_primes_its_scan_visited(capsys):
    # the exact identities run over n, so the scan visits no prime
    assert cli.main(["oracle", "--identity", "exact_1_3", "--p-max", "50"]) == 0
    assert capsys.readouterr().out == "oracle agreement over 0 primes in [3, 50]\n"


def test_oracle_reads_the_field_behind_the_verdicts(monkeypatch):
    # corrupt one even-index sum at p = 13 where the range computes it:
    # the lemma_2_2 verdict and the oracle must both see the damage
    fast = hm.even_index_sweep

    def corrupted(primes):
        sums = fast(primes)
        if 13 in sums:
            sums[13].double[(1, 2, 1)] = (sums[13].double[(1, 2, 1)] + 1) % 13
        return sums

    monkeypatch.setattr(hm, "even_index_sweep", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_2",))
    records, code = verify_records(cfg)
    assert code == 1
    assert [(r.p, r.identity) for r in records if not r.verdict] == [(13, "lemma_2_2_a")]
    assert run_oracle_quantities(cfg) == "even_double(p=13, s=1, t=2, e=1)"


def test_oracle_reads_the_range_behind_the_verdicts(monkeypatch):
    # shift the range's central binomial by p^2 at p = 13: the morley
    # (mod p^3) and carlitz (mod p^4) verdicts and the oracle must all see it
    fast = rs.signed_central_binomials

    def corrupted(primes):
        values = fast(primes)
        if 13 in values:
            values[13] = (values[13] + 13**2) % 13**4
        return values

    monkeypatch.setattr(rs, "signed_central_binomials", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("morley", "carlitz"))
    records, code = verify_records(cfg)
    assert code == 1
    assert [(r.p, r.identity) for r in records if not r.verdict] == [(13, "carlitz"), (13, "morley")]
    assert run_oracle_quantities(cfg) == "central_binomial(p=13, e=4)"


def test_oracle_reads_the_moments_behind_the_verdicts(monkeypatch):
    # shift the range's W by p^2 at p = 13, which moves S_(-1) and so M3
    # by a unit times p^3: only the mod-p^4 power sums with C(a, 3) != 0
    # (mod 13) move, and the oracle must name the first
    fast = cg.staver_sweep

    def corrupted(primes):
        values = fast(primes)
        if 13 in values:
            values[13] = (values[13] + 13**2) % 13**3
        return values

    monkeypatch.setattr(cg, "staver_sweep", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("theorem_1_1", "cai_granville"))
    records, code = verify_records(cfg)
    assert code == 1
    bad = [(r.p, r.identity, r.params) for r in records if not r.verdict]
    assert bad == [(13, "theorem_1_1", (a,)) for a in range(3, 9)]
    assert run_oracle_quantities(cfg) == "power_sum(p=13, a=3)"


def test_oracle_reads_the_u_sums_behind_the_verdicts(monkeypatch):
    # shift one u-sum by p^2 at p = 13 where the context computes it:
    # the chamberland_dilcher verdict and the oracle must both see it
    fast = cg.chamberland_dilcher_sums

    def corrupted(p, triples):
        sums = fast(p, triples)
        if p == 13:
            sums[1, 1, 1] = (sums[1, 1, 1] + p * p) % p**3
        return sums

    monkeypatch.setattr(cg, "chamberland_dilcher_sums", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("chamberland_dilcher",))
    records, code = verify_records(cfg)
    assert code == 1
    assert [(r.p, r.params) for r in records if not r.verdict] == [(13, (1, 1, 1))]
    assert run_oracle_quantities(cfg) == "cd(p=13, eps=1, a=1, b=1)"


def test_oracle_reads_the_bernoulli_residue_behind_the_verdicts(monkeypatch):
    # shift the range's B_(p-3) by 1 at p = 13: carlitz and both lemma 2.2
    # sums read it, and the oracle must see it through power-sum extraction
    fast = bn.bernoulli_pm3_mod_primes

    def corrupted(primes):
        values = fast(primes)
        if 13 in values:
            values[13] = (values[13] + 1) % 13
        return values

    monkeypatch.setattr(bn, "bernoulli_pm3_mod_primes", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("carlitz", "lemma_2_2"))
    records, code = verify_records(cfg)
    assert code == 1
    bad = [(r.p, r.identity) for r in records if not r.verdict]
    assert bad == [(13, "carlitz"), (13, "lemma_2_2_a"), (13, "lemma_2_2_b")]
    assert run_oracle_quantities(cfg) == "bernoulli_pm3(p=13)"


def test_the_oracle_checks_primes_that_read_the_odd_walk(monkeypatch):
    # CI's oracle step from 401 to the cap compares B_(p-3) at primes whose
    # p // 6 exceeds PM3_FULL, so the odd walk is under the oracle too
    walk, odd = bn._cube_walk, set()

    def spy(step, reads, sums):
        if step == 2:
            odd.update(p for _, p, _ in reads)
        walk(step, reads, sums)

    monkeypatch.setattr(bn, "_cube_walk", spy)
    cfg = ScanConfig(p_min=401, p_max=1000, identities=("carlitz", "morley"))
    assert run_oracle_quantities(cfg) is None
    assert odd == {p for p in sieve_odd_primes(401, 1000) if p // 6 > bn.PM3_FULL}
    assert min(odd) == 787 and max(odd) == 997


@pytest.mark.parametrize("damage, failing, name", [
    ("hn_value", [(4,)], "half_hn(p=13, n=4)"),
    ("window_value", [(4,), (5,)], "bern(p=13, j=5)"),
    ("hn_key", [], "half_hn_keys(p=13)"),
], ids=["hn_value", "window_value", "hn_key"])
def test_oracle_reads_the_half_sums_behind_the_verdicts(monkeypatch, damage, failing, name):
    # damage the range's inverse-power sweep at p = 13 in one of three
    # ways.  A wrong value fails the lemma 2.1 records that read it; a
    # dropped exponent drops its record and fails none, so the oracle's
    # key check is what catches it
    fast = hm.inverse_power_sweep

    def corrupted(primes):
        values = fast(primes)
        if 13 in values:
            half, window = values[13]
            if damage == "hn_value":
                half.hn[4] = (half.hn[4] + 13) % 13**2
            elif damage == "window_value":
                window[5] = (window[5] + 1) % 13
            else:
                del half.hn[11]
        return values

    monkeypatch.setattr(hm, "inverse_power_sweep", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1",))
    records, code = verify_records(cfg)
    assert code == (1 if failing else 0)
    assert [(r.p, r.identity, r.params) for r in records if not r.verdict] == [
        (13, "lemma_2_1_ii", n) for n in failing
    ]
    kept = {r.params[0] for r in records if r.p == 13 and r.identity == "lemma_2_1_ii"}
    assert kept == set(range(2, 11 if damage == "hn_key" else 12))
    assert run_oracle_quantities(cfg) == name


def test_every_context_field_has_one_oracle(monkeypatch):
    # each FIELDS entry has one producer, the range's values keyed by p,
    # and a naive route
    assert [f.name for f in fields(Field)] == ["naive", "by_prime", "p_min"]
    for name, field in FIELDS.items():
        assert callable(field.by_prime) and callable(field.naive), name
    # and the default oracle run (every identity) compares each of them
    seen = Counter()
    for name, field in list(FIELDS.items()):
        def counted(p, value, name=name, naive=field.naive):
            seen[name] += 1
            return naive(p, value)

        monkeypatch.setitem(FIELDS, name, replace(field, naive=counted))
    assert cli.main(["oracle", "--p-max", "31"]) == 0
    assert set(seen) == set(FIELDS)


def test_unknown_names_fail_before_the_lookup_reads_the_instance():
    # __getattr__ serves FIELDS names only; any other name raises
    # AttributeError without reading p or the range, so getattr's default,
    # copy and pickle, which probe instances (bare ones too), work
    ctx, r = PrimeContext(7), PrimeRange([5, 7])
    for obj in (ctx, r, object.__new__(PrimeContext), object.__new__(PrimeRange)):
        assert getattr(obj, "x", None) is None
        with pytest.raises(AttributeError, match="'x'"):
            obj.x
    # a range holds every field keyed by p, q2 and the u-sums as well
    assert r.q2 == {p: bn.fermat_quotient_2(p) for p in (5, 7)}
    assert r.cd == {p: cg.chamberland_dilcher_sums(p, r.cd_triples) for p in (5, 7)}
    twin = copy.copy(ctx)
    assert twin.q2 == ctx.q2 == bn.fermat_quotient_2(7) and twin.prime_range is ctx.prime_range
    assert "q2" in vars(twin) and "q2" in vars(ctx)
    back = pickle.loads(pickle.dumps(PrimeContext(11)))
    assert (back.p, back.bpm3, back.window) == (11, bn.bernoulli_mod_p(11, 8), PrimeContext(11).window)
    assert pickle.loads(pickle.dumps(r)).central4 == r.central4


def test_a_context_with_every_field_read_copies_and_pickles():
    # every field is plain data, the u-sums included, so a context whose
    # fields have all been read survives copy and pickle with its range
    ctx = PrimeContext(13, cd_triples=((1, 1, 2), (0, 1, 1)))
    values = {name: getattr(ctx, name) for name in FIELDS}
    assert set(vars(ctx)) >= set(FIELDS) and values["cd"]
    for twin in (copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert {name: vars(twin)[name] for name in FIELDS} == values
        assert twin.prime_range.cd_triples == ctx.prime_range.cd_triples
    assert copy.copy(ctx).cd is ctx.cd


def test_row_is_built_once_per_list_of_a_values(monkeypatch):
    # theorem_1_1 and cai_granville read the row of the scan's a values,
    # the corollary that of (3, 4, 5): two rows per prime, not three
    calls = Counter()
    fast = cg.theorem_row

    def counted(p, moments, a_values):
        calls[p, tuple(a_values)] += 1
        return fast(p, moments, a_values)

    monkeypatch.setattr(cg, "theorem_row", counted)
    tags = ("theorem_1_1", "corollary", "cai_granville")
    records, code = verify_records(ScanConfig(p_max=100, identities=tags))
    assert code == 0 and records
    primes = sieve_odd_primes(3, 100)
    assert calls == Counter({(p, a): 1 for p in primes for a in (cli.DEFAULT_A, (3, 4, 5))})


def test_each_quantity_is_computed_once_per_prime(monkeypatch):
    # the context is the only producer: no check computes a quantity
    # itself, each PrimeRange sweep yields one value per prime and field,
    # the u-sums of all the range's triples are built in one call per
    # prime, and the naive routes
    # run only under the oracle, once per prime and argument: one
    # power-sum extraction of each prime and Bernoulli offset
    calls = Counter()

    def count(mod, name):
        fn = getattr(mod, name)

        def counted(p, *args, **kwargs):
            calls[name, p, args] += 1
            return fn(p, *args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    def count_sweep(mod, name):
        fn = getattr(mod, name)

        def counted(primes):
            values = fn(primes)
            calls.update((name, p, ()) for p in values)
            return values

        monkeypatch.setattr(mod, name, counted)

    sweeps = ((cg, "staver_sweep"), (rs, "signed_central_binomials"), (bn, "bernoulli_pm3_mod_primes"),
              (hm, "inverse_power_sweep"), (hm, "even_index_sweep"))
    naive = ((cg, "lhs_power_sums_batch"), (hm, "naive_half_harmonic"), (hm, "naive_even_double"),
             (hm, "naive_even_triple"))
    for mod, name in sweeps:
        count_sweep(mod, name)
    for mod, name in naive + ((bn, "fermat_quotient_2"), (cg, "chamberland_dilcher_sums")):
        count(mod, name)
    extraction = bn.bernoulli_mod_p

    def counted_extraction(p, index):
        calls["bernoulli_mod_p", p, (p - index,)] += 1
        return extraction(p, index)

    monkeypatch.setattr(bn, "bernoulli_mod_p", counted_extraction)
    per_prime = tuple(tag for tag, e in cli.IDENTITIES.items() if e.over == "p")
    no_lemma_2_1 = tuple(t for t in per_prime if not t.startswith("lemma_2_1"))
    primes = set(sieve_odd_primes(3, 200))
    # the moments (from W, q2 and the central binomial), q2 and the central
    # binomial are read at p = 3 too, the rest from p = 5
    from_3 = {"staver_sweep", "signed_central_binomials", "lhs_power_sums_batch", "fermat_quotient_2"}
    always = {"staver_sweep", "signed_central_binomials", "bernoulli_pm3_mod_primes",
              "even_index_sweep", "fermat_quotient_2"}
    # without lemma_2_1 no inverse-power sweep runs; the oracle under
    # --oracle-cap compares the scan's own contexts with the naive routes,
    # power-sum extraction at offset 3 (B_(p-3)) and at lemma 2.1's
    # offsets 5..13 (the window)
    for tags, keys, offsets, cap in (
        (DEFAULT_IDENTITIES, {"inverse_power_sweep"}, set(), 0),
        (no_lemma_2_1, {"chamberland_dilcher_sums"}, set(), 0),
        (DEFAULT_IDENTITIES, {"inverse_power_sweep", "bernoulli_mod_p"} | {name for _, name in naive},
         set(range(3, 14, 2)), 200),
    ):
        calls.clear()
        records, code = verify_records(ScanConfig(p_max=200, identities=tags, oracle_cap=cap))
        assert code == 0 and records
        assert {key for key, _, _ in calls} == always | keys
        extracted = {(p, args[0]) for name, p, args in calls if name == "bernoulli_mod_p"}
        assert extracted == {(p, j) for p in primes - {3} for j in offsets if j <= p - 2}
        for key in {key for key, _, _ in calls}:
            assert {p for name, p, _ in calls if name == key} == (primes if key in from_3 else primes - {3}), key
        assert max(calls.values()) == 1


def test_a_scan_tests_no_prime_the_sieve_proved(monkeypatch):
    # the chunks hold the sieve's primes as OddPrimes built untested, which
    # PrimeRange, PrimeContext and every kernel pass through: theorem_1_1
    # for a = 1..10 over the 360 odd primes from 3, and the default set,
    # test none of them again
    tested = []
    monkeypatch.setattr(rs, "is_odd_prime", lambda n: tested.append(n) or is_odd_prime(n))
    records, code = verify_records(ScanConfig(p_max=2437, a_values=tuple(range(1, 11)), identities=("theorem_1_1",)))
    assert code == 0 and len(records) == 3600 and tested == []
    records, code = verify_records(ScanConfig(p_max=1500))
    assert code == 0 and records and tested == []
    # a range of plain ints is still tested
    PrimeRange([103, 101])
    assert sorted(tested) == [101, 103]


def test_lemma_2_1_reads_any_offset_after_bpm3():
    # B_(p-3) read first no longer fixes which offsets the context holds
    ctx = PrimeContext(31)
    assert ctx.bpm3 == bn.bernoulli_mod_p(31, 28)
    assert hm.verify_lemma_2_1(ctx) == hm.verify_lemma_2_1(PrimeContext(31))


@pytest.fixture
def inline_fork(monkeypatch):
    """Replace the fork context by a stand-in that starts no process: a
    worker runs all its tasks in this process when it is started, and its
    results wait in its stand-in pipe until the parent reads them.  The
    namespace it returns records, for each scan that forks, the number of
    processes (the parent included), and for every scan its tasks' chunks
    of primes."""
    seen = SimpleNamespace(sizes=[], chunks=[])

    class InlinePipe:
        def __init__(self):
            self.results = deque()

        def send(self, result):
            self.results.append(result)

        def recv(self):
            return self.results.popleft()

        def close(self):
            pass

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args
            seen.sizes[-1] += 1

        def start(self):
            self.target(*self.args)

        def join(self):
            pass

        kill = close = join

    class InlineContext:
        Process = InlineProcess

        def Pipe(self, duplex):
            assert not duplex
            end = InlinePipe()
            return end, end

    def get_context(method):
        assert method == "fork"
        seen.sizes.append(1)
        return InlineContext()

    run = cli._run

    def recorded_run(fn, tasks, jobs):
        seen.chunks.append([task[0] for task in tasks])
        return run(fn, tasks, jobs)

    # _run imports multiprocessing when it forks, so it reads this context
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(cli, "_run", recorded_run)
    return seen


def test_pool_is_bounded_by_the_cpus(monkeypatch, inline_fork):
    # each process runs on a CPU of its own, so --jobs far above the CPUs
    # this process may use is cut to them; the stand-in starts nothing and
    # pins nothing.  Each task is a chunk of consecutive primes: an even
    # share per process, at most CHUNK primes each
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli.os, "sched_setaffinity", lambda pid, cpus: None)
    records, code = verify_records(ScanConfig(p_max=400, jobs=100_000))
    assert code == 0 and records
    assert run_oracle_quantities(ScanConfig(p_max=31, jobs=100_000)) is None
    records, code = verify_records(ScanConfig(p_max=20_000, jobs=2, identities=("carlitz",)))
    assert code == 0 and len(records) == len(sieve_odd_primes(3, 20_000))
    # a single task (here the exact identities alone) runs without a fork
    records, code = verify_records(ScanConfig(p_max=20_000, jobs=2, identities=("exact_1_4",), n_max=5))
    assert code == 0 and len(records) == 5
    assert inline_fork.sizes == [2, 2, 2]
    for chunked, p_max in zip(inline_fork.chunks, (400, 31, 20_000)):
        primes = sieve_odd_primes(3, p_max)
        size = max(1, min(CHUNK, ceil(len(primes) / 2)))
        assert [p for chunk in chunked for p in chunk] == primes
        assert {len(chunk) for chunk in chunked[:-1]} <= {size} and 0 < len(chunked[-1]) <= size
    assert len(inline_fork.chunks[2][0]) == CHUNK
    assert inline_fork.chunks[3] == [[]]
    # a mask of one CPU leaves one process, the parent
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {1})
    records, code = verify_records(ScanConfig(p_max=400, jobs=2))
    assert code == 0 and records and inline_fork.sizes == [2, 2, 2]


@pytest.mark.parametrize("placement", ["pinned", "refused", "unsupported"])
def test_each_pool_worker_takes_a_cpu_of_its_own(monkeypatch, inline_fork, placement):
    # the first CPUs of the mask go one per process: each worker pins itself
    # to its own as it starts, the parent to the first for the scan, and the
    # parent's whole mask comes back at the end; where the kernel refuses or
    # the platform has no affinity calls, each process runs where it is and
    # the report is the same
    cfg = ScanConfig(p_max=400, jobs=3)
    want = verify_records(replace(cfg, jobs=1))
    pinned = []

    def pin(pid, cpus):
        pinned.append((pid, set(cpus)))
        if placement == "refused":
            raise OSError(22, "Invalid argument")

    if placement == "unsupported":
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.delattr(cli.os, "sched_setaffinity")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {11, 7, 2, 5})
        monkeypatch.setattr(cli.os, "sched_setaffinity", pin)
    assert verify_records(cfg) == want
    assert inline_fork.sizes == [3]
    assert pinned == ([] if placement == "unsupported" else [(0, {5}), (0, {7}), (0, {2}), (0, {2, 5, 7, 11})])


def test_a_platform_without_fork_runs_the_scan_in_process(monkeypatch):
    # get_context("fork") raises ValueError where there is no fork
    cfg = ScanConfig(p_max=400, jobs=2)
    want = verify_records(replace(cfg, jobs=1))

    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    assert verify_records(cfg) == want


def _cpus_of_this_worker(rendezvous: str) -> set[int]:
    """A task: the CPUs the process running it may use, read once each of
    the two processes, the parent and its worker, holds a task."""
    open(os.path.join(rendezvous, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 60
    while len(os.listdir(rendezvous)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.sched_getaffinity(0)


def test_pool_workers_run_on_distinct_cpus(tmp_path):
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if len(allowed) < 2:
        pytest.skip("needs at least 2 CPUs to run on")
    cpus = list(cli._run(_cpus_of_this_worker, [str(tmp_path)] * 2, 2))
    assert len(os.listdir(tmp_path)) == 2
    assert all(len(c) == 1 for c in cpus) and cpus[0] != cpus[1]
    assert cpus[0] | cpus[1] <= allowed
    # the parent ran the first task pinned, and its mask is back
    assert os.sched_getaffinity(0) == allowed
    assert_no_children()


needs_two_cpus_and_fork = pytest.mark.skipif(
    len(cli._allowed_cpus()) < 2 or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs at least 2 CPUs to run on and fork",
)


def _pid(task) -> int:
    return os.getpid()


@needs_two_cpus_and_fork
def test_the_parent_runs_every_w_th_task_and_a_worker_the_rest():
    pids = list(cli._run(_pid, range(4), 2))
    assert pids[0] == pids[2] == os.getpid()
    assert pids[1] == pids[3] != os.getpid()
    assert_no_children()


def _fail_odd(task: int) -> int:
    if task % 2:
        raise KeyError(task)
    return task


@needs_two_cpus_and_fork
def test_a_task_that_raises_in_a_worker_raises_in_the_parent(monkeypatch):
    # the worker runs the odd tasks, so the parent yields task 0 and then
    # meets the worker's KeyError at task 1
    results = cli._run(_fail_odd, range(4), 2)
    assert next(results) == 0
    with pytest.raises(KeyError):
        next(results)
    assert_no_children()
    # in a scan, the worker's chunk raises and verify does not exit: the
    # report is cut, so there is no verdict to give
    parent = os.getpid()
    scan_chunk = cli._scan_chunk

    def failing_in_a_worker(task):
        if os.getpid() != parent:
            raise LookupError("injected")
        return scan_chunk(task)

    monkeypatch.setattr(cli, "_scan_chunk", failing_in_a_worker)
    with pytest.raises(LookupError, match="injected"):
        cli.main(["verify", "--p-max", "3000", "--jobs", "2", "--out", os.devnull])
    assert_no_children()


@needs_two_cpus_and_fork
def test_a_worker_that_dies_without_its_result_fails_the_scan(monkeypatch):
    parent = os.getpid()
    scan_chunk = cli._scan_chunk

    def dying_in_a_worker(task):
        if os.getpid() != parent:
            os._exit(1)
        return scan_chunk(task)

    monkeypatch.setattr(cli, "_scan_chunk", dying_in_a_worker)
    with pytest.raises(RuntimeError, match="exited with code 1"):
        cli.main(["verify", "--p-max", "3000", "--jobs", "2", "--out", os.devnull])
    assert_no_children()


def _write_at_exit(path: str) -> None:
    time.sleep(0.2)
    open(os.path.join(path, str(os.getpid())), "w").close()


def _exit_late(task: tuple) -> int:
    """A task whose worker, like one traced by bench/child.py, has an exit
    handler that still writes once the last result is sent."""
    path, parent = task
    if os.getpid() != parent:
        multiprocessing.util.Finalize(None, _write_at_exit, args=(path,), exitpriority=10)
    return os.getpid()


@needs_two_cpus_and_fork
def test_a_scan_that_ends_lets_its_workers_exit(tmp_path):
    pids = list(cli._run(_exit_late, [(str(tmp_path), os.getpid())] * 2, 2))
    assert os.listdir(tmp_path) == [str(pids[1])]
    assert_no_children()


_PARENT_DIES = """
import multiprocessing, os, sys
from carlitzscan import cli

def big(task):
    return "x" * 10**6  # far above a pipe's buffer, so the worker waits in send

results = cli._run(big, range(4), 2)
next(results)
print(multiprocessing.active_children()[0].pid, flush=True)
os._exit(0)
"""


@needs_two_cpus_and_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_a_worker_whose_parent_died_exits():
    # the worker holds no read end of its own pipe, so its send fails; the
    # worker's stdout is the probe's, so only the probe's line is read
    proc = subprocess.Popen([sys.executable, "-c", _PARENT_DIES], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        pid = int(proc.stdout.readline())
    assert proc.wait(timeout=600) == 0

    def gone() -> bool:
        try:
            with open(f"/proc/{pid}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()[0] in "ZX"
        except FileNotFoundError:
            return True

    deadline = time.monotonic() + 30
    while not gone() and time.monotonic() < deadline:
        time.sleep(0.05)
    if not gone():
        os.kill(pid, signal.SIGKILL)  # a failing run leaves no stray worker
        pytest.fail(f"worker {pid} outlived its parent")


@needs_two_cpus_and_fork
def test_a_scan_leaves_no_process_behind(capsys):
    # a whole scan joins its worker, and a report closed after its first
    # piece kills it
    assert cli.main(["verify", "--p-max", "3000", "--jobs", "2"]) == 0
    assert capsys.readouterr().out
    assert_no_children()
    report = run_verify(ScanConfig(p_max=3000, jobs=2))
    assert '"p": 3' in next(iter(report))
    report.close()
    assert_no_children()
    assert os.sched_getaffinity(0) == set(cli._allowed_cpus())


# a fresh interpreter runs the CLI, then prints its exit code and which of
# the modules of a forking scan and of the CSV writer the run loaded
_LOADED_PROBE = """
import sys
from carlitzscan import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in ("concurrent.futures", "multiprocessing", "csv") if m in sys.modules))
"""


@pytest.mark.parametrize("args, loaded", [
    (("verify", "--p-max", "200", "--jobs", "1"), []),
    (("sums", "1009"), []),
    # one task runs without a fork
    (("verify", "--p-min", "97", "--p-max", "100", "--jobs", "2"), []),
    (("verify", "--p-max", "200", "--format", "csv"), ["csv"]),
    pytest.param(("verify", "--p-max", "200", "--jobs", "2"), ["multiprocessing"],
                 marks=pytest.mark.skipif(len(cli._allowed_cpus()) < 2, reason="needs at least 2 CPUs to run on")),
], ids=["jsonl-jobs-1", "sums", "one-task-jobs-2", "csv", "two-tasks-jobs-2"])
def test_a_run_loads_the_pool_and_the_csv_writer_only_to_use_them(args, loaded):
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *args], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", *loaded]


def test_each_check_runs_once_per_prime(monkeypatch):
    # the selected parts of one whole (eq_2_7..eq_2_10 of the derived sums,
    # lemma 2.1's two halves) share one call of its check at each prime and
    # keep the records of their own tags
    calls = Counter()

    def count(name):
        fn = getattr(hm, name)

        def counted(c):
            calls[name, c.p] += 1
            return fn(c)

        monkeypatch.setattr(hm, name, counted)

    for name in ("verify_derived_sums", "verify_lemma_2_1"):
        count(name)
    parts = ("lemma_2_1_i", "lemma_2_1_ii", "eq_2_7", "eq_2_8", "eq_2_9", "eq_2_10")
    once = Counter({(name, p): 1 for name in ("verify_derived_sums", "verify_lemma_2_1")
                    for p in sieve_odd_primes(5, 100)})
    for tags in (DEFAULT_IDENTITIES, parts):
        calls.clear()
        records, code = verify_records(ScanConfig(p_max=100, identities=tags))
        assert code == 0 and records
        assert calls == once
    alone = [r for tag in parts for r in verify_records(ScanConfig(p_max=100, identities=(tag,)))[0]]
    assert records == sorted(alone, key=cli._ORDER)


def test_each_record_is_kept_by_the_tags_of_its_own_check():
    # a selected tag keeps the records whose identity is the tag or begins
    # with the tag and "_"; a scan calls each check once per prime, from
    # the one p_min its tags share
    def keeps(tag, r):
        return r.identity == tag or r.identity.startswith(f"{tag}_")

    ctx = PrimeContext(13)
    by_check = {}
    for e in cli.IDENTITIES.values():
        if e.over == "p":
            by_check.setdefault(e.check, []).append(e)
    for check, entries in by_check.items():
        assert len({e.p_min for e in entries}) == 1
        own = {e.tag for e in entries}
        records = check(ctx)
        assert records
        for r in records:
            assert any(keeps(tag, r) for tag in own), r.identity
            assert not any(keeps(tag, r) for tag in cli.IDENTITIES if tag not in own), r.identity


def test_u_sum_rows_are_built_once_per_prime(monkeypatch):
    # the rows C(p, k) and C(2p, k) mod p^3 come from one inverse table
    # mod p^3, and every triple of the range sums over those rows: one
    # table per prime, for the five default triples as for one
    calls = Counter()
    fast = cg.inverse_range

    def counted(n, m):
        calls[n + 1, m] += 1
        return fast(n, m)

    monkeypatch.setattr(cg, "inverse_range", counted)
    primes = sieve_odd_primes(5, 300)
    for triples in (DEFAULT_CD_TRIPLES, ((1, 3, 2),)):
        calls.clear()
        cfg = ScanConfig(p_max=300, identities=("chamberland_dilcher",), cd_triples=triples)
        records, code = verify_records(cfg)
        assert code == 0 and len(records) == len(primes) * len(triples)
        assert calls == Counter({(p, p**3): 1 for p in primes})


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_repeated_cd_triple_is_written_once(tmp_path, fmt):
    # the range keeps the distinct triples in first-seen order, so a
    # repeated --cd triple adds no record to the report
    def report(name, *triples):
        out = tmp_path / name
        cds = [arg for t in triples for arg in ("--cd", t)]
        args = ["verify", "--identity", "chamberland_dilcher", *cds, "--p-max", "13", "--format", fmt]
        assert cli.main([*args, "--out", str(out)]) == 0
        return out.read_bytes()

    once = report("once", "0,1,1", "1,2,1")
    assert once.count(b"chamberland_dilcher") == 2 * 4
    assert report("twice", "0,1,1", "1,2,1", "0,1,1") == once


def test_verify_never_builds_the_oracle_routes(monkeypatch):
    # the binomial row, the direct powers and power-sum extraction belong
    # to the oracle and the tests only: every B_(p-j) and every harmonic
    # sum comes from the range
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle route reached from verify")

    for mod, name in ((rs, "binom_pm1"), (cg, "binom_pm1"), (cg, "lhs_power_sums_batch"),
                      (bn, "bernoulli_mod_p"), (bn, "power_sum_mod")):
        monkeypatch.setattr(mod, name, forbidden)
    records, code = verify_records(ScanConfig(p_max=60, identities=tuple(cli.IDENTITIES), n_max=5))
    assert code == 0 and records


def test_huge_a_runs_in_bounded_memory():
    # the power sums cost O(1) per a and p = 3's wrap-up works mod 81,
    # so a = 10^9 needs neither a list of 10^9 entries nor 2^(2a)
    cfg = ScanConfig(p_max=13, a_values=(10**9,), identities=("theorem_1_1", "cai_granville", "p3_special"))
    tracemalloc.start()
    try:
        records, code = verify_records(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert [(r.p, r.identity) for r in records][:3] == [(3, "p3_special"), (3, "theorem_1_1"), (5, "cai_granville")]
    assert len(records) == 1 + 5 + 4
    assert peak < 4 * 2**20, peak


def test_huge_cd_exponent_runs_in_bounded_memory():
    # 2^b is taken mod p^3 by the verdict, and the oracle's exact route
    # raises its exact binomials to the powers mod p^3 as well
    cfg = ScanConfig(p_max=7, identities=("chamberland_dilcher",), cd_triples=((1, 1, 10**8),))
    tracemalloc.start()
    try:
        records, code = verify_records(cfg)
        exact = cg.chamberland_dilcher_exact(7, 1, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert [(r.p, r.params) for r in records] == [(5, (1, 1, 10**8)), (7, (1, 1, 10**8))]
    assert exact == cg.chamberland_dilcher_sums(7, [(1, 1, 10**6)])[1, 1, 10**6]
    assert peak < 4 * 2**20, peak


def test_peak_memory_stays_flat_as_the_range_grows():
    # the report is written one chunk of primes at a time, so a range with
    # 3.3 times the primes (and records) peaks at about the same memory,
    # where a scan that held its records until the end would peak over 3
    # times higher
    peaks = []
    for p_max in (1500, 6000):
        cfg = ScanConfig(p_max=p_max, a_values=tuple(range(1, 26)), identities=("theorem_1_1",))
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as out:
                cli.write_records(run_verify(cfg), out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("p_min, p_max", [(3, 300), (150, 260), (3, 100)])
def test_jobs_do_not_change_the_report_of_exact_and_per_prime_identities(monkeypatch, fmt, p_min, p_max):
    # exact_1_3 and exact_1_4 carry p = n <= n_max = 200 and p3_special
    # p = 3, so they fall before, among and after the primes of several
    # chunks (of 16 primes here), and each task writes those up to its
    # last prime
    monkeypatch.setattr(cli, "CHUNK", 16)
    tags = ("theorem_1_1", "morley", "exact_1_3", "exact_1_4", "p3_special")
    texts = []
    for jobs in (1, 2):
        report = run_verify(ScanConfig(p_min=p_min, p_max=p_max, identities=tags, n_max=200, jobs=jobs, fmt=fmt))
        texts.append("".join(report))
        assert report.code == 0
    assert texts[0] == texts[1]
    rows = [json.loads(line) for line in texts[0].splitlines()] if fmt == "jsonl" else [
        dict(zip(CSV_HEADER, [r[0], int(r[1]), json.loads(r[2])])) for r in csv.reader(texts[0].splitlines()[1:])
    ]
    keys = [(r["p"], r["identity"], r["params"]) for r in rows]
    primes = sieve_odd_primes(p_min, p_max)
    assert keys == sorted(keys)
    assert len(keys) == 2 * 200 + 8 + 8 * len(primes) + len([p for p in primes if p >= 5])


def test_unwritable_out_fails_before_the_scan(monkeypatch, tmp_path, capsys):
    def scan(cfg):
        raise AssertionError("scan started before the report was opened")

    monkeypatch.setattr(cli, "run_verify", scan)
    assert cli.main(["verify", "--p-max", "5000", "--out", str(tmp_path / "no" / "such" / "x")]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1093, 3511, 16843])
def test_default_set_matches_at_degenerate_primes(p):
    # q2 == 0 (mod p) at the Wieferich primes 1093 and 3511, and
    # B_(p-3) == 0 (mod p) at 16843, so those correction terms vanish
    records, code = verify_records(ScanConfig(p_min=p, p_max=p))
    assert code == 0
    assert {r.identity for r in records} >= {"theorem_1_1", "carlitz", "lemma_2_2_a", "eq_2_10"}
    assert all(r.verdict for r in records)


# ---------------------------------------------------------------------------
# subprocess-level contract


def test_cli_verify_theorem_small_range():
    res = run_cli(
        "verify", "--identity", "theorem_1_1",
        "--p-min", "3", "--p-max", "100", "--a", "1,2,3,4,5",
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 24 * 5  # odd primes up to 100, five powers each
    first = json.loads(lines[0])
    assert first["identity"] == "theorem_1_1" and first["p"] == 3
    assert all(json.loads(l)["match"] is True for l in lines)


def test_cli_verify_exact_identity_count():
    res = run_cli("verify", "--identity", "exact_1_4", "--n-max", "50")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 50
    assert json.loads(lines[0])["modulus"] == "0"


def test_cli_verify_bad_range_exits_2():
    res = run_cli("verify", "--p-min", "10", "--p-max", "9")
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def test_cli_verify_unknown_identity_exits_2():
    res = run_cli("verify", "--identity", "nonsense")
    assert res.returncode == 2


def test_cli_verify_unwritable_out_exits_3():
    res = run_cli("verify", "--p-max", "10", "--out", "/no/such/dir/out.jsonl")
    assert res.returncode == 3
    assert "i/o" in res.stderr.lower()


def test_cli_verify_mismatch_exits_1():
    res = run_cli(
        "verify", "--identity", "chamberland_dilcher", "--cd", "1,0,1",
        "--p-min", "5", "--p-max", "7",
    )
    assert res.returncode == 1
    assert '"match": false' in res.stdout


@pytest.mark.parametrize("args, code", [
    (("--identity", "carlitz", "--p-max", "3000"), 0),
    (("--identity", "chamberland_dilcher", "--cd", "1,0,1"), 1),
], ids=["match", "mismatch"])
def test_cli_verify_into_a_closed_pipe_exits_with_the_verdict(args, code):
    # like `verify ... | head -c 100`: the reader takes the first chunk's
    # first bytes and goes, the scan runs on for the whole range's verdict
    proc = subprocess.Popen(
        [sys.executable, "-m", "carlitzscan", "verify", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=600) == code, err
    assert "Traceback" not in err
    assert head == run_cli("verify", *args).stdout[:100]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_into_a_pipe_closed_from_the_start_exits_with_the_verdict(fmt, jobs):
    # with stdout block-buffered, nothing reaches the pipe before the scan
    # has forked its workers (a fork flushes stdout), so the first write
    # meets the closed pipe in write_records and the scan runs on
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    args = ["--identity", "chamberland_dilcher", "--cd", "1,0,1", "--p-max", "3000", "--jobs", jobs, "--format", fmt]
    try:
        proc = subprocess.run([sys.executable, "-m", "carlitzscan", "verify", *args],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=600)
    finally:
        os.close(write)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    res = run_cli(
        "verify", "--identity", "morley", "--p-min", "5", "--p-max", "31",
        "--format", "csv", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(out.open()))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + len(sieve_odd_primes(5, 31))
    assert all(r[0] == "morley" and r[6] == "true" and r[7] == "0" for r in rows[1:])


def test_cli_jobs_do_not_change_output(tmp_path):
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["verify", "--p-min", "3", "--p-max", "80"]
    r1 = run_cli(*args, "--jobs", "1", "--out", str(f1))
    r2 = run_cli(*args, "--jobs", "2", "--out", str(f2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_sums_7_profile():
    res = run_cli("sums", "7")
    assert res.returncode == 0
    assert "even double 1/(j^1 k^2)      mod p^1 = 1" in res.stdout
    assert "even double 1/(j^2 k^1)      mod p^1 = 5" in res.stdout
    assert "B_(p-3)                      mod p   = 3" in res.stdout


def test_cli_sums_5_quotient_line():
    res = run_cli("sums", "5")
    assert res.returncode == 0
    assert "q2" in res.stdout and "= 3" in res.stdout


def test_cli_sums_3_rejected():
    res = run_cli("sums", "3")
    assert res.returncode == 2


def test_cli_oracle_small():
    res = run_cli("oracle", "--p-max", "31", "--identity", "lemma_2_2")
    assert res.returncode == 0, res.stderr


def test_cli_oracle_beyond_exact_bernoulli_cap():
    # B_(p-3) exceeds the exact recurrence's cap from p = 409 on; the
    # oracle then compares Voronoi's congruence with power-sum extraction
    res = run_cli("oracle", "--p-min", "409", "--p-max", "409")
    assert res.returncode == 0, res.stderr
    res = run_cli("oracle", "--identity", "carlitz", "--p-min", "401", "--p-max", "1000")
    assert res.returncode == 0, res.stderr
    assert "agreement over 90 primes" in res.stdout


def test_cli_oracle_cap_exceeded():
    res = run_cli("oracle", "--p-max", "5000")
    assert res.returncode == 2


def test_cli_oracle_takes_no_cap_option():
    # --p-max bounds the oracle's range; only verify has --oracle-cap
    res = run_cli("oracle", "--oracle-cap", "50")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_cli_default_identity_set():
    res = run_cli("verify", "--p-max", "20")
    assert res.returncode == 0
    tags = {json.loads(l)["identity"] for l in res.stdout.strip().splitlines()}
    assert tags == {
        "theorem_1_1", "carlitz", "morley",
        "lemma_2_1_i", "lemma_2_1_ii", "lemma_2_2_a", "lemma_2_2_b",
        "eq_2_9", "eq_2_10",
    }
    assert set(DEFAULT_IDENTITIES) == {
        "theorem_1_1", "carlitz", "morley", "lemma_2_1", "lemma_2_2",
        "eq_2_9", "eq_2_10",
    }
