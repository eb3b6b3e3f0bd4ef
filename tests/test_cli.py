"""End-to-end and unit tests for the command-line front end."""

import csv
import hashlib
import json
import multiprocessing
import subprocess
import sys
import tracemalloc
from collections import Counter

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
    sieve_odd_primes,
)
from carlitzscan.congruences import CongruenceCheck
from carlitzscan.residues import is_odd_prime


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "carlitzscan", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


# ---------------------------------------------------------------------------
# unit-level pieces


def test_sieve_odd_primes_small():
    assert sieve_odd_primes(3, 30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_odd_primes(3, 2) == []
    assert sieve_odd_primes(14, 16) == []
    assert sieve_odd_primes(97, 97) == [97]
    brute = [n for n in range(3, 1000) if is_odd_prime(n)]
    assert sieve_odd_primes(1, 999) == brute


def test_sieve_odd_primes_segmented_window():
    lo, hi = 10_000_000, 10_000_200
    got = sieve_odd_primes(lo, hi)
    assert got == [n for n in range(lo, hi + 1) if is_odd_prime(n)]
    assert 10_000_019 in got
    # crosses the 2^20 segment boundary: pi(2 * 10^6) - 1 odd primes
    assert len(sieve_odd_primes(3, 2_000_000)) == 148932


def test_parse_a_values():
    assert _parse_a_values("1,2,3") == (1, 2, 3)
    assert _parse_a_values("1..8") == tuple(range(1, 9))
    assert _parse_a_values("4") == (4,)
    with pytest.raises(UsageError):
        _parse_a_values("x,y")
    with pytest.raises(UsageError):
        _parse_a_values("3..z")


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


def test_run_verify_identity_filters():
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1_i",))
    records, code = run_verify(cfg)
    assert code == 0
    assert {r.identity for r in records} == {"lemma_2_1_i"}
    assert len(records) == len(sieve_odd_primes(5, 31))

    cfg = ScanConfig(p_min=5, p_max=31, identities=("eq_2_9",))
    records, code = run_verify(cfg)
    assert code == 0
    assert {r.identity for r in records} == {"eq_2_9"}

    cfg = ScanConfig(p_min=3, p_max=31, identities=("corollary",))
    records, code = run_verify(cfg)
    assert code == 0
    assert {r.identity for r in records} == {"corollary_a3", "corollary_a4", "corollary_a5"}

    # a part of lemma_2_1 adds no records next to the whole lemma
    whole, _ = run_verify(ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1",)))
    both, _ = run_verify(ScanConfig(p_min=5, p_max=31, identities=("lemma_2_1", "lemma_2_1_ii")))
    assert both == whole


def test_run_verify_sorted_output():
    cfg = ScanConfig(p_min=3, p_max=60)
    records, code = run_verify(cfg)
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
    records, code = run_verify(cfg)
    assert code == 1
    assert records and all(not r.verdict for r in records)
    assert all(r.lhs == 0 for r in records)


def test_oracle_quantity_filter_runs_clean():
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_2",))
    assert run_oracle_quantities(cfg, quiet=True) is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_disagreement_keeps_records_sorted(monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched oracle table only when forked")
    monkeypatch.setitem(cli._ORACLE_FUNCS, "fermat", lambda p: f"injected(p={p})")
    cfg = ScanConfig(p_min=3, p_max=60, oracle_cap=31, jobs=jobs)
    assert run_oracle_quantities(cfg, quiet=True) == "injected(p=5)"
    records, code = run_verify(cfg)
    assert code == 1
    assert records and all(r.verdict for r in records)
    keys = [(r.p, r.identity, r.params) for r in records]
    assert keys == sorted(keys)


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
        records, code = run_verify(ScanConfig(p_min=3, p_max=200, identities=(tag,), n_max=50))
        text = "".join(cli.jsonl_line(r) + "\n" for r in records)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != want:
            changed.append(tag)
    assert changed == []


def test_oracle_reads_the_field_behind_the_verdicts(monkeypatch):
    # corrupt one even-index sum at p = 13 where the context computes it:
    # the lemma_2_2 verdict and the oracle must both see the damage
    fast = hm.even_index_sums

    def corrupted(p):
        sums = fast(p)
        if p == 13:
            sums.double[(1, 2, 1)] = (sums.double[(1, 2, 1)] + 1) % p
        return sums

    monkeypatch.setattr(hm, "even_index_sums", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("lemma_2_2",))
    records, code = run_verify(cfg)
    assert code == 1
    assert [(r.p, r.identity) for r in records if not r.verdict] == [(13, "lemma_2_2_a")]
    assert run_oracle_quantities(cfg, quiet=True) == "even_double(p=13, s=1, t=2, e=1)"


def test_oracle_reads_the_moments_behind_the_verdicts(monkeypatch):
    # shift M3 by p^3 at p = 13: only the mod-p^4 power sums with
    # C(a, 3) != 0 (mod 13) move, and the oracle must name the first
    fast = cg.binomial_moments

    def corrupted(p):
        m1, m2, m3 = fast(p)
        return (m1, m2, (m3 + p**3) % p**4) if p == 13 else (m1, m2, m3)

    monkeypatch.setattr(cg, "binomial_moments", corrupted)
    cfg = ScanConfig(p_min=5, p_max=31, identities=("theorem_1_1", "cai_granville"))
    records, code = run_verify(cfg)
    assert code == 1
    bad = [(r.p, r.identity, r.params) for r in records if not r.verdict]
    assert bad == [(13, "theorem_1_1", (a,)) for a in range(3, 9)]
    assert run_oracle_quantities(cfg, quiet=True) == "power_sum(p=13, a=3)"


def test_each_quantity_is_computed_once_per_prime(monkeypatch):
    # the context is the only producer: no check computes a quantity itself
    calls = Counter()

    def count(mod, name, key):
        fn = getattr(mod, name)

        def counted(p, *args, **kwargs):
            calls[key, p] += 1
            return fn(p, *args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    count(cg, "binomial_moments", "moments")
    count(rs, "signed_central_binomial", "central")
    count(bn, "bernoulli_window_mod_p", "bern")
    count(bn, "bernoulli_pm3_mod_p", "bern")
    count(bn, "fermat_quotient_2", "q2")
    count(hm, "half_range_sums", "half")
    count(hm, "even_index_sums", "even")
    per_prime = tuple(tag for tag, e in cli.IDENTITIES.items() if e.over == "p")
    no_window = tuple(t for t in per_prime if not cli.IDENTITIES[t].window)
    # with lemma_2_1's window, and with B_(p-3) alone (no half-range sums then)
    for tags, half in ((per_prime, {"half"}), (no_window, set())):
        calls.clear()
        records, code = run_verify(ScanConfig(p_max=200, identities=tags))
        assert code == 0 and records
        assert {key for key, _ in calls} == {"moments", "central", "bern", "q2", "even"} | half
        assert max(calls.values()) == 1


def test_pool_is_bounded_by_the_cpus(monkeypatch):
    # each worker is a process forked at the first submit, so --jobs far
    # above the CPU count is cut to it; the stand-in pool starts nothing
    sizes, chunks = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunks.append(chunksize)
            return map(fn, tasks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    records, code = run_verify(ScanConfig(p_max=400, jobs=100_000))
    assert code == 0 and records
    assert run_oracle_quantities(ScanConfig(p_max=31, jobs=100_000), quiet=True) is None
    assert sizes == [2, 2]
    assert chunks[0] == len(sieve_odd_primes(3, 400)) // (2 * 8)


def test_verify_never_builds_the_oracle_routes(monkeypatch):
    # the binomial row and the direct powers belong to the oracle only
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle route reached from verify")

    for mod, name in ((rs, "binom_pm1"), (cg, "binom_pm1"), (cg, "lhs_power_sums_batch")):
        monkeypatch.setattr(mod, name, forbidden)
    records, code = run_verify(ScanConfig(p_max=60, identities=tuple(cli.IDENTITIES), n_max=5))
    assert code == 0 and records


def test_huge_a_runs_in_bounded_memory():
    # the power sums cost O(1) per a and p = 3's wrap-up works mod 81,
    # so a = 10^9 needs neither a list of 10^9 entries nor 2^(2a)
    cfg = ScanConfig(p_max=13, a_values=(10**9,), identities=("theorem_1_1", "cai_granville", "p3_special"))
    tracemalloc.start()
    try:
        records, code = run_verify(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert [(r.p, r.identity) for r in records][:3] == [(3, "p3_special"), (3, "theorem_1_1"), (5, "cai_granville")]
    assert len(records) == 1 + 5 + 4
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("p", [1093, 3511, 16843])
def test_default_set_matches_at_degenerate_primes(p):
    # q2 == 0 (mod p) at the Wieferich primes 1093 and 3511, and
    # B_(p-3) == 0 (mod p) at 16843, so those correction terms vanish
    records, code = run_verify(ScanConfig(p_min=p, p_max=p))
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
