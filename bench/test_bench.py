"""Self-tests of the benchmark.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py

They scan tiny prime windows, so they take a few seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import layers
import run
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# The default identity set over the odd primes 3..101.
SMALL = Workload("small", (), None, 1, 3, 4, 25, 1, "small")
SMALL_J2 = Workload("small-j2", (), None, 2, 3, 4, 25, 1, "small")


def scan(wl: Workload, work: Path, trace: bool) -> tuple[dict, str]:
    report = work / "report.jsonl"
    rep = run.run_child(wl.argv(0, str(report)), work, trace, False, 120)
    assert rep["code"] == 0, rep["stderr"]
    return rep, report.read_text()


def test_traced_and_untraced_reports_are_identical(tmp_path):
    expected = SMALL.expected_keys(0)
    plain, plain_text = scan(SMALL, tmp_path, False)
    traced, traced_text = scan(SMALL, tmp_path, True)
    a, b = gate.check_report(plain_text, expected), gate.check_report(traced_text, expected)
    assert a.failed == b.failed == 0
    assert a.digest == b.digest
    assert traced["missing"] == []
    table = layers.per_function(layers.read_spans(tmp_path / "spans"))
    # Four inverse tables per prime, one at p = 3.
    assert table["residues.inverse_range"]["calls"] == 4 * 24 + 1
    assert table["cli.write_records"]["count"] == len(expected)


def test_pool_workers_write_their_spans(tmp_path):
    rep, text = scan(SMALL_J2, tmp_path, True)
    assert gate.check_report(text, SMALL_J2.expected_keys(0)).failed == 0
    spans = layers.read_spans(tmp_path / "spans")
    assert len({s[0] for s in spans}) >= 2  # the parent and at least one worker
    table = layers.per_function(spans)
    assert table["residues.inverse_range"]["calls"] == 4 * 24 + 1
    assert table["harmonic.verify_lemma_2_1"]["calls"] == 24


def test_self_time_excludes_child_spans():
    spans = [
        ["1", 0, -1, "cli.run_verify", 0, 100, 0],
        ["1", 1, 0, "residues.binom_pm1", 10, 40, 0],
        ["1", 2, 1, "residues.inverse_range", 20, 30, 7],
        ["2", 0, -1, "residues.inverse_range", 0, 5, 3],
    ]
    table = layers.per_function(spans)
    assert table["cli.run_verify"]["self_ms"] == pytest.approx(70e-6)
    assert table["residues.binom_pm1"]["self_ms"] == pytest.approx(20e-6)
    assert table["residues.inverse_range"] == {"calls": 2, "self_ms": pytest.approx(15e-6), "count": 10}


def test_reference_gauge_runs_on_the_scan_cpus():
    allowed = os.sched_getaffinity(0)
    for jobs in (1, 2):
        cpus = run.scan_cpus(jobs)
        assert len(cpus) == min(jobs, len(allowed)) and set(cpus) <= allowed
    assert run.gauge(run.scan_cpus(2), 60) > 0


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert e2e == list(run.E2E_UNITS)
    assert per_layer == list(layers.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**run.E2E_UNITS, **layers.UNITS}


def test_corrupted_report_fails_the_gate(tmp_path):
    expected = SMALL.expected_keys(0)
    _, text = scan(SMALL, tmp_path, False)
    good = gate.check_report(text, expected)
    assert good.failed == 0 and gate.spot_check(text, 101) == []
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if '"theorem_1_1", "p": 101' in line)
    rec = json.loads(lines[i])
    wrong_lhs = dict(rec, lhs=str((int(rec["lhs"]) + 1) % int(rec["modulus"])))
    corruptions = {
        "mismatch": lines[:i] + [json.dumps(dict(rec, match=False))] + lines[i + 1 :],
        "missing": lines[:i] + lines[i + 1 :],
        "duplicate": lines + [lines[i]],
        "garbage": lines + ["not json"],
    }
    for what, bad_lines in corruptions.items():
        result = gate.check_report("\n".join(bad_lines), expected)
        assert result.failed > 0, what
        assert result.digest != good.digest, what
    bad_text = "\n".join(lines[:i] + [json.dumps(wrong_lhs)] + lines[i + 1 :])
    assert gate.check_report(bad_text, expected).digest != good.digest
    assert gate.spot_check(bad_text, 101)


def test_seed_moves_windows_within_their_band():
    for wl in WORKLOADS.values():
        assert wl.argv(7, "r") == wl.argv(7, "r")
        windows = {tuple(wl.window(seed)) for seed in range(10)}
        for window in windows:
            assert wl.band_lo <= window[0] < wl.band_hi
            assert wl.count <= len(window) < wl.count + wl.count_band
        assert len(windows) > 1
    assert WORKLOADS["scan-default"].window(3) == WORKLOADS["scan-default-j2"].window(3)
    assert len(WORKLOADS["scan-default"].expected_keys(0)) == 6203


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
