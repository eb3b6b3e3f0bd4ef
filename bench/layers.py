"""Per-layer metrics derived from the spans of one traced `verify` run.

A span is (id, parent, name, start_ns, end_ns, count), recorded per
process.  Its self time is its duration minus the durations of its child
spans; calls in one process run one at a time, so children never overlap.
A layer is a module of the program: its self time is the sum over the
traced functions of that module.
"""

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("residues", "bernoulli", "congruences", "harmonic", "cli")

# (metric, kind, traced function, unit).  Kinds: self_ms is summed self
# time, calls and count are per prime scanned.
FUNCTION_METRICS = (
    ("residues.inverse_range.calls_per_prime", "calls", "residues.inverse_range", "count/prime"),
    ("residues.inverse_range.entries_per_prime", "count", "residues.inverse_range", "count/prime"),
    ("residues.inverse_range.self_ms", "self_ms", "residues.inverse_range", "ms"),
    ("residues.binom_pm1.self_ms", "self_ms", "residues.binom_pm1", "ms"),
    ("residues.signed_central_binomial.calls_per_prime", "calls", "residues.signed_central_binomial", "count/prime"),
    ("residues.signed_central_binomial.self_ms", "self_ms", "residues.signed_central_binomial", "ms"),
    ("residues.reduce_rational.self_ms", "self_ms", "residues.reduce_rational", "ms"),
    ("bernoulli.power_sum_mod.self_ms", "self_ms", "bernoulli.power_sum_mod", "ms"),
    ("bernoulli.smallest_prime_factors.self_ms", "self_ms", "bernoulli.smallest_prime_factors", "ms"),
    ("bernoulli.bernoulli_window_mod_p.self_ms", "self_ms", "bernoulli.bernoulli_window_mod_p", "ms"),
    ("bernoulli.fermat_quotient_2.self_ms", "self_ms", "bernoulli.fermat_quotient_2", "ms"),
    ("congruences.lhs_power_sums_batch.self_ms", "self_ms", "congruences.lhs_power_sums_batch", "ms"),
    ("congruences.rhs_theorem.self_ms", "self_ms", "congruences.rhs_theorem", "ms"),
    ("harmonic.verify_lemma_2_1.self_ms", "self_ms", "harmonic.verify_lemma_2_1", "ms"),
    ("harmonic.verify_lemma_2_2.self_ms", "self_ms", "harmonic.verify_lemma_2_2", "ms"),
    ("harmonic.verify_derived_sums.self_ms", "self_ms", "harmonic.verify_derived_sums", "ms"),
    ("cli.run_verify.self_ms", "self_ms", "cli.run_verify", "ms"),
    ("cli.write_records.self_ms", "self_ms", "cli.write_records", "ms"),
)

# Metrics computed from more than one function, or from outside the spans.
DERIVED_METRICS = (
    ("bernoulli.bpm3_evaluations_per_prime", "count/prime"),
    ("congruences.lhs_power_sums_batch.ms_per_a", "ms"),
    ("cli.records", "count"),
    ("cli.report_bytes", "B"),
    ("cli.pool.worker_cpu_s", "s"),
    ("cli.pool.busy_share", "ratio"),
) + tuple((f"{layer}.self_ms", "ms") for layer in LAYERS)

TRACE_OVERHEAD = ("trace.overhead_share", "ratio")

UNITS = {name: unit for name, _, _, unit in FUNCTION_METRICS}
UNITS.update(DERIVED_METRICS)
UNITS.update([TRACE_OVERHEAD])


def read_spans(span_dir: Path) -> list[list]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        pid = path.stem.split("-", 1)[1]
        with open(path) as f:
            spans.extend([pid, *json.loads(line)] for line in f)
    return spans


def per_function(spans: list[list]) -> dict[str, dict]:
    """calls, summed self time (ms) and summed count per traced function."""
    child_ns: dict[tuple, int] = defaultdict(int)
    for pid, _sid, parent, _name, t0, t1, _n in spans:
        if parent >= 0:
            child_ns[(pid, parent)] += t1 - t0
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "count": 0})
    for pid, sid, _parent, name, t0, t1, n in spans:
        row = table[name]
        row["calls"] += 1
        row["self_ms"] += (t1 - t0 - child_ns[(pid, sid)]) / 1e6
        row["count"] += n
    return dict(table)


def layer_metrics(
    table: dict[str, dict], n_primes: int, jobs: int, scan_s: float, worker_cpu_s: float, report_bytes: int
) -> dict[str, float]:
    """Every per-layer metric except the trace overhead, which needs an untraced run."""
    empty = {"calls": 0, "self_ms": 0.0, "count": 0}
    out = {}
    for metric, kind, fn, _unit in FUNCTION_METRICS:
        row = table.get(fn, empty)
        out[metric] = row["self_ms"] if kind == "self_ms" else row[kind] / n_primes
    # B_(p-3) is evaluated once per bernoulli_pm3_mod_p call and once per
    # window that contains the offset 3 (the window's count is 1 or 0).
    pm3 = table.get("bernoulli.bernoulli_pm3_mod_p", empty)["calls"]
    out["bernoulli.bpm3_evaluations_per_prime"] = (
        pm3 + table.get("bernoulli.bernoulli_window_mod_p", empty)["count"]
    ) / n_primes
    batch = table.get("congruences.lhs_power_sums_batch", empty)
    out["congruences.lhs_power_sums_batch.ms_per_a"] = batch["self_ms"] / batch["count"] if batch["count"] else 0.0
    out["cli.records"] = table.get("cli.write_records", empty)["count"]
    out["cli.report_bytes"] = report_bytes
    out["cli.pool.worker_cpu_s"] = worker_cpu_s
    out["cli.pool.busy_share"] = worker_cpu_s / (jobs * scan_s)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(row["self_ms"] for fn, row in table.items() if fn.startswith(layer + "."))
    return out
