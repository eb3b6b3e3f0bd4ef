"""carlitzscan benchmark: `verify` scan throughput on fixed prime-range workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan-default --seed 0 --seconds 20 --trace 0

The run repeats one `verify` scan, each time in a fresh interpreter
(bench/child.py) pinned to the last `--jobs` CPUs the benchmark may use,
until --seconds have passed, and checks every report (bench/gate.py).
With --trace 0 it prints the end-to-end metrics.  The reference kernel
(bench/reference.py) then runs on the same CPUs before and after every
scan, and each scan's times are scaled to the host speed at which that
kernel takes reference.REFERENCE_S; the unscaled figures are printed
and stored beside them.  With --trace 1 it alternates untraced and
traced scans and prints the per-layer metrics of the traced ones
(bench/layers.py) and the tracing overhead.  Every metric is printed by
name with its unit, median, quartiles and sample count; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A result file with the provenance of the run goes
to bench/out/.

Exit codes: 0 every report passed the gate, 1 some check failed, 2 the
checkout holds no program to run.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_report, spot_check
from layers import TRACE_OVERHEAD, UNITS, layer_metrics, per_function, read_spans
from reference import REFERENCE_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
MIN_REPEATS = 3  # per measured kind of scan
DEADLINE_S = 170  # the whole run ends within 180 s

E2E_UNITS = {"primes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and stored beside the end-to-end metrics: the unscaled figures
# and the reference kernel's time.
HOST_UNITS = {"wall.primes_per_s": "1/s", "wall.setup_s": "s", "reference_s": "s"}


def steal_ticks() -> "int | None":
    """Host-wide CPU steal ticks from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def scan_cpus(jobs: int) -> list[int]:
    """The CPUs a scan at `jobs` runs on: the last `jobs` it may use."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-jobs:]


def gauge(cpus: list[int], timeout: float) -> float:
    """Mean time of the reference kernel, run at once on each of `cpus`."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py"), "--cpu", str(cpu)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for cpu in cpus
    ]
    times = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=timeout)
            if proc.returncode != 0:
                raise RuntimeError(f"reference kernel failed: {err[-2000:]}")
            times.append(float(out.split()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    return statistics.fmean(times)


def run_child(
    argv: list[str], work: Path, trace: bool, setup_only: bool, timeout: float, cpus: "list[int] | None" = None
) -> dict:
    """One `verify` run in a fresh interpreter; returns its timings and exit code."""
    marks_path = work / "marks.json"
    span_dir = work / "spans"
    marks_path.unlink(missing_ok=True)
    shutil.rmtree(span_dir, ignore_errors=True)
    if trace:
        span_dir.mkdir()
    spec = {
        "src": str(SRC),
        "argv": argv,
        "marks": str(marks_path),
        "trace": str(span_dir) if trace else None,
        "setup_only": setup_only,
        "cpus": cpus,
    }
    steal0 = steal_ticks()
    t_spawn = time.monotonic_ns()
    # A session of its own, so that a scan that hangs is killed with its pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        code, stderr = None, f"timed out after {timeout:.0f} s"
    out = {"code": code, "steal_before": steal0, "steal_after": steal_ticks(), "stderr": stderr[-2000:]}
    try:
        marks = json.loads(marks_path.read_text())
    except (OSError, ValueError):
        return out
    out["setup_s"] = (marks["scan_start"] - t_spawn) / 1e9
    if "write_end" in marks:
        out["scan_s"] = (marks["write_end"] - marks["scan_start"]) / 1e9
    out["peak_rss_mb"] = marks["maxrss_kb"] / 1024
    out["worker_cpu_s"] = marks["worker_cpu_s"]
    out["missing"] = marks["missing"]
    return out


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[workload_name]
    window = wl.window(seed)
    expected = wl.expected_keys(seed)
    digests = json.loads((BENCH / "digests.json").read_text())
    reference = digests["digests"][wl.name] if seed == digests["seed"] else None

    work = BENCH / "out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report = work / "report.jsonl"
    argv = wl.argv(seed, str(report))
    cpus = scan_cpus(wl.jobs)
    start = time.monotonic()
    gauges: list[float] = []
    try:
        # The first interpreter in a checkout also compiles the package;
        # this set-up-only run takes that cost out of the measured ones.
        run_child(argv, work, False, True, DEADLINE_S, cpus)
        if not trace:
            gauges.append(gauge(cpus, DEADLINE_S))
        repeats, problems = [], []
        attempted = failed = 0
        durations: list[float] = []
        while True:
            elapsed = time.monotonic() - start
            done = len(repeats)
            # Start another scan only while it is expected to end within --seconds.
            expected_end = elapsed + (statistics.median(durations) if durations else 0)
            if elapsed >= DEADLINE_S or (expected_end > seconds and done >= MIN_REPEATS * (1 + trace)):
                break
            traced = trace and done % 2 == 1
            report.unlink(missing_ok=True)
            rep = run_child(argv, work, traced, False, DEADLINE_S - elapsed, cpus)
            if not trace:
                gauges.append(gauge(cpus, DEADLINE_S))
                rep["reference_s"] = (gauges[-2] + gauges[-1]) / 2
            durations.append(time.monotonic() - start - elapsed)
            rep["traced"] = traced
            attempted += len(expected)
            if rep["code"] not in (0, 1) or "scan_s" not in rep:
                failed += len(expected)
                problems.append(f"repeat {done}: exit {rep['code']}: {rep['stderr']}")
                repeats.append(rep)
                continue
            text = report.read_text()
            gate = check_report(text, expected)
            rep.update(gate=gate.__dict__, report_bytes=report.stat().st_size)
            failed += gate.failed
            if gate.failed:
                problems.append(f"repeat {done}: {gate}")
            if reference is None:
                reference = gate.digest
            if gate.digest != reference:
                failed += not gate.failed
                problems.append(f"repeat {done}: report digest {gate.digest} != {reference}")
            if done == 0:
                bad = spot_check(text, window[-1])
                failed += len(bad)
                problems.extend(bad)
            if traced:
                table = per_function(read_spans(work / "spans"))
                rep["functions"] = table
                rep["layers"] = layer_metrics(
                    table, len(window), wl.jobs, rep["scan_s"], rep["worker_cpu_s"], rep["report_bytes"]
                )
            repeats.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in repeats if "gate" in r]
    metrics: dict[str, dict] = {}
    if trace:
        traced_runs = [r for r in ok if r["traced"]]
        for name in UNITS:
            if name != TRACE_OVERHEAD[0] and traced_runs:
                metrics[name] = summary([r["layers"][name] for r in traced_runs])
        plain = [r["scan_s"] for r in ok if not r["traced"]]
        if traced_runs and plain:
            ratio = statistics.median(r["scan_s"] for r in traced_runs) / statistics.median(plain) - 1
            metrics[TRACE_OVERHEAD[0]] = {"median": ratio, "q1": ratio, "q3": ratio, "n": len(traced_runs)}
    elif ok:
        # A scan's speed: above 1 when the host ran faster than the reference host.
        speed = [REFERENCE_S / r["reference_s"] for r in ok]
        metrics["primes_per_s"] = summary([len(window) / (r["scan_s"] * v) for r, v in zip(ok, speed)])
        metrics["setup_s"] = summary([r["setup_s"] * v for r, v in zip(ok, speed)])
        metrics["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in ok])
        metrics["wall.primes_per_s"] = summary([len(window) / r["scan_s"] for r in ok])
        metrics["wall.setup_s"] = summary([r["setup_s"] for r in ok])
        metrics["reference_s"] = summary(gauges)
    for name, stats in metrics.items():
        stats["unit"] = UNITS.get(name) or E2E_UNITS.get(name) or HOST_UNITS[name]
    missing = sorted({m for r in repeats for m in r.get("missing", [])})
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argv[:-1] + ["REPORT"],
        "primes": len(window),
        "expected_checks": len(expected),
        "reference_digest": reference,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and bool(ok) and len(ok) == len(repeats),
        "problems": problems,
        "missing": missing,
        "metrics": metrics,
        "repeats": repeats,
    }


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "carlitzscan" / "cli.py").is_file():
        print(f"error: no carlitzscan package under {SRC}", file=sys.stderr)
        return 2

    started = datetime.datetime.now(datetime.timezone.utc)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["provenance"] = provenance()
    result["started_utc"] = started.isoformat(timespec="seconds")
    out = BENCH / "out" / f"{args.workload}.seed{args.seed}.trace{args.trace}.{started:%Y%m%dT%H%M%S}.{os.getpid()}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if result["missing"]:
        print(f"missing from the program (reported as 0): {', '.join(result['missing'])}", file=sys.stderr)
    print(f"{result['workload']} seed {result['seed']}: {result['primes']} primes, "
          f"{result['expected_checks']} checks per scan, result file {out.relative_to(ROOT)}")
    for name, s in result["metrics"].items():
        print(f"  {name:50} {s['median']:12.6g} {s['unit']:12} "
              f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"  {'failed_share':50} {result['failed_share']:12.6g} ratio        "
          f"({result['failed']} of {result['attempted']} checks)")
    metrics = {
        name: {"value": result["metrics"][name]["median"], "unit": unit}
        for name, unit in (UNITS if args.trace else E2E_UNITS).items()
        if name in result["metrics"]
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
