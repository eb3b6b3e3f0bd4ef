"""Command-line front end: scan prime ranges, dump sums, run oracles.

Subcommands:
    verify  -- check selected identities over a prime range, emit one
               report record per check (JSONL or CSV)
    sums    -- print the harmonic profile and constants at one prime
    oracle  -- run the selected checks and compare every per-prime
               quantity they read with naive enumeration (bounded range)

Exit codes: 0 all checks match, 1 any mismatch, 2 usage error, 3 I/O
failure.  Reports are sorted by (p, identity, params) regardless of
worker scheduling, so two runs of one configuration are byte-identical,
and written as the scan goes: each task formats the records of one chunk
of primes, and the parent writes the tasks' text in order.
"""

import argparse
import os
import sys
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import chain
from math import ceil
from operator import attrgetter

from . import congruences as cg
from . import residues as rs
from .context import CHUNK, DEFAULT_A, DEFAULT_CD_TRIPLES, FIELDS, IDENTITIES, PrimeContext, PrimeRange
from .residues import sieve_odd_primes

__all__ = [
    "UsageError",
    "ScanConfig",
    "Report",
    "run_verify",
    "write_records",
    "run_oracle",
    "main",
]

ORACLE_CAP_LIMIT = 1000
# one prime peaks near 120 B per unit of p with every identity selected
# (tracemalloc at p = 100003: the u-sums' two binomial rows and their
# inverse table; a chunk builds its u-sums one prime at a time, each
# prime's rows freed before the next; the default set's chunk sweeps hold
# no list of p, a few KB in all), so p <= 4 * 10^6 keeps it under 1 GB; each
# --jobs worker runs one chunk at a time and holds its records, as text
# once each prime is formatted
P_MAX_LIMIT = 4 * 10**6
# each a adds one record per prime to the report
A_VALUES_LIMIT = 10**4
# _chunks cuts a task to about this many records, whose report text (some
# 150 B a record, so a few MB) the task holds until the parent writes it
RECORD_BUDGET = 2**14
DEFAULT_IDENTITIES = tuple(tag for tag, e in IDENTITIES.items() if e.default)


class UsageError(Exception):
    """Bad flag combination or out-of-range argument (exit code 2)."""


@dataclass(frozen=True)
class ScanConfig:
    p_min: int = 3
    p_max: int = 1000
    a_values: tuple[int, ...] = DEFAULT_A
    identities: tuple[str, ...] = DEFAULT_IDENTITIES
    n_max: int = 100
    jobs: int = 1
    fmt: str = "jsonl"
    oracle_cap: int = 0
    cd_triples: tuple[tuple[int, int, int], ...] = DEFAULT_CD_TRIPLES

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 3 <= self.p_min <= self.p_max <= P_MAX_LIMIT:
            raise UsageError(
                f"need 3 <= p_min <= p_max <= {P_MAX_LIMIT}, got {self.p_min}..{self.p_max}"
            )
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        if not 0 <= self.oracle_cap <= ORACLE_CAP_LIMIT:
            raise UsageError(
                f"oracle cap must be in 0..{ORACLE_CAP_LIMIT}, got {self.oracle_cap}"
            )
        if self.fmt not in ("jsonl", "csv"):
            raise UsageError(f"format must be jsonl or csv, got {self.fmt!r}")
        if any(a < 1 for a in self.a_values) or not self.a_values:
            raise UsageError(f"a values must be >= 1, got {self.a_values}")
        if len(self.a_values) > A_VALUES_LIMIT:
            raise UsageError(f"at most {A_VALUES_LIMIT} a values, got {len(self.a_values)}")
        if self.n_max < 1:
            raise UsageError(f"n_max must be >= 1, got {self.n_max}")
        for ident in self.identities:
            if ident not in IDENTITIES:
                raise UsageError(f"unknown identity {ident!r}")
            cap = IDENTITIES[ident].n_cap
            if cap is not None and self.n_max > cap:
                raise UsageError(f"{ident} is capped at n <= {cap}, got {self.n_max}")
        for trip in self.cd_triples:
            if trip[0] not in (0, 1) or trip[1] < 0 or trip[2] < 0:
                raise UsageError(f"bad (eps, a, b) triple {trip}")
            if trip in cg.CD_EXCLUDED:
                raise UsageError(f"triple {trip} is outside the identity's domain")


CSV_HEADER = ["identity", "p", "params", "modulus", "lhs", "rhs", "match", "us"]
# a report line's texts in each format: before identity, after identity,
# p, params, modulus and lhs, and after rhs for a false and a true verdict;
# `us` is kept for readers of earlier reports and is always 0
_LINE = {
    "jsonl": ('{"identity": "', '", "p": ', ', "params": ', ', "modulus": "', '", "lhs": "', '", "rhs": "',
              ('", "match": false, "us": 0}\n', '", "match": true, "us": 0}\n')),
    "csv": ("", ",", ",", ",", ",", ",", (",false,0\r\n", ",true,0\r\n")),
}


def _params_text(params: tuple, fmt: str) -> str:
    """The params cell of a report line in the format `fmt`, "[1, 2]" for
    (1, 2), which CSV quotes since it holds a comma."""
    text = f"[{', '.join(map(str, params))}]"
    return f'"{text}"' if fmt == "csv" and len(params) > 1 else text


# each format's params cells keyed by params: a scan's params are (), its a
# values, its u-sum triples and the n of lemma 2.1(ii) and of the exact
# identities, so the memo holds one scan's texts; Report._scan empties it
# before its workers fork, and each fills its own copy
_PARAMS_TEXTS = {fmt: {} for fmt in _LINE}


def _report_text(records: list[cg.CongruenceCheck], fmt: str) -> str:
    """The report lines of `records` in the format `fmt` (no CSV header).

    A JSONL line is what json.dumps writes for the dict of CSV_HEADER's keys
    and the record's values, the big residues as strings; a CSV row is what
    csv.writer writes for the same values, each as JSON writes it.  Neither
    needs escaping: the identity tags are [a-z0-9_], every other value is an
    int or a verdict, and only a params cell holds a comma.  A run of records
    that share (identity, p, modulus) shares the text before params and the
    text between params and lhs."""
    start, after_identity, after_p, after_params, after_modulus, after_lhs, tails = _LINE[fmt]
    texts, lines = _PARAMS_TEXTS[fmt], []
    key_identity = key_p = key_modulus = None
    for identity, p, params, modulus, lhs, rhs, verdict in records:
        # `is not` only spares comparing the tags: an equal tag that is
        # another object rebuilds the same texts
        if identity is not key_identity or p != key_p or modulus != key_modulus:
            key_identity, key_p, key_modulus = identity, p, modulus
            head = f"{start}{identity}{after_identity}{p}{after_p}"
            middle = f"{after_params}{modulus}{after_modulus}"
        text = texts.get(params) or texts.setdefault(params, _params_text(params, fmt))
        lines.append(f"{head}{text}{middle}{lhs}{after_lhs}{rhs}{tails[verdict]}")
    return "".join(lines)


# the order of the report's records
_ORDER = attrgetter("p", "identity", "params")
_VERDICT = attrgetter("verdict")


def _entries(cfg: ScanConfig) -> list:
    """The selected identities, each once."""
    return [e for tag, e in IDENTITIES.items() if tag in cfg.identities]


def _prime_checks(primes: list[int], cfg: ScanConfig):
    """Yield (p, checks, disagreement) for each of `primes`, in order: the
    selected per-prime checks, all reading one PrimeContext of the primes'
    PrimeRange, and for p <= cfg.oracle_cap the first field those checks
    populated that disagrees with its naive route, in FIELDS order (None if
    all agree).  A selected tag keeps the records whose identity is the tag
    or begins with the tag and `_`."""
    # one call per check, however many selected tags name it
    calls = {e.check: e.p_min for e in _entries(cfg) if e.over == "p"}
    tags = set(cfg.identities)
    prefixes = tuple(f"{tag}_" for tag in tags)
    for ctx in PrimeRange(primes, cfg.cd_triples).contexts(cfg.a_values):
        p = ctx.p
        checks = [c for check, p_min in calls.items() if p >= p_min
                  for c in check(ctx) if c.identity in tags or c.identity.startswith(prefixes)]
        built = vars(ctx) if p <= cfg.oracle_cap else {}
        oracles = (f.naive(p, built[name]) for name, f in FIELDS.items() if name in built and p >= f.p_min)
        yield p, checks, next(filter(None, oracles), None)


def _exact_checks(cfg: ScanConfig, lo: int, hi: int) -> list[cg.CongruenceCheck]:
    """The records of the selected identities that run over n or a with
    lo < p <= hi: exact_1_3 and exact_1_4 carry p = n, p3_special p = 3."""
    out = []
    for e in _entries(cfg):
        if e.over == "n":
            out += map(e.check, range(lo + 1, min(hi, cfg.n_max) + 1))
        elif e.over == "a" and lo < 3 <= hi:
            out += map(e.check, cfg.a_values)
    return out


def _scan_chunk(task: tuple) -> tuple[list[str], int, bool, "str | None"]:
    """One task of a verify scan, (primes, lo, hi, cfg): the report text
    of every record with lo < p <= hi, sorted by (p, identity, params),
    one piece per prime with the exact records up to it; the number of
    records; whether every verdict holds; and the first oracle
    disagreement up to cfg.oracle_cap, whose prime's records end the text."""
    primes, lo, hi, cfg = task
    # largest p last, so each prime pops the exact records up to it
    exact = sorted(_exact_checks(cfg, lo, hi), key=_ORDER, reverse=True)
    pieces, count, ok = [], 0, True
    # a last group at p = hi takes the exact records past the last prime
    for p, group, disagreement in chain(_prime_checks(primes, cfg), [(hi, [], None)]):
        while exact and exact[-1].p <= p:
            group.append(exact.pop())
        group.sort(key=_ORDER)
        pieces.append(_report_text(group, cfg.fmt))
        count += len(group)
        ok = ok and all(map(_VERDICT, group))
        if disagreement:
            break
    return pieces, count, ok, disagreement


def _allowed_cpus() -> list[int]:
    """The CPUs this process may run on: its affinity mask, or every CPU
    where the platform has none."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _pool_size(jobs: int) -> int:
    """Processes for a scan at `jobs`, the parent included: no more than the
    CPUs this process may use, since each runs on one of its own."""
    return min(jobs, len(_allowed_cpus()))


def _pin(cpus) -> None:
    """Restrict this process to `cpus`.  A forked process starts on its
    parent's CPU, and where the kernel does not balance the load (a cpuset
    with sched_load_balance off) it stays there, sharing that CPU with the
    parent.  Where the platform cannot pin, the process runs where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _serve(fn, tasks, cpu: int, conn, readers) -> None:
    """A forked worker: on `cpu`, send (True, fn(task)) for each task in
    order over `conn`, or (False, (the exception, its traceback's text)) for
    the first that raises; a traceback does not pickle.  It first closes
    the parent's `readers`, which the fork copied, so that a send to a
    parent that died fails instead of waiting for a reader."""
    for reader in readers:
        reader.close()
    _pin([cpu])
    for task in tasks:
        try:
            result = True, fn(task)
        except Exception as exc:
            import traceback

            result = False, (exc, traceback.format_exc())
        conn.send(result)
        if not result[0]:
            return


def _chunks(cfg: ScanConfig) -> list[list[rs.OddPrime]]:
    """The primes in [cfg.p_min, cfg.p_max] (none if no per-prime identity is
    selected) cut into consecutive chunks, one task each: an even share per
    process, at most CHUNK, since each chunk restarts every range sweep at
    k = 1, and about RECORD_BUDGET records.  The sieve proved the primes."""
    entries = [e for e in _entries(cfg) if e.over == "p"]
    primes = list(map(rs.OddPrime.proven, sieve_odd_primes(cfg.p_min, cfg.p_max))) if entries else []
    width = sum(len(getattr(cfg, e.per)) if e.per else 1 for e in entries)
    size = max(1, min(CHUNK, ceil(len(primes) / _pool_size(cfg.jobs)), RECORD_BUDGET // (width or 1)))
    return [primes[i : i + size] for i in range(0, len(primes), size)]


def _run(fn, tasks: list, jobs: int):
    """Yield fn(task) for each task, in order.  With w > 1 processes the
    parent forks w - 1 workers, each with a pipe back, and the tasks go
    round-robin: the parent runs tasks 0, w, 2w, ..., worker i the tasks
    i, i + w, ...; each process runs on a CPU of its own.  One process (a
    single task, one CPU, or no fork on the platform) runs them here.  A
    task that raises in a worker raises here; closing the generator before
    the end kills the workers."""
    workers = min(_pool_size(jobs), len(tasks))
    if workers > 1:
        # multiprocessing loads only on runs that fork workers
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            workers = 1
    if workers < 2:
        yield from map(fn, tasks)
        return
    cpus = _allowed_cpus()
    # each pipe is made just before its worker forks, and the parent closes
    # the write end once it has, so a worker's pipe reads EOF when it dies
    children, readers = [], []
    try:
        for i in range(1, workers):
            reader, send = ctx.Pipe(duplex=False)
            readers.append(reader)
            child = ctx.Process(target=_serve, args=(fn, tasks[i::workers], cpus[i], send, readers))
            child.start()
            children.append(child)
            send.close()
        _pin(cpus[:1])
        for i, task in enumerate(tasks):
            k = i % workers
            if k == 0:
                yield fn(task)
                continue
            child = children[k - 1]
            try:
                ok, value = readers[k - 1].recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"scan worker {child.pid} exited with code {child.exitcode} before its result") from None
            if not ok:
                exc, trace = value
                raise exc from RuntimeError(f"in scan worker {child.pid}:\n{trace}")
            yield value
        # a worker that sent its last result may still run its exit handlers
        for child in children:
            child.join()
    finally:
        _pin(cpus)
        for child in children:
            child.kill()
            child.join()
            child.close()
        for reader in readers:
            reader.close()


class Report:
    """A verify scan's report: iterating it runs the scan one task at a time
    and yields the report text in p order, one piece per prime (after the
    CSV header).  The scan stops after the first prime whose fields disagree
    with the oracle, which `disagreement` then names (the scan prints none).
    Once it is read to the end, len() is the number of records and `code`
    the exit code: 0 if every check matches and the oracle agrees, else 1."""

    def __init__(self, cfg: ScanConfig):
        self.records = 0
        self.code = 0
        self.disagreement = None
        self._text = self._scan(cfg)

    def __iter__(self):
        return self._text

    def __len__(self) -> int:
        return self.records

    def close(self) -> None:
        """Stop the scan, killing its workers."""
        self._text.close()

    def _scan(self, cfg: ScanConfig):
        for texts in _PARAMS_TEXTS.values():
            texts.clear()
        # each task writes the records with p in (lo, hi]: its chunk of
        # primes and the exact records between the previous chunk and its
        # own last prime; the last task's interval reaches the largest p
        # any record carries
        chunks = _chunks(cfg) or [[]]
        bounds = [0] + [c[-1] for c in chunks[:-1]] + [max(cfg.p_max, cfg.n_max)]
        tasks = [(c, lo, hi, cfg) for c, lo, hi in zip(chunks, bounds, bounds[1:])]
        # the CSV header goes out with the first task's text, once the
        # workers have forked: a fork flushes stdout, and a flush to a
        # reader that has left would end the scan there, with no verdict
        header = [",".join(CSV_HEADER) + "\r\n"] if cfg.fmt == "csv" else []
        with closing(_run(_scan_chunk, tasks, cfg.jobs)) as results:
            for pieces, count, ok, disagreement in results:
                self.records += count
                if not ok:
                    self.code = 1
                yield from header
                header = []
                yield from pieces
                if disagreement:
                    self.disagreement, self.code = disagreement, 1
                    return


def run_verify(cfg: ScanConfig) -> Report:
    """A verify scan's report, which runs the scan as it is read.  The
    oracle compares the contexts of the primes up to cfg.oracle_cap."""
    return Report(cfg)


def write_records(records: Report, out) -> None:
    """Write each piece of the report as the scan yields it."""
    for text in records:
        out.write(text)
    out.flush()


# ---------------------------------------------------------------------------
# oracle mode: a verify scan whose report is read but not written

def run_oracle_quantities(cfg: ScanConfig) -> "str | None":
    """Scan the primes up to the oracle cap as verify does, comparing the
    context fields the selected checks populated against naive
    enumeration; returns the first mismatch name, where the scan stops."""
    hi = min(cfg.p_max, cfg.oracle_cap or ORACLE_CAP_LIMIT)
    report = Report(replace(cfg, p_max=hi, oracle_cap=hi))
    for _ in report:
        pass
    return report.disagreement


def run_oracle(cfg: ScanConfig) -> int:
    if cfg.p_max > ORACLE_CAP_LIMIT:
        raise UsageError(f"oracle scans are capped at p <= {ORACLE_CAP_LIMIT}, got p_max={cfg.p_max}")
    if disagreement := run_oracle_quantities(cfg):
        print(f"oracle disagreement: {disagreement}", file=sys.stderr)
        return 1
    n = sum(map(len, _chunks(cfg)))
    print(f"oracle agreement over {n} primes in [{cfg.p_min}, {cfg.p_max}]")
    return 0


def run_sums(p: int) -> int:
    if not rs.is_odd_prime(p) or not 5 <= p <= P_MAX_LIMIT:
        raise UsageError(f"sums needs an odd prime in 5..{P_MAX_LIMIT}, got {p}")
    ctx = PrimeContext(p)
    half, even = ctx.half_sums, ctx.even_sums
    print(f"p = {p}")
    print(f"q2 = (2^(p-1)-1)/p           mod p^3 = {ctx.q2}")
    print(f"B_(p-3)                      mod p   = {ctx.bpm3}")
    print(f"half sum 1/k                 mod p^3 = {half.h1}")
    for n in sorted(half.hn):
        e = 2 if n % 2 == 0 else 1
        print(f"half sum 1/k^{n:<2}              mod p^{e} = {half.hn[n]}")
    # sum_{k even, k<p} 1/k^n = 2^-n * (the half-range sum)
    for n, e in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        m = p**e
        single = (half.h1 if n == 1 else half.hn[n]) * pow(2, -n, m) % m
        print(f"even sum 1/k^{n}               mod p^{e} = {single}")
    for (s, t, e) in sorted(even.double):
        print(f"even double 1/(j^{s} k^{t})      mod p^{e} = {even.double[(s, t, e)]}")
    print(f"even triple 1/(ijk)          mod p   = {even.triple}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_a_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split(".."))
            if hi - lo >= A_VALUES_LIMIT:
                raise UsageError(f"at most {A_VALUES_LIMIT} a values, got {text!r}")
            vals = tuple(range(lo, hi + 1))
        else:
            vals = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse a-values {text!r}") from exc
    if not vals:
        raise UsageError(f"empty a-values {text!r}")
    return vals


def _parse_cd(values: "list[str] | None") -> tuple[tuple[int, int, int], ...]:
    if not values:
        return DEFAULT_CD_TRIPLES
    out = []
    for v in values:
        parts = v.split(",")
        if len(parts) != 3:
            raise UsageError(f"--cd wants eps,a,b, got {v!r}")
        try:
            out.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise UsageError(f"--cd wants integers, got {v!r}") from exc
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carlitzscan",
        description="Exact verification of Carlitz-type binomial-sum congruences.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="scan a prime range and report each check")
    v.add_argument("--p-min", type=int, default=3)
    v.add_argument("--p-max", type=int, default=1000)
    v.add_argument("--a", default="1..8", help="power list: '1,2,3' or '1..8'")
    v.add_argument("--n-max", type=int, default=100, help="range for the exact identities")
    v.add_argument(
        "--identity",
        action="append",
        choices=tuple(IDENTITIES),
        help="repeatable; defaults to the standard set",
    )
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    v.add_argument("--out", default=None)
    v.add_argument("--oracle-cap", type=int, default=0,
                   help="also run naive oracles for primes up to this bound")
    v.add_argument("--cd", action="append", metavar="EPS,A,B",
                   help="triple for the u-sum identity, repeatable; a repeated triple is written once")

    s = sub.add_parser("sums", help="print harmonic profile and constants at one prime")
    s.add_argument("p", type=int)

    o = sub.add_parser("oracle", help="compare fast paths against naive enumeration")
    o.add_argument("--p-min", type=int, default=3)
    o.add_argument("--p-max", type=int, default=101)
    o.add_argument("--identity", action="append", choices=tuple(IDENTITIES),
                   help="repeatable; defaults to every identity")
    o.add_argument("--jobs", type=int, default=1)
    return ap


def main(argv: "list[str] | None" = None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        if ns.command == "sums":
            return run_sums(ns.p)
        if ns.command == "oracle":
            cfg = ScanConfig(
                p_min=ns.p_min,
                p_max=ns.p_max,
                identities=tuple(ns.identity) if ns.identity else tuple(IDENTITIES),
                jobs=ns.jobs,
            )
            return run_oracle(cfg)
        cfg = ScanConfig(
            p_min=ns.p_min,
            p_max=ns.p_max,
            a_values=_parse_a_values(ns.a),
            identities=tuple(ns.identity) if ns.identity else DEFAULT_IDENTITIES,
            n_max=ns.n_max,
            jobs=ns.jobs,
            fmt=ns.format,
            oracle_cap=ns.oracle_cap,
            cd_triples=_parse_cd(ns.cd),
        )
        # open the report before the scan, so an unwritable --out fails at once
        out = open(ns.out, "w", newline="") if ns.out else sys.stdout
        try:
            with closing(run_verify(cfg)) as report:
                try:
                    write_records(report, out)
                except BrokenPipeError:
                    # downstream consumer (head, etc.) closed the pipe: silence
                    # the flush and finish the scan for its verdict
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, sys.stdout.fileno())
                    for _ in report:
                        pass
        finally:
            if ns.out:
                out.close()
        if report.disagreement:
            print(f"oracle disagreement: {report.disagreement}", file=sys.stderr)
        return report.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
