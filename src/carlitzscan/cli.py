"""Command-line front end: scan prime ranges, dump sums, run oracles.

Subcommands:
    verify  -- check selected identities over a prime range, emit one
               report record per check (JSONL or CSV)
    sums    -- print the harmonic profile and constants at one prime
    oracle  -- recompute fast-path quantities by naive enumeration and
               compare (bounded prime range)

Exit codes: 0 all checks match, 1 any mismatch, 2 usage error, 3 I/O
failure.  Reports are sorted by (p, identity, params) regardless of
worker scheduling, so two runs of one configuration are byte-identical.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb, isqrt

from . import bernoulli as bn
from . import congruences as cg
from . import harmonic as hm
from . import residues as rs
from .context import DEFAULT_A, DEFAULT_CD_TRIPLES, IDENTITIES, PrimeContext

__all__ = [
    "UsageError",
    "ScanConfig",
    "ReportRecord",
    "sieve_odd_primes",
    "run_verify",
    "run_oracle",
    "main",
]

ORACLE_CAP_LIMIT = 1000
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
    out: "str | None" = None
    oracle_cap: int = 0
    cd_triples: tuple[tuple[int, int, int], ...] = DEFAULT_CD_TRIPLES

    def validate(self) -> None:
        if not 3 <= self.p_min <= self.p_max < 2**31:
            raise UsageError(
                f"need 3 <= p_min <= p_max < 2^31, got {self.p_min}..{self.p_max}"
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


@dataclass(frozen=True)
class ReportRecord:
    """One report line.  The `us` column of the report format is kept for
    readers of earlier reports and is always 0."""

    identity: str
    p: int
    params: tuple[int, ...]
    modulus: int
    lhs: int
    rhs: int
    match: bool

    @classmethod
    def from_check(cls, check: cg.CongruenceCheck) -> "ReportRecord":
        return cls(check.identity, check.p, check.params, check.modulus, check.lhs, check.rhs, check.verdict)

    def _values(self) -> list:
        # one value per CSV_HEADER column; the big residues as decimal strings
        return [self.identity, self.p, list(self.params), str(self.modulus), str(self.lhs), str(self.rhs), self.match, 0]

    def jsonl(self) -> str:
        return json.dumps(dict(zip(CSV_HEADER, self._values())))

    def csv_row(self) -> list[str]:
        return [v if isinstance(v, str) else json.dumps(v) for v in self._values()]


CSV_HEADER = ["identity", "p", "params", "modulus", "lhs", "rhs", "match", "us"]

_SEGMENT = 1 << 20


def sieve_odd_primes(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi], by a plain sieve (segmented above 10^7)."""
    if hi < 3:
        return []
    lo = max(lo, 3)
    if hi <= 10**7:
        flags = bytearray([1]) * (hi + 1)
        flags[0:2] = b"\x00\x00"
        for q in range(2, isqrt(hi) + 1):
            if flags[q]:
                flags[q * q :: q] = bytearray(len(range(q * q, hi + 1, q)))
        return [n for n in range(lo | 1, hi + 1, 2) if flags[n]]
    base = sieve_odd_primes(3, isqrt(hi))
    small = [2] + base
    out = []
    start = lo
    while start <= hi:
        end = min(start + _SEGMENT - 1, hi)
        flags = bytearray([1]) * (end - start + 1)
        for q in small:
            if q * q > end:
                break
            first = max(q * q, (start + q - 1) // q * q)
            flags[first - start :: q] = bytearray(len(range(first, end + 1, q)))
        out.extend(
            n for n in range((start | 1), end + 1, 2) if flags[n - start] and n >= 3
        )
        start = end + 1
    return out


def _scan_prime(args: tuple) -> list[ReportRecord]:
    """Every selected per-prime check at p, all reading one PrimeContext."""
    p, tags, a_values, cd_triples, window = args
    ctx = PrimeContext(p, a_values, cd_triples, window)
    entries = [IDENTITIES[t] for t in tags]
    return [ReportRecord.from_check(c) for e in entries if p >= e.p_min for c in e.check(ctx)]


def run_verify(cfg: ScanConfig) -> tuple[list[ReportRecord], int]:
    """Execute a verify scan; returns (sorted records, exit code 0/1)."""
    cfg.validate()
    chosen = set(cfg.identities)
    entries = [e for tag, e in IDENTITIES.items() if tag in chosen and e.part_of not in chosen]
    prime_tags = tuple(e.tag for e in entries if e.over == "p")
    window = any(e.window for e in entries)
    tasks = []
    if prime_tags:
        for p in sieve_odd_primes(cfg.p_min, cfg.p_max):
            tasks.append((p, prime_tags, cfg.a_values, cfg.cd_triples, window))

    records: list[ReportRecord] = []
    if cfg.jobs == 1:
        for t in tasks:
            records.extend(_scan_prime(t))
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunk = max(1, len(tasks) // (cfg.jobs * 8))
            for recs in pool.map(_scan_prime, tasks, chunksize=chunk):
                records.extend(recs)
    # the exact identities and p = 3's wrap-up take well under a second
    for e in entries:
        if e.over != "p":
            index = range(1, cfg.n_max + 1) if e.over == "n" else cfg.a_values
            records.extend(ReportRecord.from_check(e.check(i)) for i in index)

    records.sort(key=lambda r: (r.p, r.identity, r.params))
    code = 0 if all(r.match for r in records) else 1
    if cfg.oracle_cap and run_oracle_quantities(cfg):
        code = 1
    return records, code


def write_records(records: list[ReportRecord], cfg: ScanConfig) -> None:
    out = open(cfg.out, "w", newline="") if cfg.out else sys.stdout
    try:
        if cfg.fmt == "csv":
            w = csv.writer(out)
            w.writerow(CSV_HEADER)
            for r in records:
                w.writerow(r.csv_row())
        else:
            for r in records:
                out.write(r.jsonl() + "\n")
    finally:
        if cfg.out:
            out.close()


# ---------------------------------------------------------------------------
# oracle mode: fast path vs naive enumeration

def _oracle_binom_table(p: int) -> "str | None":
    if rs.binom_pm1(p, 4) != rs.binom_pm1_naive(p, 4):
        return f"binom_table(p={p}, e=4)"
    mid = (p - 1) // 2
    if PrimeContext(p).central4 != (-1) ** mid * comb(p - 1, mid) % p**4:
        return f"central_binomial(p={p}, e=4)"
    return None


def _oracle_sigma(p: int) -> "str | None":
    """Check the elementary inverse sums against two independent routes.

    Below 101 the literal tuple enumeration is affordable for every r;
    above that the cubic loop is not, so the sums are recomputed from
    the inverse power sums P1, P2, P3 via Newton's identities instead
    (a different recursion than the production update).
    """
    m = p**4
    if p <= 101:
        for r in range(p):
            if rs.symmetric_inverse_sums(p, r, 4) != rs.symmetric_inverse_sums_naive(p, r, 4):
                return f"sigma(p={p}, r={r})"
        return None
    inv2 = pow(2, -1, m)
    inv6 = pow(6, -1, m)
    p1 = p2 = p3 = 0
    for r in range(p):
        if r:
            x = pow(r, -1, m)
            xx = x * x % m
            p1 = (p1 + x) % m
            p2 = (p2 + xx) % m
            p3 = (p3 + xx * x) % m
        e2 = (p1 * p1 - p2) * inv2 % m
        e3 = (p1 * p1 % m * p1 - 3 * p1 * p2 + 2 * p3) * inv6 % m
        if rs.symmetric_inverse_sums(p, r, 4) != (p1, e2, e3):
            return f"sigma(p={p}, r={r})"
    return None


def _oracle_power_sum(p: int) -> "str | None":
    """The power sums the verdicts read (from the context's moments)
    against direct powers for a <= 10 and exact binomials for a <= 5."""
    moments = PrimeContext(p).moments
    direct = cg.lhs_power_sums_batch(p, 10)
    for a in range(1, 11):
        lhs = cg.moment_power_sum(p, a, moments)
        if lhs != direct[a] or (a <= 5 and lhs != cg.lhs_power_sum_exact(p, a)):
            return f"power_sum(p={p}, a={a})"
    return None


def _oracle_half_harmonic(p: int) -> "str | None":
    half = PrimeContext(p).half_sums
    if half.h1 != hm.naive_half_harmonic(p, 1, 3):
        return f"half_h1(p={p})"
    for n, v in half.hn.items():
        if v != hm.naive_half_harmonic(p, n, 2 if n % 2 == 0 else 1):
            return f"half_hn(p={p}, n={n})"
    return None


def _oracle_even_sums(p: int) -> "str | None":
    even = PrimeContext(p).even_sums
    for (n, e), v in even.single.items():
        if v != hm.naive_even_single(p, n, e):
            return f"even_single(p={p}, n={n}, e={e})"
    for (s, t, e), v in even.double.items():
        if v != hm.naive_even_double(p, s, t, e):
            return f"even_double(p={p}, s={s}, t={t}, e={e})"
    if even.triple != hm.naive_even_triple(p):
        return f"even_triple(p={p})"
    return None


def _oracle_bernoulli(p: int) -> "str | None":
    """Both Bernoulli fields (B_(p-3) alone and lemma_2_1's window) against
    power-sum extraction at every p, and against the exact recurrence
    where p - j <= BERNOULLI_CAP."""
    want = {}
    for j in range(3, min(13, p - 2) + 1, 2):
        want[j] = bn.bernoulli_mod_p(p, p - j)
        if p - j <= bn.BERNOULLI_CAP:
            b = bn.bernoulli_exact(p - j)
            if want[j] != b.numerator * pow(b.denominator, -1, p) % p:
                return f"bernoulli_mod_p(p={p}, index={p - j})"
    if PrimeContext(p, window=False).bern != {3: want[3]}:
        return f"bernoulli_pm3(p={p})"
    if PrimeContext(p).bern != want:
        return f"bernoulli_window(p={p})"
    m2 = p * p
    for exp in (p - 3, p - 5):
        if exp < 2:
            continue
        direct = sum(pow(k, exp, m2) for k in range(1, p)) % m2
        if bn.power_sum_mod(p, exp, 2) != direct:
            return f"power_sum_mod(p={p}, exp={exp})"
    return None


def _oracle_fermat(p: int) -> "str | None":
    if PrimeContext(p).q2 != (pow(2, p - 1) - 1) // p % p**3:
        return f"fermat_quotient_2(p={p})"
    qs = bn.fermat_quotients_all_bases(p)
    for k in range(2, p):
        if qs[k] != (pow(k, p - 1, p * p) - 1) // p % p:
            return f"fermat_quotient_base(p={p}, k={k})"
    return None


def _oracle_cd(p: int) -> "str | None":
    for eps, a, b in DEFAULT_CD_TRIPLES:
        if cg.chamberland_dilcher_u(p, eps, a, b) != cg.chamberland_dilcher_exact(p, eps, a, b):
            return f"cd(p={p}, eps={eps}, a={a}, b={b})"
    return None


_ORACLE_FUNCS = {
    "binom_table": _oracle_binom_table,
    "sigma": _oracle_sigma,
    "power_sum": _oracle_power_sum,
    "half_harmonic": _oracle_half_harmonic,
    "even_sums": _oracle_even_sums,
    "bernoulli": _oracle_bernoulli,
    "fermat": _oracle_fermat,
    "cd": _oracle_cd,
}


def _oracle_task(args: tuple) -> "str | None":
    p, quantities = args
    for q in quantities:
        bad = _ORACLE_FUNCS[q](p)
        if bad:
            return bad
    return None


def run_oracle_quantities(cfg: ScanConfig, quiet: bool = False) -> "str | None":
    """Compare the PrimeContext fields (and the other fast paths) against
    naive enumeration; returns the first mismatch name.  The default
    identity set compares every quantity."""
    quantities = set()
    for ident in cfg.identities:
        quantities.update(IDENTITIES[ident].oracle)
    if cfg.identities == DEFAULT_IDENTITIES:
        quantities = set(_ORACLE_FUNCS)
    cap = cfg.oracle_cap or ORACLE_CAP_LIMIT
    hi = min(cfg.p_max, cap)
    order = [q for q in _ORACLE_FUNCS if q in quantities]
    tasks = [(p, order) for p in sieve_odd_primes(max(cfg.p_min, 5), hi)]
    if cfg.jobs == 1:
        bad = next(filter(None, map(_oracle_task, tasks)), None)
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            try:
                bad = next(filter(None, pool.map(_oracle_task, tasks)), None)
            finally:
                pool.shutdown(cancel_futures=True)
    if bad and not quiet:
        print(f"oracle disagreement: {bad}", file=sys.stderr)
    return bad


def run_oracle(cfg: ScanConfig) -> int:
    cfg.validate()
    if cfg.p_max > (cfg.oracle_cap or ORACLE_CAP_LIMIT):
        raise UsageError(
            f"oracle scans are capped at p <= {cfg.oracle_cap or ORACLE_CAP_LIMIT}, "
            f"got p_max={cfg.p_max}"
        )
    bad = run_oracle_quantities(cfg)
    if bad:
        return 1
    n = len(sieve_odd_primes(max(cfg.p_min, 5), cfg.p_max))
    print(f"oracle agreement over {n} primes in [{max(cfg.p_min, 5)}, {cfg.p_max}]")
    return 0


def run_sums(p: int) -> int:
    if not rs.is_odd_prime(p) or p < 5:
        raise UsageError(f"sums needs an odd prime >= 5, got {p}")
    ctx = PrimeContext(p, window=False)
    half, even = ctx.half_sums, ctx.even_sums
    print(f"p = {p}")
    print(f"q2 = (2^(p-1)-1)/p           mod p^3 = {ctx.q2}")
    print(f"B_(p-3)                      mod p   = {ctx.bpm3}")
    print(f"half sum 1/k                 mod p^3 = {half.h1}")
    for n in sorted(half.hn):
        e = 2 if n % 2 == 0 else 1
        print(f"half sum 1/k^{n:<2}              mod p^{e} = {half.hn[n]}")
    for (n, e) in sorted(even.single):
        print(f"even sum 1/k^{n}               mod p^{e} = {even.single[(n, e)]}")
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
            lo, hi = text.split("..")
            vals = tuple(range(int(lo), int(hi) + 1))
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
                   help="triple for the u-sum identity, repeatable")

    s = sub.add_parser("sums", help="print harmonic profile and constants at one prime")
    s.add_argument("p", type=int)

    o = sub.add_parser("oracle", help="compare fast paths against naive enumeration")
    o.add_argument("--p-min", type=int, default=3)
    o.add_argument("--p-max", type=int, default=101)
    o.add_argument("--identity", action="append", choices=tuple(IDENTITIES))
    o.add_argument("--jobs", type=int, default=1)
    o.add_argument("--oracle-cap", type=int, default=ORACLE_CAP_LIMIT)
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
                identities=tuple(ns.identity) if ns.identity else DEFAULT_IDENTITIES,
                jobs=ns.jobs,
                oracle_cap=ns.oracle_cap,
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
            out=ns.out,
            oracle_cap=ns.oracle_cap,
            cd_triples=_parse_cd(ns.cd),
        )
        records, code = run_verify(cfg)
        try:
            write_records(records, cfg)
            if not cfg.out:
                sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (head, etc.) closed the pipe; exit
            # with the verification verdict and silence the flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
