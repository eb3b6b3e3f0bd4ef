"""Benchmark workloads: a fixed identity set over a seed-placed prime window.

Each workload is a closed loop of one client: the benchmark starts one
`verify` run in a fresh interpreter, waits for it, checks its report and
starts the next.  The seed moves the prime window inside a fixed band, so
the per-prime cost stays comparable between seeds; the program itself
only ever sees the generated command-line arguments.

Why each workload exists is written down in README.md next to this file.
"""

import hashlib
from dataclasses import dataclass
from math import isqrt

# The default identity set of `verify`, as its documentation states it.
DEFAULT_SET = ("theorem_1_1", "carlitz", "morley", "lemma_2_1", "lemma_2_2", "eq_2_9", "eq_2_10")
DEFAULT_A = tuple(range(1, 9))
# lemma_2_1 part (ii) is checked for 2 <= n <= min(LEMMA_N_CAP, p - 2).
LEMMA_N_CAP = 12


def odd_primes_upto(n: int) -> list[int]:
    """Odd primes <= n by a plain sieve (kept apart from the program's own)."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [k for k in range(3, n + 1, 2) if flags[k]]


def seed_offset(workload: str, seed: int, band: int) -> int:
    """A seed-determined offset in [0, band), the same on every platform."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % band


@dataclass(frozen=True)
class Workload:
    name: str
    identities: tuple[str, ...]  # empty means the default set (no --identity flag)
    a_values: "tuple[int, ...] | None"  # None means the default --a
    jobs: int
    band_lo: int  # the window starts at a prime in [band_lo, band_hi)
    band_hi: int
    count: int  # number of primes in the window
    count_band: int  # the seed adds 0 .. count_band-1 primes to `count`
    seed_key: str  # workloads with the same key get the same window per seed

    def window(self, seed: int) -> list[int]:
        """The odd primes this workload scans at `seed`."""
        n = self.count + seed_offset(self.seed_key + ":count", seed, self.count_band)
        # Enough primes past the band for any start and count.
        primes = odd_primes_upto(self.band_hi + 40 * n + 1000)
        starts = [i for i, p in enumerate(primes) if self.band_lo <= p < self.band_hi]
        i = starts[seed_offset(self.seed_key + ":start", seed, len(starts))]
        window = primes[i : i + n]
        if len(window) != n:
            raise ValueError(f"prime table too short for {self.name} at seed {seed}")
        return window

    def argv(self, seed: int, out: str) -> list[str]:
        """`verify` arguments for this workload at `seed`, writing to `out`."""
        window = self.window(seed)
        args = ["verify", "--p-min", str(window[0]), "--p-max", str(window[-1])]
        for ident in self.identities:
            args += ["--identity", ident]
        if self.a_values is not None:
            args += ["--a", f"{self.a_values[0]}..{self.a_values[-1]}"]
        return args + ["--jobs", str(self.jobs), "--out", out]

    def expected_keys(self, seed: int) -> list[tuple]:
        """The (identity, p, params) of every record the window implies."""
        idents = self.identities or DEFAULT_SET
        a_values = self.a_values or DEFAULT_A
        keys = []
        for p in self.window(seed):
            for ident in idents:
                keys.extend(_records_at(ident, p, a_values))
        return keys


def _records_at(ident: str, p: int, a_values: tuple[int, ...]) -> list[tuple]:
    if ident == "theorem_1_1":
        return [("theorem_1_1", p, (a,)) for a in a_values]
    if ident == "carlitz":
        return [("carlitz", p, ())]
    if p < 5:
        return []
    if ident == "lemma_2_1":
        ns = range(2, min(LEMMA_N_CAP, p - 2) + 1)
        return [("lemma_2_1_i", p, ())] + [("lemma_2_1_ii", p, (n,)) for n in ns]
    if ident == "lemma_2_2":
        return [("lemma_2_2_a", p, ()), ("lemma_2_2_b", p, ())]
    if ident in ("morley", "eq_2_9", "eq_2_10"):
        return [(ident, p, ())]
    raise ValueError(f"no record rule for identity {ident!r}")


# Sizes are chosen so that one `verify` run takes about two seconds on a
# 2-core Xeon VM, which gives several repeats within one measured run.
WORKLOADS = {
    w.name: w
    for w in (
        # The common user run: the default set over every odd prime from 3.
        Workload("scan-default", (), None, 1, 3, 4, 236, 8, "scan-default"),
        # Acceptance criterion 02's range: morley and carlitz just below 10^5.
        Workload("central-1e5", ("morley", "carlitz"), None, 1, 98000, 99800, 16, 1, "central-1e5"),
        # Acceptance criterion 01's check: theorem_1_1 for a = 1..10 from p = 3.
        Workload("theorem-a10", ("theorem_1_1",), tuple(range(1, 11)), 1, 3, 4, 360, 8, "theorem-a10"),
        # The scan-default window at --jobs 2: the process-pool path.
        Workload("scan-default-j2", (), None, 2, 3, 4, 236, 8, "scan-default"),
    )
}
