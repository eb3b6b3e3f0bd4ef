"""A fixed pure-Python reference kernel that gauges the host's speed.

The host's vCPUs change speed by tens of percent over seconds to minutes,
so the same scan can take 1.1 s or 2.4 s.  The benchmark runs this kernel
in a process of its own on each CPU the scan uses, right before and
right after every scan, and scales the scan's times by how long the
kernel took around it: what remains is the scan's cost at a fixed host
speed, which the host drift leaves alone.

The kernel is the benchmark's own code and never changes with the
program, so a change to the program moves the scan time and not the
gauge.  It does the kinds of work `verify` does, on both sizes of table
the workloads use: for the odd primes below 1200, inverse tables modulo
p^2, power sums modulo p^4 through a smallest-prime-factor table,
Fractions and JSON records; for six primes just below 10^5, an inverse
table by recurrence over a list larger than L2 and big-exponent `pow`.

Usage: python3 reference.py [--cpu N]   (prints the kernel time in s)
"""

import json
import time
from fractions import Fraction
from math import isqrt

from workloads import odd_primes_upto

# The median time of one kernel() call on a quiet 2-core Xeon VM
# (2.0 GHz, Python 3.11).  Times the benchmark reports are scaled to a
# host that runs the kernel in exactly this time.
REFERENCE_S = 0.46
CHECKSUM = 466029  # what kernel() returns

LARGE_PRIMES = (99991, 99989, 99971, 99961, 99929, 99923)


SMALL_PRIMES = tuple(p for p in odd_primes_upto(1200) if p >= 5)


def smallest_factors(n: int) -> list[int]:
    spf = list(range(n))
    for q in range(2, isqrt(n - 1) + 1):
        if spf[q] == q:
            for k in range(q * q, n, q):
                if spf[k] == k:
                    spf[k] = q
    return spf


def power_table(spf: list[int], exp: int, m: int) -> list[int]:
    """k^exp mod m for k < len(spf), one pow per prime k."""
    powv = [0, 1]
    for k in range(2, len(spf)):
        s = spf[k]
        powv.append(pow(k, exp, m) if s == k else powv[s] * powv[k // s] % m)
    return powv


def small_prime(p: int) -> int:
    m2, m4 = p * p, p**4
    inv = [0, 1]
    for i in range(2, p):
        inv.append((m2 - (m2 // i) * inv[m2 % i]) % m2)
    spf = smallest_factors(p)
    half = sum(inv[1 : p // 2 + 1])
    records = []
    for a in (1, 2):
        total = sum(power_table(spf, a * (p - 1) - 3, m4))
        q = Fraction(total, 2 * a + 1) - Fraction(half, p + 2)
        lhs = q.numerator * pow(q.denominator, -1, m4) % m4
        rec = {"identity": "reference", "p": p, "params": [a], "lhs": str(lhs), "rhs": str(lhs), "match": True}
        records.append(json.dumps(rec))
    return sum(map(len, records)) + half % p


def large_prime(p: int) -> int:
    inv = [0, 1]
    for i in range(2, p):
        inv.append((p - (p // i) * inv[p % i]) % p)
    powv = power_table(smallest_factors(2048), p * (p - 1) - 3, p**4)
    lines = [json.dumps({"p": p, "k": k, "lhs": str(powv[k]), "inv": inv[k], "match": True}) for k in range(1, 2048)]
    return (sum(inv[1:4096]) + sum(powv) + sum(map(len, lines))) % p


def kernel() -> int:
    """Do a fixed amount of work and return its checksum."""
    return sum(map(small_prime, SMALL_PRIMES)) + sum(map(large_prime, LARGE_PRIMES))


def timed() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    check = kernel()
    elapsed = time.perf_counter() - t0
    if check != CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {check} != {CHECKSUM}")
    return elapsed


if __name__ == "__main__":
    import argparse
    import os

    ap = argparse.ArgumentParser(description="Time one run of the reference kernel.")
    ap.add_argument("--cpu", type=int, help="run pinned to this CPU")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    print(f"{timed():.9f}")
