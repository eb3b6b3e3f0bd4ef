"""Correctness gate for one `verify` report (JSONL).

A report passes when every record reads `match: true` and the records
are exactly the (identity, p, params) keys the workload implies, each
once.  The digest is the sha256 of the report with the per-record timing
field `us` removed, so it stays comparable once that field is dropped.
"""

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class GateResult:
    expected: int  # checks the workload implies
    mismatched: int  # expected records that read match != true
    missing: int  # expected records absent from the report
    unexpected: int  # records (or unreadable lines) the workload does not imply
    digest: str

    @property
    def failed(self) -> int:
        return self.mismatched + self.missing + self.unexpected


def check_report(text: str, expected_keys: list[tuple]) -> GateResult:
    want = Counter(expected_keys)
    seen: Counter = Counter()
    mismatched = unexpected = 0
    canonical = []
    for line in text.splitlines():
        try:
            rec = json.loads(line)
            key = (rec["identity"], rec["p"], tuple(rec["params"]))
        except (ValueError, KeyError, TypeError):
            unexpected += 1
            canonical.append(line)
            continue
        rec.pop("us", None)
        canonical.append(json.dumps(rec))
        seen[key] += 1
        if seen[key] > want[key]:
            unexpected += 1
        elif rec.get("match") is not True:
            mismatched += 1
    missing = sum((want - seen).values())
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
    return GateResult(sum(want.values()), mismatched, missing, unexpected, digest)


def spot_check(text: str, p: int) -> list[str]:
    """Recompute the left sides at prime p from exact binomials.

    This route shares no code with the program: it checks the central
    binomial (morley, carlitz) and the alternating power sums
    (theorem_1_1) reported at p.  Returns a description of each
    disagreement.
    """
    bad = []
    mid = (p - 1) // 2
    central = (-1) ** mid * comb(p - 1, mid)
    m4 = p**4
    row = None
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["p"] != p:
            continue
        ident, lhs = rec["identity"], int(rec["lhs"])
        if ident in ("morley", "carlitz"):
            want = central % int(rec["modulus"])
        elif ident == "theorem_1_1":
            if row is None:
                row = [comb(p - 1, k) % m4 for k in range(p)]
            (a,) = rec["params"]
            sign = -1 if a % 2 == 0 else 1
            want = sum(pow(c, a, m4) * sign**k for k, c in enumerate(row)) % m4
        else:
            continue
        if lhs != want:
            bad.append(f"{ident} p={p} params={rec['params']}: lhs {lhs} != {want}")
    return bad
