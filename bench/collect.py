"""Summarise benchmark result files into one BENCH table.

Usage: python3 bench/collect.py OUT.json [RESULT.json ...]

With no result files named, every file in bench/out/ is read.  For each
workload and metric the table holds the median of the per-run values,
their quartiles, the number of runs and the spread, (q3 - q1) / median,
as statistics.quantiles gives them.  Runs that failed the correctness
gate are counted but not summarised.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def collect(paths: list[Path]) -> dict:
    values: dict[tuple, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    runs: dict[tuple, dict] = defaultdict(lambda: {"runs": 0, "failed_runs": 0, "seeds": []})
    provenance = {}
    for path in paths:
        result = json.loads(path.read_text())
        kind = "per_layer" if result["trace"] else "end_to_end"
        key = (result["workload"], kind)
        runs[key]["runs"] += 1
        runs[key]["seeds"].append(result["seed"])
        if not result["correct"]:
            runs[key]["failed_runs"] += 1
            continue
        provenance.setdefault(result["provenance"]["src_sha256"], result["provenance"])
        for name, stats in result["metrics"].items():
            values[key + (name,)].append(stats["median"])
            units[name] = stats["unit"]
    table: dict = defaultdict(lambda: defaultdict(dict))
    for (workload, kind, name), vals in sorted(values.items()):
        if len(vals) > 1:
            q1, median, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = median = q3 = vals[0]
        table[workload][kind][name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(vals),
            "spread": (q3 - q1) / median if median else None,
            "unit": units[name],
        }
    for (workload, kind), info in runs.items():
        table[workload][kind + "_runs"] = info
    return {"provenance": list(provenance.values()), "workloads": table}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(p) for p in argv[1:]] or sorted((BENCH / "out").glob("*.json"))
    Path(argv[0]).write_text(json.dumps(collect(paths), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
