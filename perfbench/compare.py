"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_runs.jsonl CHANGE_runs.jsonl

Each file holds the records ``perfbench/run.py`` appends to
``.bench_build/perfbench/runs.jsonl``. Runs whose provenance differs
(engine tiers, a masked kernel, Python, NumPy or core count) measure
different programs, so the comparison is refused with exit code 2.

For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, the change's median relative to the
base's, and whether that is worse than the metric's bound; a base spread
(quartile distance over median) wider than the bound is reported as
unresolved. The host reference loop's median is printed per side, and
digests of the same seed must agree. Exit code 1 means a regression
beyond its bound or an output that changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    provenances = {
        json.dumps(record["provenance"], sort_keys=True)
        for record in base + change
    }
    if len(provenances) > 1:
        print("refusing to compare runs of different provenance:",
              *sorted(provenances), sep="\n  ", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    digests: Dict[Tuple[str, int], set] = defaultdict(set)
    for record in base + change:
        key = (record["workload"], record["seed"])
        digests[key].add(record["digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"{workload} seed {seed}: outputs differ {sorted(seen)}")
            status = 1
    for side, records in (("base", base), ("change", change)):
        calib = [record["host_calib_s"] for record in records]
        print(f"{side}: {len(records)} runs, host reference loop median "
              f"{statistics.median(calib):.6g} s")
    workloads = sorted({r["workload"] for r in base + change if not r["trace"]})
    for workload in workloads:
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [
                [r["metrics"][name]["value"] for r in records
                 if r["workload"] == workload and not r["trace"]]
                for records in (base, change)
            ]
            if not all(sides):
                print(f"  {name:<12} missing on one side")
                continue
            (b1, b2, b3), (c1, c2, c3) = map(quartiles, sides)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (c2 - b2) / b2
            if (b3 - b1) / b2 > bound and not (
                max(sides[1]) * sign < min(sides[0]) * sign
            ):
                verdict = "unresolved (base spread wider than bound)"
            elif worse > bound:
                verdict = f"WORSE beyond bound {bound:.0%}"
                status = 1
            else:
                verdict = f"within bound {bound:.0%}"
            print(f"  {name:<12} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
                  f"{(c2 - b2) / b2:+.1%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
