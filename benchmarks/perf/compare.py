"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl

``A`` and ``B`` hold records appended by ``run.py --out``.  For each
workload and end-to-end metric of BENCHMARK.json, the untraced runs
of each set give a median and quartiles.  Verdicts, with the bound
taken from BENCHMARK.json:

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: either set's spread (quartile distance over median)
  exceeds the bound, unless every B run reads better than every A run;
* ``ok`` otherwise.

Every record of the same workload, seed and size must also report the
same output digests (over the operations both ran), traced or not.
Exits 1 on a ``worse`` verdict, a digest mismatch or an incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: Path) -> List[Dict]:
    return [
        json.loads(line) for line in path.read_text().splitlines()
        if line.strip()
    ]


def summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` cuts."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return median, low, high


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    (med_a, lo_a, hi_a), (med_b, lo_b, hi_b) = summary(a), summary(b)
    sign = 1.0 if better == "higher" else -1.0
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse"
    spread = max((hi_a - lo_a) / abs(med_a), (hi_b - lo_b) / abs(med_b))
    every_b_better = min(sign * x for x in b) > max(sign * x for x in a)
    if spread > bound and not every_b_better:
        return "unresolved"
    return "ok"


def digest_mismatches(records: List[Dict]) -> List[str]:
    groups: Dict[Tuple, List[Dict]] = {}
    for record in records:
        key = (record["workload"], record["seed"], record["smoke"])
        groups.setdefault(key, []).append(record)
    problems = []
    for (workload, seed, _), group in sorted(groups.items()):
        for first, second in combinations(group, 2):
            for index, pair in enumerate(
                zip(first["digests"], second["digests"])
            ):
                if all(pair) and pair[0] != pair[1]:
                    problems.append(
                        f"{workload} seed {seed}: operation {index} "
                        "digests differ"
                    )
                    break
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    sets = {"A": load(args.a), "B": load(args.b)}
    failed = False
    for label, records in sets.items():
        for record in records:
            if not record["correct"]:
                failed = True
                print(f"{label}: {record['workload']} seed "
                      f"{record['seed']} was not correct: "
                      f"{record['problems']}")
    print(f"{'workload':12} {'metric':15} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                label: [
                    r["metrics"][name] for r in records
                    if r["workload"] == workload and not r["trace"]
                    and name in r["metrics"]
                ]
                for label, records in sets.items()
            }
            if not values["A"] or not values["B"]:
                continue
            result = verdict(values["A"], values["B"], metric["better"],
                             metric["bound"])
            failed |= result == "worse"
            cells = []
            for label in ("A", "B"):
                median, low, high = summary(values[label])
                cells.append(f"{median:.4g} [{low:.4g}, {high:.4g}] "
                             f"n={len(values[label])}")
            change = summary(values["B"])[0] / summary(values["A"])[0] - 1
            print(f"{workload:12} {name:15} {cells[0]:>34} "
                  f"{cells[1]:>34} {change:+8.2%} {metric['bound']:6.2f} "
                  f"{result}")
    mismatches = digest_mismatches(sets["A"] + sets["B"])
    for problem in mismatches:
        print(f"DIGEST MISMATCH: {problem}")
    if not mismatches:
        print("digests: every shared operation matches")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
