"""Compare two sets of untraced benchmark results.

    python3 benchmarks/e2e/compare.py SET_A SET_B

Each set is a directory of ``result-*.json`` files written by ``run.py``
(or a glob matching such files); set A is the baseline.  For every
(workload, end-to-end metric) the script prints both sets' median and
interquartile range and one verdict under the metric's bound in
``BENCHMARK.json``:

* ``regression`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- a set's spread (IQR / median) exceeds the bound, so
  the runs cannot tell a change of that size from noise, unless every run
  of B is better than every run of A;
* ``ok`` -- otherwise.

Exit status 1 when any pair is a regression.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

import common


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(spec: str) -> Tuple[Dict[Tuple[str, str], List[float]], List[Dict[str, object]]]:
    pattern = os.path.join(spec, "result-*.json") if os.path.isdir(spec) else spec
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    machines = []
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record["trace"]:
            continue
        machines.append(record["machine"])
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(float(metric["value"]))
    return values, machines


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float, float]:
    """(verdict, change of B against A as a share, worst spread)."""
    q1a, median_a, q3a = quartiles(a)
    q1b, median_b, q3b = quartiles(b)
    change = (median_b - median_a) / median_a
    worse = change if better == "lower" else -change
    spread = max((q3a - q1a) / median_a, (q3b - q1b) / median_b)
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if spread > bound and not b_always_better:
        return "unresolved", change, spread
    if worse > bound:
        return "regression", change, spread
    return "ok", change, spread


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"]
    set_a, machines_a = load_set(argv[1])
    set_b, machines_b = load_set(argv[2])
    for label, machines in (("A", machines_a), ("B", machines_b)):
        seen = sorted({json.dumps(m, sort_keys=True) for m in machines})
        print(f"set {label}: {len(machines)} results on {', '.join(seen) or 'nothing'}")
    header = (f"{'workload':<13} {'metric':<12} {'A median':>11} {'A IQR':>9} "
              f"{'B median':>11} {'B IQR':>9} {'change':>8} {'bound':>6} verdict")
    print(header)
    regressions = 0
    workloads = sorted({workload for workload, _ in set_a} | {workload for workload, _ in set_b})
    for workload in workloads:
        for spec in specs:
            a = set_a.get((workload, spec["name"]), [])
            b = set_b.get((workload, spec["name"]), [])
            if not a or not b:
                print(f"{workload:<13} {spec['name']:<12} missing in set {'A' if not a else 'B'}")
                continue
            result, change, _ = verdict(a, b, spec["better"], spec["bound"])
            regressions += result == "regression"
            q1a, median_a, q3a = quartiles(a)
            q1b, median_b, q3b = quartiles(b)
            print(f"{workload:<13} {spec['name']:<12} {median_a:>11.4f} {q3a - q1a:>9.4f} "
                  f"{median_b:>11.4f} {q3b - q1b:>9.4f} {change:>+8.1%} {spec['bound']:>6.2f} "
                  f"{result} (n={len(a)}/{len(b)})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
