#!/usr/bin/env python3
"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as ``run.py`` writes them to
``.perfbench/records/``; copy that directory aside after measuring each
commit.  For every workload and metric the script prints the median and the
quartile spread of both sets and the change of the median.  It refuses to
compare records made on different kernel backends, since those measure
different programs.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no run records in {directory}")
    return records


def summary(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs on different kernel backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 1

    grouped = defaultdict(lambda: ([], []))
    for side, records in ((0, base), (1, new)):
        for r in records:
            for name, metric in r["metrics"].items():
                key = (r["workload"], name, metric["unit"])
                grouped[key][side].append(metric["value"])

    print(f"{'workload':16s} {'metric':36s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s} runs")
    for (workload, name, unit), (a, b) in sorted(grouped.items()):
        if not a or not b:
            continue
        (ma, sa), (mb, _) = summary(a), summary(b)
        change = (mb - ma) / abs(ma) if ma else 0.0
        print(f"{workload:16s} {name + ' [' + unit + ']':36s} {ma:12.5g} "
              f"{mb:12.5g} {change:+8.1%} {sa:7.1%} {len(a)}/{len(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
