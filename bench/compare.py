"""Compares two ``results.json`` files, one row per workload and metric.

    python3 bench/compare.py A.json B.json

A is the base of every ratio.  Each row shows both medians, B/A, the
bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but the run-to-run spread of either side is
  wider than the bound, and not every run of B beats every run of A;
* ``same`` — neither.

Exits 1 on any ``worse`` row or when B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles, or between the extremes when there are under four
    values (two values have no quartiles worth the name)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / median
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median


def bounds() -> Dict[str, Tuple[str, float]]:
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {metric["name"]: (metric["better"], metric["bound"])
            for metric in spec["end_to_end"]}


def failed_share(workload: dict) -> float:
    return sum(workload["failed"]) / sum(workload["attempted"])


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    base = statistics.median(a)
    change = (statistics.median(b) - base) / base
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound:
        b_beats_a = (max(b) < min(a) if better == "lower"
                     else min(b) > max(a))
        if not b_beats_a:
            return "unresolved"
    return "same"


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    """The table's lines, and whether B regressed."""
    limits = bounds()
    lines = [
        f"{'workload':14s} {'metric':12s} {'A median':>14s} "
        f"{'B median':>14s} {'B/A':>7s} {'bound':>6s} "
        f"{'spread A':>8s} {'spread B':>8s}  verdict"
    ]
    regressed = False
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"].get(name)
        if in_b is None:
            continue
        for metric, (better, bound) in limits.items():
            values_a = in_a["end_to_end"][metric]["values"]
            values_b = in_b["end_to_end"][metric]["values"]
            word = verdict(values_a, values_b, better, bound)
            regressed |= word == "worse"
            median_a = statistics.median(values_a)
            median_b = statistics.median(values_b)
            lines.append(
                f"{name:14s} {metric:12s} {median_a:14.4f} "
                f"{median_b:14.4f} {median_b / median_a:7.3f} "
                f"{bound:6.2f} {spread(values_a):8.3f} "
                f"{spread(values_b):8.3f}  {word}"
            )
        share_a, share_b = failed_share(in_a), failed_share(in_b)
        word = "worse" if share_b > share_a else "same"
        regressed |= share_b > share_a
        lines.append(
            f"{name:14s} {'failed_share':12s} {share_a:14.6f} "
            f"{share_b:14.6f} {'':7s} {0:6.2f} {'':8s} {'':8s}  {word}"
        )
    return lines, regressed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    loaded = []
    for path in argv:
        with open(path) as handle:
            loaded.append(json.load(handle))
    lines, regressed = compare(*loaded)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
