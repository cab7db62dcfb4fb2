#!/usr/bin/env python3
"""Summarise benchmark runs, or compare two sets of them.

Both inputs are JSON-lines files written by ``run.py --json OUT`` (one
run per line).  With one file, prints each (workload, metric)'s
median, quartiles and spread (IQR / median) next to its bound from
``BENCHMARK.json``; a spread at or above a third of the bound is
flagged.  With two files A (parent) and B (change), pairs the runs of
each workload in order and gives a verdict per (workload, metric):

``improved``
    B wins at least 9 in 10 pairs and the medians differ by more than
    A's interquartile range.
``worse``
    B's median is worse than A's by more than the metric's bound (for
    per-layer metrics, which have no bound: B loses 9 in 10 pairs and
    the medians differ by more than A's IQR).
``unresolved``
    A's spread exceeds the bound and not every B run beats every A run.
``unchanged``
    none of the above.

    python3 benchmarks/perf/compare.py RUNS.jsonl
    python3 benchmarks/perf/compare.py PARENT.jsonl CHANGE.jsonl

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

Key = Tuple[str, str]


def load_spec(root: Path = ROOT) -> Dict[str, dict]:
    """``metric name -> {unit, better, bound?}`` from BENCHMARK.json."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def load_runs(path: str) -> Dict[Key, List[float]]:
    """``(workload, metric) -> values`` in file order."""
    values: Dict[Key, List[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"]
                )
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, median_a, q3 = quartiles(a)
    iqr = q3 - q1
    gain = sign * (statistics.median(b) - median_a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse"
        return "unchanged"
    if -gain > bound * abs(median_a):
        return "worse"
    if iqr > bound * abs(median_a) and not all(
        sign * (y - x) > 0 for x in a for y in b
    ):
        return "unresolved"
    return "unchanged"


def summarise(runs: Dict[Key, List[float]], spec: Dict[str, dict]) -> int:
    print(f"{'workload':<15} {'metric':<34} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(runs.items()):
        q1, median, q3 = quartiles(values)
        bound = spec.get(name, {}).get("bound")
        share = spread(values)
        flag = ""
        if bound is not None and share >= bound / 3:
            flag = "  spread >= bound/3"
        print(f"{workload:<15} {name:<34} {len(values):>3} {median:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {share:>7.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


def compare(a: Dict[Key, List[float]], b: Dict[Key, List[float]],
            spec: Dict[str, dict]) -> int:
    print(f"{'workload':<15} {'metric':<34} {'median A':>12} "
          f"{'median B':>12} {'change':>8}  verdict")
    worse = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = spec.get(name, {"better": "lower"})
        result = verdict(a[key], b[key], metric["better"],
                         metric.get("bound"))
        worse += result == "worse"
        median_a, median_b = statistics.median(a[key]), statistics.median(b[key])
        change = (median_b - median_a) / abs(median_a) if median_a else 0.0
        print(f"{workload:<15} {name:<34} {median_a:>12.6g} "
              f"{median_b:>12.6g} {change:>+8.1%}  {result}")
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(paths) == 1:
        return summarise(load_runs(paths[0]), spec)
    return compare(load_runs(paths[0]), load_runs(paths[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
