"""Compare two perfbench result files under BENCHMARK.json's bounds.

    python perfbench/compare.py A.json B.json

``A.json`` and ``B.json`` are ``perfbench/run.py --out`` files.  For
every workload in both and every end-to-end metric, prints each side's
median and quartiles, the relative change from A to B (positive is
worse) and a verdict:

``ok``
    B's median is within the metric's bound of A's, in both directions.
``regressed`` / ``improved``
    B is worse / better than A by more than the bound.
``unresolved``
    A side's spread (interquartile range over median) exceeds the
    bound, so the medians cannot be told apart at that bound — unless
    every B value beats every A value, which is reported as improved.
    ``setup_s`` is judged on its medians alone: each value is already a
    median of short launches, whose spread measures host bursts rather
    than the program.

Exits 0 when every pair is ``ok``, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Metrics whose spread never makes a pair unresolved (see module doc).
MEDIAN_ONLY = ("setup_s",)


def load_spec(root: Path = ROOT) -> Dict:
    """The benchmark definition, ``BENCHMARK.json`` at the checkout root."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    stats = quartiles(values)
    if stats["median"] == 0:
        return 0.0 if stats["q1"] == stats["q3"] else math.inf
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``; positive means worse."""
    if a == 0:
        if b == a:
            return 0.0
        return math.inf if (b > a) == (better == "lower") else -math.inf
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(
    a: List[float], b: List[float], better: str, bound: float, judge_spread=True
) -> str:
    change = worsening(quartiles(a)["median"], quartiles(b)["median"], better)
    if judge_spread and max(spread(a), spread(b)) > bound:
        beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
        if all(beats(y, x) for x in a for y in b):
            return "improved"
        return "unresolved"
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "ok"


def compare(a_doc: Dict, b_doc: Dict, spec: Dict) -> List[Dict]:
    """One row per workload in both documents x end-to-end metric."""
    rows = []
    for workload in sorted(set(a_doc["workloads"]) & set(b_doc["workloads"])):
        a_metrics = a_doc["workloads"][workload].get("end_to_end", {})
        b_metrics = b_doc["workloads"][workload].get("end_to_end", {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a_metrics or name not in b_metrics:
                continue
            a, b = a_metrics[name]["values"], b_metrics[name]["values"]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "change": worsening(
                        quartiles(a)["median"], quartiles(b)["median"], metric["better"]
                    ),
                    "verdict": verdict(
                        a,
                        b,
                        metric["better"],
                        metric["bound"],
                        judge_spread=name not in MEDIAN_ONLY,
                    ),
                }
            )
    return rows


def _side(stats: Dict[str, float]) -> str:
    return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python perfbench/compare.py A.json B.json", file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows = compare(a_doc, b_doc, load_spec())
    if not rows:
        print("no workload x end-to-end metric in both files", file=sys.stderr)
        return 2
    print(
        f"{'workload':<16} {'metric':<17} {'A median [q1, q3]':<36} "
        f"{'B median [q1, q3]':<36} {'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<16} {row['metric']:<17} {_side(row['a']):<36} "
            f"{_side(row['b']):<36} {row['change']:>+8.2%} {row['bound']:>6.1%}"
            f"  {row['verdict']}"
        )
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
