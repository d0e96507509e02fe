#!/usr/bin/env python3
"""Judge document B against document A by the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are documents written by ``run.py --out`` (ideally with
``--runs 5`` or more each).  One row per workload x end-to-end metric:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regression``  it is worse by more than the bound;
* ``unresolved``  the run-to-run spread (distance between the quartiles
  as a share of the median, the wider of A's and B's) exceeds the bound,
  so the runs cannot tell — unless every run of B reads better than
  every run of A, which is ``ok``.

Operations that failed are compared too: more failures in B than in A
is a regression whatever the timings say.  Exits 1 on any regression,
on documents that are not comparable (smoke runs), or when the two were
taken on machines with different ``cpu_count``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json")
    .read_text())


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of
    ``base`` (negative when it is better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def judge(a: Dict[str, Any], b: Dict[str, Any], better: str,
          bound: float) -> Tuple[str, float, float]:
    """(verdict, worse-by share, spread) for one metric on one
    workload; ``a`` and ``b`` are the metric's summary entries."""
    worse = worse_by(a["median"], b["median"], better)
    spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
    if spread > bound:
        if better == "lower":
            all_better = max(b["values"]) < min(a["values"])
        else:
            all_better = min(b["values"]) > max(a["values"])
        return ("ok" if all_better else "unresolved"), worse, spread
    return ("regression" if worse > bound else "ok"), worse, spread


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[List[str]]:
    rows: List[List[str]] = []
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        a = doc_a["workloads"].get(name)
        b = doc_b["workloads"].get(name)
        if a is None or b is None:
            continue
        for metric in BENCHMARK["end_to_end"]:
            key = metric["name"]
            verdict, worse, spread = judge(
                a["end_to_end"][key], b["end_to_end"][key],
                metric["better"], metric["bound"])
            rows.append([name, key, f"{a['end_to_end'][key]['median']:.5g}",
                         f"{b['end_to_end'][key]['median']:.5g}",
                         f"{100 * worse:+.1f}%", f"{100 * spread:.1f}%",
                         f"{100 * metric['bound']:.0f}%", verdict])
        failed_a, failed_b = sum(a["failed"]), sum(b["failed"])
        rows.append([name, "failed", str(failed_a), str(failed_b), "", "", "0",
                     "regression" if failed_b > failed_a else "ok"])
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    doc_a, doc_b = (json.loads(Path(path).read_text()) for path in argv)
    problems: List[str] = []
    cpus = [doc["fingerprint"]["cpu_count"] for doc in (doc_a, doc_b)]
    if cpus[0] != cpus[1]:
        problems.append(f"cpu_count differs: {cpus[0]} vs {cpus[1]}")
    for label, doc in (("A", doc_a), ("B", doc_b)):
        if not doc.get("comparable"):
            problems.append(f"{label} is a smoke run (comparable=false)")
    rows = compare(doc_a, doc_b)
    header = ["workload", "metric", "A median", "B median", "B worse by",
              "spread", "bound", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    counts = {verdict: sum(1 for row in rows if row[-1] == verdict)
              for verdict in ("ok", "unresolved", "regression")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regression']} regression")
    for problem in problems:
        print(f"not comparable: {problem}")
    return 1 if counts["regression"] or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
