"""``python -m bench compare A.json B.json``: is B worse than A?

One row per workload x metric, under the issue's metric names and bounds
(:data:`bench.spec.DETAIL`); beside each row, the ``BENCHMARK.json`` slot the
value fills for the driver, if any.  Verdicts:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is (non-zero exit);
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound, so the comparison cannot tell (unless every run of B reads better
  than every run of A, which is ``ok``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from bench.spec import DETAIL, SLOT_SOURCE, Bound
from bench.stats import iqr_share


def load_runs(path: str) -> tuple[dict[str, dict[str, list[float]]], int, int]:
    """``workload -> metric -> values`` over every correct, valid run in a
    result file, and how many runs were left out as not correct and as
    invalid (load generator late)."""
    data = json.loads(Path(path).read_text())
    table: dict[str, dict[str, list[float]]] = {}
    incorrect = invalid = 0
    for run in data.get("runs", []):
        for name, outcome in run.get("workloads", {}).items():
            skipped = (
                "is not correct" if not outcome.get("correct")
                else "is marked invalid (load generator ran late)"
                if outcome.get("info", {}).get("loadgen_invalid") else ""
            )
            incorrect += not outcome.get("correct")
            invalid += bool(outcome.get("correct") and skipped)
            if skipped:
                print(f"warning: {path}: a {name} run {skipped} and is skipped",
                      file=sys.stderr)
                continue
            row = table.setdefault(name, {})
            for metric, entry in outcome["metrics"].items():
                row.setdefault(metric, []).append(float(entry["value"]))
    return table, incorrect, invalid


def judge(
    a: list[float], b: list[float], better: str, bound: Bound
) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)``: ``worse_by`` and ``spread`` are in
    the bound's own terms (share of A's median, or absolute)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a)

    def iqr(values: list[float]) -> float:
        if len(values) < 2:
            return 0.0
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return q3 - q1

    if bound.kind == "rel":
        worse = worse / abs(med_a) if med_a else (0.0 if worse == 0 else float("inf"))
        spreads = iqr_share(a), iqr_share(b)
    else:
        spreads = iqr(a), iqr(b)
    # "may not get worse at all" is judged against the baseline's own noise:
    # a baseline that never moves (failed_share 0 on a fault-free workload)
    # leaves B no spread to hide behind
    spread = spreads[0] if bound.value == 0 else max(spreads)
    if spread > bound.value:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if all_better else "unresolved"), worse, spread
    return ("regressed" if worse > bound.value else "ok"), worse, spread


def compare(path_a: str, path_b: str, stream: Any = None) -> int:
    stream = stream or sys.stdout
    (runs_a, wrong_a, late_a), (runs_b, wrong_b, late_b) = load_runs(path_a), load_runs(path_b)
    # a run that fails its correctness checks has no numbers to compare, so
    # more of them in B is itself a regression
    regressed = int(wrong_b > wrong_a)
    unresolved = 0
    print(f"runs left out: not correct A {wrong_a}, B {wrong_b}; "
          f"load generator late A {late_a}, B {late_b}", file=stream)
    print(f"{'workload':<16}{'metric':<24}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'spread':>9}{'bound':>9}  verdict (nA/nB)  slot", file=stream)
    for workload in sorted(set(runs_a) & set(runs_b)):
        slot_of = {source: slot for slot, (source, _f) in SLOT_SOURCE[workload].items()}
        for metric in sorted(set(runs_a[workload]) & set(runs_b[workload])):
            detail = DETAIL.get(metric)
            if detail is None:
                continue
            a, b = runs_a[workload][metric], runs_b[workload][metric]
            verdict, worse, spread = judge(a, b, detail.better, detail.bound)
            regressed += verdict == "regressed"
            unresolved += verdict == "unresolved"
            unit = "" if detail.bound.kind == "rel" else " abs"
            print(f"{workload:<16}{metric:<24}{statistics.median(a):>12.5g}"
                  f"{statistics.median(b):>12.5g}{worse:>10.3g}{spread:>9.3g}"
                  f"{detail.bound.value:>8.3g}{unit:<4} {verdict} ({len(a)}/{len(b)})"
                  f"  {slot_of.get(metric, '-')}", file=stream)
    print(f"{regressed} regressed, {unresolved} unresolved", file=stream)
    return 1 if regressed else 0
