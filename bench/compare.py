"""``python3 -m bench.compare A.json B.json`` — the A/B rule.

Reads two full records (``python3 -m bench --out``), A the parent and B
the change, and prints one row per (workload, metric) with both medians
and B's ratio to its base A.  Each metric is judged by its own direction
and bound.  Metrics that repeat bit for bit under one seed are exact:
any difference is a change, in whichever direction.  A wall-clock pair
whose samples (repetitions, or the rounds of a single repetition) spread
wider than the bound, with the two min/max ranges overlapping, is
"unresolved" — neither unchanged nor regressed nor improved; more runs
have to settle it.  Exit 0 only if nothing regressed.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from .schema import EXACT, workload_metrics

Row = Tuple[str, str, float, float, float, str]


def verdict(name: str, better: str, bound: float, a: Dict[str, float], b: Dict[str, float]) -> str:
    """``same`` / ``better`` / ``REGRESSED`` / ``unresolved`` for one pair."""
    lower = better == "lower"
    if name in EXACT:
        if b["value"] == a["value"]:
            return "same"
        return "better (exact)" if (b["value"] < a["value"]) == lower else "REGRESSED (exact)"
    base = a["value"]
    # Either side's own samples spread wider than the bound and the two
    # ranges overlap: the pair says nothing in either direction.
    wide = base and max(a["max"] - a["min"], b["max"] - b["min"]) / base > bound
    if wide and a["min"] <= b["max"] and b["min"] <= a["max"]:
        return "unresolved"
    # Positive = B is worse, as a share of its base A.
    change = (b["value"] - base) / base if base else 0.0
    if not lower:
        change = -change
    if change > bound:
        return "REGRESSED"
    return "better" if change < -bound else "same"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Row]:
    rows: List[Row] = []
    for workload, record_a in a["workloads"].items():  # type: ignore[union-attr]
        record_b = b["workloads"].get(workload)  # type: ignore[union-attr]
        if record_b is None:
            rows.append((workload, "(workload)", 0.0, 0.0, 0.0, "REGRESSED (missing in B)"))
            continue
        for name, (__, better, bound) in workload_metrics(workload).items():
            entry_a = record_a["metrics"].get(name)
            entry_b = record_b["metrics"].get(name)
            if entry_a is None and entry_b is None:
                continue
            if entry_a is None or entry_b is None:
                rows.append((workload, name, 0.0, 0.0, 0.0, "REGRESSED (missing on one side)"))
                continue
            ratio = entry_b["value"] / entry_a["value"] if entry_a["value"] else 0.0
            rows.append(
                (workload, name, entry_a["value"], entry_b["value"], ratio,
                 verdict(name, better, bound, entry_a, entry_b))
            )
        for side, record in (("A", record_a), ("B", record_b)):
            if not record["correct"] or record["failed"]:
                rows.append((workload, f"(checks of {side})", 0.0, 0.0, 0.0,
                             f"REGRESSED ({record['failed']} failed ops, {len(record['errors'])} errors)"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    with open(args[0]) as fa, open(args[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(f"{'workload':<16}{'metric':<24}{'A (base)':>14}{'B':>14}{'B/A':>9}  verdict")
    for workload, name, value_a, value_b, ratio, outcome in rows:
        print(f"{workload:<16}{name:<24}{value_a:>14.4f}{value_b:>14.4f}{ratio:>9.4f}  {outcome}")
    regressed = [row for row in rows if row[5].startswith("REGRESSED")]
    unresolved = [row for row in rows if row[5] == "unresolved"]
    print(f"\n{len(rows)} rows, {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
