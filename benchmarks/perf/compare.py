"""Compare two benchmark result sets under the bounds in BENCHMARK.json.

    python benchmarks/perf/compare.py PARENT.json CHANGE.json

Both files are written by ``run.py --json``.  For every end-to-end metric
of every workload, the untraced runs of each side give a median and
quartiles.  Runs are paired in order; a pair is won when the change reads
better, and a tie counts for neither side.  The verdict:

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, unless every change run beats every parent run;
* ``regression`` — the change's median is worse by more than the bound;
* ``improved`` — the change wins at least 90% of the pairs and the medians
  differ by more than the parent's quartile distance;
* ``unchanged`` — otherwise.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_values(path: Path) -> dict:
    """``(workload, metric) -> [value, ...]`` over the untraced runs."""
    out: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        for metric, m in run["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(m["value"])
    return out


def verdict(parent, change, bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    worse_by = sign * (c_med - p_med) / p_med
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    elif won >= 0.9 and sign * (p_med - c_med) > p_q3 - p_q1:
        result = "improved"
    else:
        result = "unchanged"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "worse_by": worse_by,
        "spread": spread,
        "won": won,
        "verdict": result,
    }


def compare(parent_path: Path, change_path: Path, benchmark_path: Path) -> list:
    spec = json.loads(benchmark_path.read_text())
    parent, change = load_values(parent_path), load_values(change_path)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            v = verdict(
                parent[key], change[key], metric["bound"], metric["better"] == "lower"
            )
            rows.append({"workload": workload, "metric": metric["name"],
                         "bound": metric["bound"], **v})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    rows = compare(args.parent, args.change, args.benchmark)
    print(
        f"{'workload':16} {'metric':12} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'worse':>7} {'spread':>7} "
        f"{'bound':>6} {'won':>5}  verdict"
    )
    for r in rows:
        p_med, p_q1, p_q3 = r["parent"]
        c_med, c_q1, c_q3 = r["change"]
        print(
            f"{r['workload']:16} {r['metric']:12} "
            f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>30} "
            f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>30} "
            f"{r['worse_by']:>+7.1%} {r['spread']:>7.1%} {r['bound']:>6.0%} "
            f"{r['won']:>5.0%}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
