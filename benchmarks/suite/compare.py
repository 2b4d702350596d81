"""Compare two saved sets of runs, metric by metric and workload by workload.

    python3 benchmarks/suite/compare.py A.json B.json [--json OUT.json]

``A.json`` and ``B.json`` are files written by ``run.py --save``; each
untraced run in them is one sample (its reported metric: the median
over its reps of ``items_per_s`` and ``setup_s``, the maximum over its
reps of ``peak_rss_mb``), so a set of several runs, e.g. one per seed,
measures the run-to-run spread.  For every (end-to-end metric, workload)
pair the bound in ``BENCHMARK.json`` decides the label:

* ``unresolved``: the spread (quartile distance over median, the wider of
  the two sides; 0 for a single run) exceeds the bound and not every run
  of one side beats every run of the other;
* ``regressed`` / ``improved``: B's median is worse / better than A's by
  more than the bound;
* ``unchanged``: otherwise.

The printed change is B's improvement over A (positive is better).
``failed_frac`` (failed reps over attempted reps, pooled over the runs)
has bound 0: any rise is a regression.  The table has one row per
workload; the exit code is 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]


def samples(saved: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """workload -> {metric: [values], "attempted": n, "failed": k}."""
    out: Dict[str, Dict[str, Any]] = {}
    for run in saved["runs"]:
        if run["trace"]:
            continue
        side = out.setdefault(run["workload"], {"attempted": 0, "failed": 0})
        side["attempted"] += run["attempted"]
        side["failed"] += run["failed"]
        for key, value in run["metrics"].items():
            side.setdefault(key, []).append(value)
    return out


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def spread(values: Sequence[float]) -> float:
    q1, q3 = _quartiles(values)
    return (q3 - q1) / statistics.median(values)


def judge(
    a: Sequence[float], b: Sequence[float], bound: float, better: str
) -> Dict[str, Any]:
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (mb - ma) / ma  # > 0: B is better
    width = max(spread(a), spread(b))
    separated = min(b) > max(a) or min(a) > max(b)
    if width > bound and not separated:
        label = "unresolved"
    elif change < -bound:
        label = "regressed"
    elif change > bound:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "label": label,
        "change": change,
        "spread": width,
        "a": {"median": ma, "quartiles": _quartiles(a), "n": len(a)},
        "b": {"median": mb, "quartiles": _quartiles(b), "n": len(b)},
    }


def compare(
    a: Dict[str, Any], b: Dict[str, Any], bench: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """workload -> metric -> judgement, for workloads in both sets."""
    sa, sb = samples(a), samples(b)
    table: Dict[str, Dict[str, Any]] = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in sa or workload not in sb:
            continue
        row: Dict[str, Any] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if sa[workload].get(name) and sb[workload].get(name):
                row[name] = judge(
                    sa[workload][name],
                    sb[workload][name],
                    metric["bound"],
                    metric["better"],
                )
        fa = sa[workload]["failed"] / sa[workload]["attempted"]
        fb = sb[workload]["failed"] / sb[workload]["attempted"]
        row["failed_frac"] = {
            "label": "regressed" if fb > fa else "unchanged",
            "a": fa,
            "b": fb,
        }
        table[workload] = row
    return table


def render(table: Dict[str, Dict[str, Any]]) -> str:
    metrics = list(next(iter(table.values()))) if table else []
    lines = [f"{'workload':20s}" + "".join(f" {m:>24s}" for m in metrics)]
    for workload, row in table.items():
        cells = []
        for m in metrics:
            cell = row[m]
            if "change" in cell:
                cells.append(f"{cell['label']} {cell['change']:+.1%}")
            else:
                cells.append(f"{cell['label']} {cell['a']:.2f}->{cell['b']:.2f}")
        lines.append(f"{workload:20s}" + "".join(f" {c:>24s}" for c in cells))
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--json", type=Path, help="write the judgements here")
    args = parser.parse_args(argv)
    loaded = []
    for path in (args.a, args.b, args.benchmark):
        with open(path) as fh:
            loaded.append(json.load(fh))
    table = compare(*loaded)
    print(render(table))
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")
    regressed = any(
        cell["label"] == "regressed" for row in table.values() for cell in row.values()
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
