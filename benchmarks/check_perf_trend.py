#!/usr/bin/env python
"""Perf-ledger gate: check a fresh benchmark run against its committed ledger.

Each ``BENCH_*.json`` ledger at the repo root carries the rules that gate
it, as a ``"gate"`` list written by the bench script that produced it
(each script declares them as ``GATE``), so a rule and the number it
gates are committed together.  A rule reads one dotted ``path`` on both
sides and compares in the words of the repo benchmark (``BENCHMARK.json``):

* ``{"path": p}`` only requires the committed value;
* ``{"path": p, "better": "exact"}`` requires the fresh value to equal the
  committed one: deterministic sections (hit rates, the latency cell, the
  data-techniques grid, attribution cells) are counts, not timings;
* ``{"path": p, "better": "higher", "bound": b, "floor": f}`` requires the
  fresh value to reach both ``(1 - b) x committed`` and ``f`` (each when
  given): a same-host ratio may lose at most the fraction ``b`` of its
  recorded value, and never drop below the absolute ``f``.

Every rule's committed value must be present, not null and not empty: a
ledger missing one came from a run that skipped a measurement, and is
refused as invalid rather than silently weakening the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_traffic.py --smoke --output fresh.json
    python benchmarks/check_perf_trend.py BENCH_traffic.json fresh.json

Exits 0 when every rule holds, 1 on a regression or an invalid committed
ledger, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: the comparison kinds a rule may name; None is a presence-only rule
BETTER = (None, "exact", "higher")


def lookup(ledger: object, path: str) -> object:
    """The value at a dotted ``path``, or None where any key is absent."""
    value = ledger
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def absent(value: object) -> bool:
    return value is None or (isinstance(value, (dict, list, str)) and not value)


def ledger_problems(committed: dict) -> list:
    """Why the committed ledger cannot gate anything (empty when valid)."""
    rules = committed.get("gate")
    if not isinstance(rules, list) or not rules:
        return ["no 'gate' rule list"]
    problems = []
    for rule in rules:
        path = rule.get("path") if isinstance(rule, dict) else None
        if not isinstance(path, str):
            problems.append(f"rule {rule!r} names no path")
            continue
        better = rule.get("better")
        value = lookup(committed, path)
        if better not in BETTER:
            problems.append(f"{path}: unknown kind better={better!r}")
        elif absent(value):
            problems.append(f"{path}: no committed value")
        elif better == "higher" and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            problems.append(f"{path}: higher needs a number, not {value!r}")
        elif better == "higher" and "bound" not in rule and "floor" not in rule:
            problems.append(f"{path}: higher needs a bound or a floor")
    return problems


def limit(rule: dict, recorded: float) -> float:
    """The value a fresh run must reach under a higher rule."""
    limits = [rule["floor"]] if "floor" in rule else []
    if "bound" in rule:
        limits.append(recorded * (1 - rule["bound"]))
    return max(limits)


def brief(value: object, width: int = 80) -> str:
    text = json.dumps(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def first_difference(recorded: object, measured: object, path: str) -> str:
    """Where two unequal values first differ: ``path: committed -> fresh``."""
    if isinstance(recorded, dict) and isinstance(measured, dict):
        for key in {**recorded, **measured}:
            if (key in recorded) != (key in measured) or (
                recorded.get(key) != measured.get(key)
            ):
                return first_difference(
                    recorded.get(key), measured.get(key), f"{path}.{key}"
                )
    if (
        isinstance(recorded, list)
        and isinstance(measured, list)
        and len(recorded) == len(measured)
    ):
        for i, (a, b) in enumerate(zip(recorded, measured)):
            if a != b:
                return first_difference(a, b, f"{path}[{i}]")
    return f"{path}: {brief(recorded)} -> {brief(measured)}"


def judge(rule: dict, recorded: object, measured: object) -> "tuple[bool, str]":
    """Whether one rule holds, and why, given its committed value."""
    better = rule.get("better")
    if better is None:
        return True, "committed"
    if measured is None:
        return False, f"{better}: the fresh run records no value"
    if better == "exact":
        if measured == recorded:
            return True, "exact"
        return False, "exact, drifted at " + first_difference(
            recorded, measured, rule["path"]
        )
    threshold = limit(rule, recorded)
    holds = measured >= threshold
    terms = ", ".join(
        f"{key} {rule[key]}" for key in ("bound", "floor") if key in rule
    )
    return holds, (
        f"higher, {measured} {'>=' if holds else '<'} {threshold:.4g} "
        f"(committed {recorded}, {terms})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("committed", help="the committed ledger, BENCH_<name>.json")
    parser.add_argument("fresh", help="a fresh run of the bench script that writes it")
    args = parser.parse_args(argv)
    committed = json.loads(pathlib.Path(args.committed).read_text())
    fresh = json.loads(pathlib.Path(args.fresh).read_text())

    problems = ledger_problems(committed)
    if problems:
        print(f"BASELINE INVALID: {args.committed}", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print(
            "  regenerate it with the bench script that writes it",
            file=sys.stderr,
        )
        return 1

    rules = committed["gate"]
    failed = 0
    print(f"{args.fresh} against {args.committed}, {len(rules)} rules:")
    for rule in rules:
        path = rule["path"]
        holds, detail = judge(rule, lookup(committed, path), lookup(fresh, path))
        failed += not holds
        print(
            f"  {'ok  ' if holds else 'FAIL'} {path}: {detail}",
            file=sys.stdout if holds else sys.stderr,
        )
    if failed:
        print(f"\nPERF LEDGER FAILED: {failed} of {len(rules)} rules", file=sys.stderr)
        return 1
    print(f"\nperf ledger OK: {len(rules)} rules hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
