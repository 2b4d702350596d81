"""Run the benchmark suite: four study workloads, end to end.

    python3 benchmarks/suite/run.py --seed 0                      # all four
    python3 benchmarks/suite/run.py --workload stream-zipf --seed 3 \\
        --seconds 28 --trace 1                                    # per-layer

Each repetition ("rep") runs in a fresh child process (``child.py``),
one at a time: a closed loop with one client.  The child's environment
has every ``REPRO_*`` variable removed (the default engine is what is
measured), one BLAS/OpenMP thread, and a fixed hash seed.  Reps repeat
until ``--seconds`` is spent (at least three; one untraced+traced pair
with ``--trace 1``); ``--seconds`` and the 140 s after which no rep
starts count from the start of the invocation, shared equally by the
workloads it runs.  A rep fails if it raises, if a study's
``check()`` finds anything, if it reports a degradation or divergence,
or if its output digest differs from the committed one (seeds with a
file under ``expected/``) or from the run's first rep (other seeds).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (reps) and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``).  The
exit code is 0 only when every rep passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import digest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
EXPECTED_DIR = SUITE / "expected"

MIN_REPS = 3
#: no rep starts once the whole invocation has spent this long ...
HARD_LIMIT_S = 140.0
#: ... and no child outlives this point (an invocation ends within 180 s)
KILL_LIMIT_S = 170.0


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_names(bench: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in bench["workloads"]]


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


def run_child(job: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """One child process; its JSON report, or ``{"error": ...}``."""
    try:
        proc = subprocess.run(
            [sys.executable, str(SUITE / "child.py"), json.dumps(job)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    if not job.get("execute", True):
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Expected:
    """The committed digests of one (scale, seed), or none."""

    def __init__(self, directory: Path, scale: str, seed: int) -> None:
        self.path = directory / f"{scale}-seed{seed}.json"
        self.workloads: Dict[str, Any] = {}
        if self.path.is_file():
            with open(self.path) as fh:
                self.workloads = json.load(fh)["workloads"]

    def get(self, workload: str) -> Optional[Dict[str, Any]]:
        return self.workloads.get(workload)

    def write(self, workload: str, output: Any) -> None:
        stripped = digest.strip_engine(output)
        self.workloads[workload] = {
            "sha256": digest.sha256(stripped),
            "output": stripped,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as fh:
            json.dump({"workloads": self.workloads}, fh, indent=1, sort_keys=True)
            fh.write("\n")


def check_rep(
    rep: Dict[str, Any], reference: Dict[str, Any], label: str
) -> Optional[str]:
    """Why the rep failed, or None.  ``reference`` holds the expected
    ``sha256``/``output`` and is filled from the first rep if empty."""
    if "error" in rep:
        return rep["error"]
    if rep["problems"]:
        return "check() findings: " + "; ".join(rep["problems"][:3])
    if digest.is_degraded(rep["output"]):
        return "the run reports a degradation or divergence"
    if rep["items"] < 1:
        return "no items measured"
    output = digest.strip_engine(rep["output"])
    sha = digest.sha256(output)
    if not reference:
        reference.update(sha256=sha, output=output)
    elif sha != reference["sha256"]:
        path = digest.first_difference(reference["output"], output)
        if path is None:
            path = "$ (the expected record's sha256 does not match its output)"
        return f"{label}: output digest mismatch, first differing path {path}"
    return None


class Clock:
    """The invocation's time, shared by every workload it runs."""

    def __init__(self) -> None:
        self.begin = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.begin

    def child_timeout(self) -> float:
        return KILL_LIMIT_S - self.elapsed()


def measure(
    name: str,
    seed: int,
    scale: str,
    until: float,
    trace: bool,
    expected: Expected,
    write_expected: bool,
    clock: Clock,
) -> Dict[str, Any]:
    """All reps of one workload, started until the invocation has run
    ``until`` seconds; the run record ``--save`` stores."""
    job = {"workload": name, "seed": seed, "scale": scale, "trace": False}
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "reps": [],
        "messages": [],
    }
    if clock.elapsed() > HARD_LIMIT_S:
        record["messages"].append(f"no rep started: past {HARD_LIMIT_S:.0f} s")
        record["attempted"] = record["failed"] = 1
        return record
    warm = run_child({**job, "execute": False}, clock.child_timeout())
    if "error" in warm:
        record["messages"].append(f"set-up failed: {warm['error']}")
        record["attempted"] = record["failed"] = 1
        return record
    reference: Dict[str, Any] = {}
    committed = None if write_expected else expected.get(name)
    if committed is not None:
        reference.update(committed)
    label = f"{name} seed {seed}"
    rounds: List[float] = []
    while True:
        started = time.monotonic()
        for traced in (False, True) if trace else (False,):
            rep = run_child({**job, "trace": traced}, clock.child_timeout())
            problem = check_rep(rep, reference, label)
            entry: Dict[str, Any] = {"traced": traced, "ok": problem is None}
            if problem is not None:
                record["messages"].append(f"rep {len(record['reps'])}: {problem}")
            else:
                entry.update(
                    items_per_s=rep["items"] / rep["ref_s"],
                    setup_s=rep["setup_s"],
                    peak_rss_mb=rep["maxrss_kb"] / 1024.0,
                    wall_s=rep["wall_s"],
                    ref_s=rep["ref_s"],
                    setup_wall_s=rep["setup_wall_s"],
                )
                if traced:
                    entry["layers"] = rep["layers"]
                    entry["missing"] = rep["missing"]
                    record.setdefault("spans", rep["spans"])
            record["reps"].append(entry)
        rounds.append(time.monotonic() - started)
        elapsed = clock.elapsed()
        typical = statistics.median(rounds)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(rounds) >= (1 if trace else MIN_REPS) and elapsed + typical > until:
            break
    if write_expected and "output" in reference:
        expected.write(name, reference["output"])
    record["attempted"] = len(record["reps"])
    record["failed"] = sum(not r["ok"] for r in record["reps"])
    if trace:
        record["missing"] = sorted(
            {m for r in record["reps"] if r["ok"] and r["traced"] for m in r["missing"]}
        )
    return record


def summarize(record: Dict[str, Any], bench: Dict[str, Any]) -> Dict[str, Any]:
    """The run's metrics, by the names and units of ``BENCHMARK.json``."""
    plain = [r for r in record["reps"] if r["ok"] and not r["traced"]]
    traced = [r for r in record["reps"] if r["ok"] and r["traced"]]
    values: Dict[str, float] = {}
    if plain:
        values["items_per_s"] = statistics.median(r["items_per_s"] for r in plain)
        values["setup_s"] = statistics.median(r["setup_s"] for r in plain)
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in plain)
    if traced:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced)
        if plain:
            traced_ips = statistics.median(r["items_per_s"] for r in traced)
            values["trace.overhead_frac"] = values["items_per_s"] / traced_ips - 1.0
    section = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in section
    }


def report_lines(record: Dict[str, Any], metrics: Dict[str, Any]) -> List[str]:
    head = (
        f"{record['workload']} seed {record['seed']} ({record['scale']}): "
        f"{record['attempted']} reps, {record['failed']} failed"
    )
    lines = [head] + [f"  FAIL {m}" for m in record["messages"]]
    for name, metric in metrics.items():
        lines.append(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    for target in record.get("missing", []):
        lines.append(f"  missing hook: {target}")
    return lines


def parse_args(argv: List[str], bench: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(bench))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--save", type=Path, help="append the run records here")
    parser.add_argument("--expected", type=Path, default=EXPECTED_DIR)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record this run's outputs as the expected ones",
    )
    return parser.parse_args(argv)


def _stop(signum: int, frame: object) -> None:
    # unwinds through subprocess.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGTERM, _stop)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no package sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    args = parse_args(argv, bench)
    names = [args.workload] if args.workload else workload_names(bench)
    expected = Expected(args.expected, args.scale, args.seed)
    clock = Clock()
    records = []
    results = {}
    for i, name in enumerate(names):
        # --seconds is the whole invocation's: each workload gets an equal
        # share of what is left
        elapsed = clock.elapsed()
        share = max(args.seconds - elapsed, 0.0) / (len(names) - i)
        record = measure(
            name,
            args.seed,
            args.scale,
            elapsed + share,
            bool(args.trace),
            expected,
            args.write_expected,
            clock,
        )
        metrics = summarize(record, bench)
        print("\n".join(report_lines(record, metrics)), flush=True)
        record["metrics"] = {k: v["value"] for k, v in metrics.items()}
        records.append(record)
        results[name] = metrics
    if args.save is not None:
        saved = {"runs": []}
        if args.save.is_file():
            with open(args.save) as fh:
                saved = json.load(fh)
        saved["runs"].extend(records)
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1)
            fh.write("\n")
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in records),
                "failed": failed,
                "metrics": results[names[0]] if len(names) == 1 else results,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
