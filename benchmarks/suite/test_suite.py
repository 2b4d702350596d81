"""Self-tests of the benchmark suite (not part of the tier-1 test paths).

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Every run here uses ``--scale tiny``, so all four workloads finish in
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

import compare
import digest
import hooks
import speed
from workloads import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
#: the fewest reps of every workload, each shrunk to seconds
TINY = ("--scale", "tiny", "--seconds", "0")


def run_suite(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/suite/run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Any]:
    save = tmp_path_factory.mktemp("traced") / "runs.json"
    proc = run_suite(*TINY, "--trace", "1", "--save", str(save))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {r["workload"]: r for r in json.loads(save.read_text())["runs"]}


@pytest.fixture(scope="module")
def expected_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    directory = tmp_path_factory.mktemp("expected")
    proc = run_suite(*TINY, "--expected", str(directory), "--write-expected")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return directory


def test_workload_registry_matches_benchmark_json() -> None:
    assert list(WORKLOADS) == NAMES


def test_every_hook_resolves_and_fires_on_its_workload(traced) -> None:
    for name in NAMES:
        assert traced[name]["missing"] == [], name
    designated = {w for h in hooks.HOOKS for w in h.fires_on}
    assert designated == set(NAMES)


def test_traced_run_reports_exactly_the_per_layer_metrics(traced) -> None:
    wanted = {m["name"] for m in BENCH["per_layer"]}
    for name in NAMES:
        assert set(traced[name]["metrics"]) == wanted


def test_self_times_never_exceed_rep_wall_time(traced) -> None:
    for name in NAMES:
        for rep in traced[name]["reps"]:
            if not rep["traced"]:
                continue
            own = [v for k, v in rep["layers"].items() if k.endswith("_s")]
            assert all(0.0 <= v <= rep["wall_s"] for v in own), name
            assert sum(own) <= rep["wall_s"] * 1.0001, name
            assert 0.0 < rep["layers"]["trace.coverage"] <= 1.0, name


def test_spans_nest_inside_their_parents(traced) -> None:
    for name in NAMES:
        spans = traced[name]["spans"]
        assert spans, name
        for _stem, start, end, parent in spans:
            assert start <= end
            if parent >= 0:
                p_start, p_end = spans[parent][1], spans[parent][2]
                assert p_start <= start and end <= p_end


def test_seed_changes_the_generated_specs() -> None:
    for workload in WORKLOADS.values():
        assert workload.make(0, "tiny") == workload.make(0, "tiny")
        assert workload.make(0, "tiny") != workload.make(1, "tiny")


def test_two_tiny_runs_produce_equal_digests(expected_dir: Path) -> None:
    # the first run recorded its outputs; a second process must match them
    proc = run_suite(*TINY, "--expected", str(expected_dir))
    assert proc.returncode == 0, proc.stdout
    assert last_json(proc)["correct"] is True
    recorded = json.loads((expected_dir / "tiny-seed0.json").read_text())
    assert set(recorded["workloads"]) == set(NAMES)


def _corrupt(source: Path, target: Path, sha_only: bool) -> None:
    target.mkdir()
    doc = json.loads((source / "tiny-seed0.json").read_text())
    entry = doc["workloads"]["stream-zipf"]
    if sha_only:
        entry["sha256"] = "0" * 64
    else:
        entry["output"]["points"][0]["novel_passes"] += 1
        entry["sha256"] = digest.sha256(entry["output"])
    (target / "tiny-seed0.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("sha_only", [False, True])
def test_corrupted_expected_digest_fails_naming_the_path(
    expected_dir: Path, tmp_path: Path, sha_only: bool
) -> None:
    corrupted = tmp_path / "expected"
    _corrupt(expected_dir, corrupted, sha_only)
    proc = run_suite(*TINY, "--workload", "stream-zipf", "--expected", str(corrupted))
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "stream-zipf seed 0" in proc.stdout
    path = "$ (the expected" if sha_only else "$.points[0].novel_passes"
    assert f"first differing path {path}" in proc.stdout


def test_first_difference_paths() -> None:
    a = {"x": [1, {"y": 2}], "z": 3}
    assert digest.first_difference(a, a) is None
    assert digest.first_difference(a, {"x": [1, {"y": 5}], "z": 3}) == "$.x[1].y"
    assert digest.first_difference(a, {"x": [1], "z": 3}) == "$.x[1]"
    assert digest.first_difference(a, {"x": [1, {"y": 2}]}) == "$.z"
    assert digest.sha256({"engine": "fast", "v": 1}) == digest.sha256({"v": 1})


def test_reference_seconds_scale_wall_time_by_the_sampled_speed() -> None:
    probe = speed.Probe()
    probe.stop()
    ref = speed.REFERENCE_S
    # half the region at full speed, half at half speed: mean speed 0.75;
    # the samples' own time is not the program's
    probe.samples = [ref, 2 * ref]
    assert probe.reference_seconds(1.0 + 3 * ref, 0, 2) == pytest.approx(0.75)
    # no sample inside: the last one before the region's end sets the speed
    assert probe.reference_seconds(1.0, 2, 2) == pytest.approx(0.5)
    assert probe.reference_seconds(1.0, 1, 1) == pytest.approx(1.0)


def test_runs_without_the_program_fail_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks/suite")
    proc = run_suite("--workload", "sweep-table4", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --------------------------------------------------------------------------- #
# compare.py on synthetic sets                                                #
# --------------------------------------------------------------------------- #


def _set(rates: List[float], failed: int = 0) -> Dict[str, Any]:
    """One saved set: a run per rate, the first with ``failed`` failures."""
    runs = [
        {
            "workload": "stream-zipf",
            "trace": False,
            "attempted": 3,
            "failed": failed if i == 0 else 0,
            "metrics": {"items_per_s": rate, "setup_s": 0.2, "peak_rss_mb": 40.0},
        }
        for i, rate in enumerate(rates)
    ]
    return {"runs": runs}


@pytest.mark.parametrize(
    "a, b, label",
    [
        ([100, 101, 99, 100, 102], [100, 99, 101, 100, 98], "unchanged"),
        ([100, 101, 99, 100, 102], [130, 131, 129, 130, 128], "improved"),
        ([100, 101, 99, 100, 102], [70, 71, 69, 70, 72], "regressed"),
        ([100, 60, 140, 80, 120], [70, 110, 50, 90, 130], "unresolved"),
        # wide spread, but every B run beats every A run
        ([40, 60, 80, 100, 50], [200, 240, 280, 300, 220], "improved"),
    ],
)
def test_compare_labels(a: List[float], b: List[float], label: str) -> None:
    table = compare.compare(_set(a), _set(b), BENCH)
    assert table["stream-zipf"]["items_per_s"]["label"] == label
    assert table["stream-zipf"]["setup_s"]["label"] == "unchanged"


def test_compare_flags_new_failures_and_exits_nonzero(tmp_path: Path) -> None:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_set([100.0, 101.0, 99.0])))
    b.write_text(json.dumps(_set([100.0, 101.0, 99.0], failed=1)))
    table = compare.compare(json.loads(a.read_text()), json.loads(b.read_text()), BENCH)
    assert table["stream-zipf"]["failed_frac"]["label"] == "regressed"
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
