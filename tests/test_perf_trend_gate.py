"""The perf-trend gate's baseline-auditing semantics.

Pins the distinction the gate script draws between two baseline states:

* a gated *section missing entirely* — the baseline predates the gate —
  is announced and skipped (exit 0), so new sections can be introduced
  without invalidating every historical baseline;
* a section *present but carrying nulls* in enforced fields — the
  baseline run attempted the measurement and lost data — stays a hard
  failure (exit 1).

Plus the datalayout gate: bit-for-bit grid identity and the
cells-below-floor acceptance.
"""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "check_perf_trend.py"

spec = importlib.util.spec_from_file_location("check_perf_trend", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def grid_payload():
    """A minimal valid datalayout grid passing floor and identity."""
    return {
        "seed": 42,
        "techniques": {},
        "wb_floor": {"tcpip": 990, "rpc": 1005},
        "cells_below_floor": {"coalesce": 12, "stream": 4},
        "cells": [
            {
                "stack": "tcpip",
                "config": "STD",
                "technique": "coalesce",
                "steady_stalls": 594,
            }
        ],
    }


class TestMissingFields:
    def test_absent_section_returns_none(self):
        assert gate.missing_fields({}, "kernel", ("a",)) is None

    def test_present_section_reports_nulls(self):
        baseline = {"kernel": {"a": 1.0, "b": None}}
        assert gate.missing_fields(baseline, "kernel", ("a", "b", "c")) == [
            "kernel.b",
            "kernel.c",
        ]

    def test_null_section_body_reports_everything(self):
        assert gate.missing_fields({"kernel": None}, "kernel", ("a",)) == [
            "kernel.a"
        ]


class TestSectionAbsentVsNull:
    """main() through the CLI: skip on absence, fail on nulls."""

    def test_absent_streaming_section_skips_and_passes(self, tmp_path, capsys):
        baseline = write_json(
            tmp_path / "baseline.json",
            {"hit_rates": {"spec": "cell", "schemes": {"lru": 0.5}}},
        )
        smoke = write_json(
            tmp_path / "smoke.json",
            {"hit_rates": {"spec": "cell", "schemes": {"lru": 0.5}}},
        )
        rc = gate.main(["--traffic", smoke, "--traffic-baseline", baseline])
        assert rc == 0
        assert "SECTION ABSENT" in capsys.readouterr().out

    def test_null_enforced_field_fails(self, tmp_path, capsys):
        streaming = {name: 1.0 for name in gate.REQUIRED_TRAFFIC_STREAMING}
        streaming["streaming_speedup_vs_naive"] = None
        baseline = write_json(
            tmp_path / "baseline.json", {"streaming": streaming}
        )
        smoke = write_json(tmp_path / "smoke.json", {})
        rc = gate.main(["--traffic", smoke, "--traffic-baseline", baseline])
        assert rc == 1
        assert "BASELINE INVALID" in capsys.readouterr().err

    def test_end_to_end_absent_section_skips(self, tmp_path, capsys):
        baseline = write_json(tmp_path / "baseline.json", {})
        smoke = write_json(
            tmp_path / "smoke.json",
            {"end_to_end": {"speedup_vs_reference": 100.0}},
        )
        rc = gate.main([smoke, "--baseline", baseline])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SECTION ABSENT" in out
        assert "perf trend OK" in out


class TestDatalayoutGate:
    def test_identical_grid_passes(self, tmp_path, capsys):
        grid = grid_payload()
        baseline = write_json(tmp_path / "baseline.json", {"grid": grid})
        fresh = write_json(
            tmp_path / "fresh.json", {"engine": "fast", "grid": grid}
        )
        rc = gate.main(
            ["--datalayout", fresh, "--datalayout-baseline", baseline]
        )
        assert rc == 0
        assert "grid identical" in capsys.readouterr().out

    def test_grid_drift_fails(self, tmp_path, capsys):
        baseline = write_json(
            tmp_path / "baseline.json", {"grid": grid_payload()}
        )
        drifted = grid_payload()
        drifted["cells"][0]["steady_stalls"] += 1
        fresh = write_json(
            tmp_path / "fresh.json", {"engine": "fast", "grid": drifted}
        )
        rc = gate.main(
            ["--datalayout", fresh, "--datalayout-baseline", baseline]
        )
        assert rc == 1
        assert "DATALAYOUT DRIFT" in capsys.readouterr().err

    def test_floor_failure_fails_even_with_identity(self, tmp_path, capsys):
        grid = grid_payload()
        grid["cells_below_floor"] = {"coalesce": 5, "stream": 2}
        baseline = write_json(tmp_path / "baseline.json", {"grid": grid})
        fresh = write_json(
            tmp_path / "fresh.json", {"engine": "fast", "grid": grid}
        )
        rc = gate.main(
            ["--datalayout", fresh, "--datalayout-baseline", baseline]
        )
        assert rc == 1
        assert "DATALAYOUT FLOOR" in capsys.readouterr().err

    def test_absent_grid_section_skips(self, tmp_path, capsys):
        baseline = write_json(tmp_path / "baseline.json", {})
        fresh = write_json(
            tmp_path / "fresh.json", {"engine": "fast", "grid": grid_payload()}
        )
        rc = gate.main(
            ["--datalayout", fresh, "--datalayout-baseline", baseline]
        )
        assert rc == 0
        assert "SECTION ABSENT" in capsys.readouterr().out

    def test_empty_grid_fields_are_invalid_not_skipped(self, tmp_path, capsys):
        baseline = write_json(
            tmp_path / "baseline.json",
            {"grid": {"wb_floor": {}, "cells_below_floor": {}, "cells": []}},
        )
        fresh = write_json(
            tmp_path / "fresh.json", {"engine": "fast", "grid": grid_payload()}
        )
        rc = gate.main(
            ["--datalayout", fresh, "--datalayout-baseline", baseline]
        )
        assert rc == 1
        assert "BASELINE INVALID" in capsys.readouterr().err

    def test_committed_baseline_is_valid_and_meets_the_floor(self):
        baseline = json.loads(
            (REPO / "BENCH_datalayout.json").read_text()
        )
        grid = baseline["grid"]
        assert max(grid["cells_below_floor"].values()) >= (
            gate.DATALAYOUT_CELL_FLOOR
        )
        assert len(grid["cells"]) == 72  # 6 techniques x 12 cells


class TestNothingToCheck:
    def test_no_inputs_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            gate.main([])
        assert exc.value.code == 2
