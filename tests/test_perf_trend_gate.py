"""The perf-ledger gate: ``check_perf_trend.py COMMITTED FRESH``.

Every committed ``BENCH_*.json`` carries its own rules in a ``gate``
list.  The gate refuses a committed ledger whose gated value is absent,
null or empty (exit 1, ``BASELINE INVALID``), fails a fresh run that
drifts from an ``exact`` value or falls under a ``higher`` rule's bound
or floor (exit 1), and passes otherwise.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "check_perf_trend.py"
LEDGERS = ("simspeed", "traffic", "resilience", "datalayout", "attrib")

spec = importlib.util.spec_from_file_location("check_perf_trend", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def committed_ledger(name):
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


def rules_of(name):
    return committed_ledger(name)["gate"]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def check(tmp_path, committed, fresh):
    """The gate's exit status on one (committed, fresh) pair."""
    return gate.main(
        [
            write_json(tmp_path / "committed.json", committed),
            write_json(tmp_path / "fresh.json", fresh),
        ]
    )


def set_path(ledger, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        ledger = ledger[key]
    ledger[leaf] = value


def bumped(value):
    """``value`` with its first numeric leaf moved by one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (int, float, dict, list)):
                return {**value, key: bumped(item)}
    if isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, (int, float, dict, list)):
                return value[:i] + [bumped(item)] + value[i + 1 :]
    raise AssertionError(f"no numeric leaf in {value!r}")


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


def grid_ledger(grid):
    return {
        "grid": grid,
        "best_cells_below_floor": max(grid["cells_below_floor"].values()),
        "gate": rules_of("datalayout"),
    }


class TestMissingFields:
    """A rule's committed value must be present, not null, not empty."""

    RULES = [{"path": "kernel.a"}, {"path": "kernel.b"}, {"path": "kernel.c"}]

    def test_absent_section_returns_none(self, tmp_path, capsys):
        assert gate.lookup({}, "kernel.a") is None
        assert check(tmp_path, {"gate": self.RULES[:1]}, {}) == 1
        assert "kernel.a: no committed value" in capsys.readouterr().err

    def test_present_section_reports_nulls(self, tmp_path, capsys):
        committed = {"kernel": {"a": 1.0, "b": None}, "gate": self.RULES}
        assert check(tmp_path, committed, committed) == 1
        err = capsys.readouterr().err
        assert "kernel.b: no committed value" in err
        assert "kernel.c: no committed value" in err
        assert "kernel.a" not in err

    def test_null_section_body_reports_everything(self, tmp_path, capsys):
        committed = {"kernel": None, "gate": self.RULES[:1]}
        assert check(tmp_path, committed, {}) == 1
        assert "kernel.a: no committed value" in capsys.readouterr().err


class TestSectionAbsentVsNull:
    """An absent section and a null field are both invalid baselines."""

    def test_absent_streaming_section_is_invalid(self, tmp_path, capsys):
        cell = {"hit_rates": {"spec": "cell", "schemes": {"lru": 0.5}}}
        committed = {**cell, "gate": rules_of("traffic")}
        assert check(tmp_path, committed, cell) == 1
        err = capsys.readouterr().err
        assert "BASELINE INVALID" in err
        assert "streaming.streaming_speedup_vs_naive: no committed value" in err

    def test_null_enforced_field_fails(self, tmp_path, capsys):
        committed = committed_ledger("traffic")
        committed["streaming"]["streaming_speedup_vs_naive"] = None
        assert check(tmp_path, committed, {}) == 1
        assert "BASELINE INVALID" in capsys.readouterr().err

    def test_end_to_end_absent_section_is_invalid(self, tmp_path, capsys):
        fresh = {"smoke_end_to_end": {"speedup_vs_reference": 100.0}}
        assert check(tmp_path, {"gate": rules_of("simspeed")}, fresh) == 1
        err = capsys.readouterr().err
        assert "BASELINE INVALID" in err
        assert "end_to_end.fast_seconds: no committed value" in err


class TestDatalayoutGate:
    def test_identical_grid_passes(self, tmp_path, capsys):
        committed = grid_ledger(grid_payload())
        assert check(tmp_path, committed, {"engine": "fast", **committed}) == 0
        assert "perf ledger OK" in capsys.readouterr().out

    def test_grid_drift_fails(self, tmp_path, capsys):
        drifted = grid_payload()
        drifted["cells"][0]["steady_stalls"] += 1
        fresh = {"engine": "fast", **grid_ledger(drifted)}
        assert check(tmp_path, grid_ledger(grid_payload()), fresh) == 1
        assert "grid.cells[0].steady_stalls: 594 -> 595" in capsys.readouterr().err

    def test_floor_failure_fails_even_with_identity(self, tmp_path, capsys):
        grid = grid_payload()
        grid["cells_below_floor"] = {"coalesce": 5, "stream": 2}
        committed = grid_ledger(grid)
        assert check(tmp_path, committed, {"engine": "fast", **committed}) == 1
        err = capsys.readouterr().err
        assert "FAIL best_cells_below_floor: higher, 5 < 6" in err
        assert "FAIL grid:" not in err

    def test_absent_grid_section_is_invalid(self, tmp_path, capsys):
        fresh = {"engine": "fast", **grid_ledger(grid_payload())}
        assert check(tmp_path, {"gate": rules_of("datalayout")}, fresh) == 1
        assert "grid: no committed value" in capsys.readouterr().err

    def test_empty_grid_fields_are_invalid_not_skipped(self, tmp_path, capsys):
        committed = {
            "grid": {"wb_floor": {}, "cells_below_floor": {}, "cells": []},
            "best_cells_below_floor": 12,
            "gate": rules_of("datalayout"),
        }
        fresh = {"engine": "fast", **grid_ledger(grid_payload())}
        assert check(tmp_path, committed, fresh) == 1
        err = capsys.readouterr().err
        assert "BASELINE INVALID" in err
        for name in ("wb_floor", "cells_below_floor", "cells"):
            assert f"grid.{name}: no committed value" in err


class TestRules:
    def test_ratio_at_its_bound_passes_and_below_fails(self, tmp_path):
        rule = {"path": "r", "better": "higher", "bound": 0.5, "floor": 10}
        committed = {"r": 75.5, "gate": [rule]}
        # max(10, 0.5 x 75.5): the recorded lead, halved, binds
        assert check(tmp_path, committed, {"r": 37.75}) == 0
        assert check(tmp_path, committed, {"r": 37.7}) == 1
        # the absolute floor binds once half the recorded lead is below it
        committed["r"] = 12.0
        assert check(tmp_path, committed, {"r": 10}) == 0
        assert check(tmp_path, committed, {"r": 9.9}) == 1

    def test_fresh_run_without_the_value_fails(self, tmp_path, capsys):
        rule = {"path": "r", "better": "higher", "bound": 0.2}
        committed = {"r": 3.5, "gate": [rule]}
        assert check(tmp_path, committed, {}) == 1
        assert "the fresh run records no value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rules",
        [
            [],
            [{"better": "exact"}],
            [{"path": "r", "better": "lower", "bound": 0.2}],
            [{"path": "r", "better": "higher"}],
            [{"path": "spec", "better": "higher", "bound": 0.2}],
        ],
        ids=["empty", "no-path", "unknown-kind", "unbounded", "non-number"],
    )
    def test_malformed_rules_are_invalid(self, tmp_path, capsys, rules):
        committed = {"r": 1.0, "spec": {"seed": 0}, "gate": rules}
        assert check(tmp_path, committed, committed) == 1
        assert "BASELINE INVALID" in capsys.readouterr().err


class TestCommittedLedgers:
    @pytest.mark.parametrize("name", LEDGERS)
    def test_holds_against_itself_and_fails_each_mutation(self, tmp_path, name):
        committed = committed_ledger(name)
        assert check(tmp_path, committed, committed) == 0
        for rule in committed["gate"]:
            path, better = rule["path"], rule.get("better")
            if better == "exact":
                fresh = copy.deepcopy(committed)
                set_path(fresh, path, bumped(gate.lookup(committed, path)))
                assert check(tmp_path, committed, fresh) == 1, path
            if better == "higher":
                limit = gate.limit(rule, gate.lookup(committed, path))
                for delta, status in ((-1e-6, 1), (1e-6, 0)):
                    fresh = copy.deepcopy(committed)
                    set_path(fresh, path, limit + delta)
                    assert check(tmp_path, committed, fresh) == status, path
            nulled = copy.deepcopy(committed)
            set_path(nulled, path, None)
            assert check(tmp_path, nulled, committed) == 1, path

    @pytest.mark.parametrize("name", LEDGERS)
    def test_gate_matches_the_bench_script(self, name):
        script = REPO / "benchmarks" / f"bench_{name}.py"
        spec = importlib.util.spec_from_file_location(f"bench_{name}", script)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert rules_of(name) == bench.GATE

    def test_datalayout_floor_is_the_best_technique(self):
        ledger = committed_ledger("datalayout")
        best = max(ledger["grid"]["cells_below_floor"].values())
        assert ledger["best_cells_below_floor"] == best >= 6
        assert len(ledger["grid"]["cells"]) == 72  # 6 techniques x 12 cells


class TestNothingToCheck:
    def test_no_inputs_is_a_usage_error(self):
        for argv in ([], ["BENCH_traffic.json"]):
            with pytest.raises(SystemExit) as exc:
                gate.main(argv)
            assert exc.value.code == 2
