"""Tests for the ``repro.api`` facade: specs, settings, and the verbs."""

import dataclasses
import pathlib

import pytest

from repro import api
from repro.api import (
    AnalyzeSpec,
    DatalayoutSpec,
    FaultsSpec,
    ProfileSpec,
    RunSpec,
    SearchSpec,
    Settings,
    SweepSpec,
    run,
    search,
    settings_for,
    sweep,
)
from repro.api.result import Result
from repro.api.settings import CHAOS_ENV, ENGINE_ENV, VERIFY_IR_ENV
from repro.faults.plan import FaultPlan
from repro.harness.experiment import Experiment, run_all_configs
from repro.harness.parallel import SweepReport
from repro.search.artifact import LayoutArtifact

#: a committed search artifact (tcpip CLO) to replay as a RunSpec layout
RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
SEARCH_SMOKE = RESULTS / "search_smoke_tcpip.json"


def _samples(result):
    return [
        (s.roundtrip_us, s.cold, s.steady, s.walk.length, len(s.faults))
        for s in result.samples
    ]


class TestRunSpec:
    def test_is_frozen(self):
        spec = RunSpec("tcpip", "STD")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.config = "CLO"

    def test_rejects_unknown_stack(self):
        with pytest.raises(ValueError, match="stack"):
            RunSpec("quic", "STD")

    def test_rejects_unknown_config(self):
        with pytest.raises(ValueError, match="configuration"):
            RunSpec("tcpip", "MAX")

    def test_with_config_copies(self):
        spec = RunSpec("rpc", "STD", samples=2)
        sibling = spec.with_config("CLO")
        assert sibling.config == "CLO"
        assert sibling.stack == "rpc"
        assert sibling.samples == 2
        assert spec.config == "STD"

    def test_equality_ignores_layout_and_fault_plan(self):
        a = RunSpec("tcpip", "STD")
        b = RunSpec("tcpip", "STD", layout=lambda p: {})
        assert a == b


class TestSettings:
    def test_from_env_reads_all_three_variables(self):
        env = {
            ENGINE_ENV: "reference",
            VERIFY_IR_ENV: "1",
            CHAOS_ENV: "crash:STD:0",
        }
        settings = Settings.from_env(env)
        assert settings.engine == "reference"
        assert settings.verify_ir is True
        assert len(settings.chaos) == 1
        assert settings.chaos[0].kind == "crash"

    def test_explicit_arguments_beat_the_environment(self):
        env = {ENGINE_ENV: "reference", VERIFY_IR_ENV: "1"}
        settings = Settings.from_env(env, engine="fast", verify_ir=False)
        assert settings.engine == "fast"
        assert settings.verify_ir is False

    def test_defaults(self):
        settings = Settings.from_env({})
        assert settings == Settings()
        assert settings.engine == "fast"
        assert settings.verify_ir is False
        assert settings.chaos == ()

    def test_unknown_engine_fails_fast(self):
        with pytest.raises(ValueError, match="turbo"):
            Settings(engine="turbo")
        with pytest.raises(ValueError, match="warp"):
            Settings.from_env({ENGINE_ENV: "warp"})

    def test_with_engine_override(self):
        settings = Settings(engine="fast")
        assert settings.with_engine(None) is settings
        assert settings.with_engine("reference").engine == "reference"

    def test_settings_for_spec_engine_wins(self):
        spec = RunSpec("tcpip", "STD", engine="reference")
        assert settings_for(spec, Settings(engine="fast")).engine == "reference"
        plain = RunSpec("tcpip", "STD")
        assert settings_for(plain, Settings(engine="fast")).engine == "fast"

    def test_experiment_reads_environment_once_through_settings(
        self, monkeypatch
    ):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        exp = Experiment("tcpip", "STD")
        assert exp.settings.engine == "reference"
        assert exp.engine == "reference"
        # explicit settings suppress the environment entirely
        monkeypatch.setenv(ENGINE_ENV, "warp")
        exp = Experiment("tcpip", "STD", settings=Settings(engine="fast"))
        assert exp.engine == "fast"


class TestRun:
    @pytest.mark.parametrize("stack", ["tcpip", "rpc"])
    def test_bit_identical_to_legacy_experiment(self, stack):
        """The golden gate: the facade is the Experiment path, exactly."""
        spec = RunSpec(stack, "STD", samples=1)
        facade = run(spec)
        legacy = Experiment(stack, "STD").run(samples=1)
        assert facade.samples[0].steady.mcpi == legacy.samples[0].steady.mcpi
        assert (
            facade.samples[0].cold.memory.icache.misses
            == legacy.samples[0].cold.memory.icache.misses
        )
        assert facade.mean_rtt_us == legacy.mean_rtt_us

    def test_layout_override_changes_the_program(self):
        from repro.search import search_cell

        found = search_cell("tcpip", "CLO", budget=8, seed=0)
        default = run(RunSpec("tcpip", "CLO", samples=1))
        relaid = run(
            RunSpec("tcpip", "CLO", samples=1, layout=found.artifact)
        )
        assert (
            relaid.samples[0].steady.mcpi
            == found.artifact.score["steady_mcpi"]
        )
        assert (
            relaid.samples[0].steady.mcpi <= default.samples[0].steady.mcpi
        )

    def test_bad_layout_type_rejected(self):
        with pytest.raises(TypeError, match="layout"):
            run(RunSpec("tcpip", "STD", samples=1, layout=42))


class TestSweep:
    def test_plain_sweep_matches_run_all_configs(self):
        configs = ("STD", "OUT")
        specs = [RunSpec("tcpip", c, samples=1) for c in configs]
        facade = sweep(SweepSpec(runs=specs, parallel=False))
        legacy = run_all_configs(
            "tcpip", configs, samples=1, parallel=False
        )
        for spec, result in zip(specs, facade):
            assert (
                result.samples[0].steady.mcpi
                == legacy[spec.config].samples[0].steady.mcpi
            )

    def test_result_order_follows_spec_order(self):
        specs = [RunSpec("tcpip", c, samples=1) for c in ("OUT", "STD")]
        results = sweep(SweepSpec(runs=specs, parallel=False))
        assert results[0].config == "OUT"
        assert results[1].config == "STD"

    def test_heterogeneous_specs_fall_back_to_per_spec_runs(self):
        specs = [
            RunSpec("tcpip", "STD", samples=1, seed=7),
            RunSpec("tcpip", "OUT", samples=1, seed=7),
        ]
        results = sweep(specs)
        legacy = Experiment("tcpip", "STD", base_seed=7).run(samples=1)
        assert (
            results[0].samples[0].steady.mcpi
            == legacy.samples[0].steady.mcpi
        )

    def test_empty_sweep(self):
        assert sweep([]) == []

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("seed", [42, 43])
    def test_rpc_sweep_equals_run_per_spec(self, seed, parallel):
        # a sweep adds nothing to its specs: no server reference, no
        # seed-dependent routing (the paper's ALL-server recipe lives in
        # run_all_configs, which states it as server_processing_us)
        specs = [RunSpec("rpc", c, samples=2, seed=seed) for c in ("STD", "ALL")]
        report = SweepReport()
        sweep_spec = SweepSpec(specs, parallel=parallel, max_workers=2)
        swept = sweep(sweep_spec, report=report)
        assert [_samples(r) for r in swept] == [_samples(run(s)) for s in specs]
        assert report.completed == 4
        assert report.completed_serial == (0 if parallel else 4)
        pooled = all(s.events == [] for r in swept for s in r.samples)
        assert pooled == parallel

    def test_pooled_sweep_equals_run_on_heterogeneous_specs(self):
        artifact = LayoutArtifact.load(SEARCH_SMOKE)
        plan = FaultPlan("tcpip", rate=0.5, seed=3)
        specs = (
            RunSpec("tcpip", "CLO", samples=2, layout=artifact),
            RunSpec("rpc", "OUT", samples=1, seed=7, verify_ir=True),
            RunSpec("tcpip", "STD", samples=2, seed=43, fault_plan=plan),
            RunSpec("tcpip", "STD", samples=3, engine="fast", guard_stride=2),
            RunSpec("tcpip", "OUT", samples=1, engine="reference"),
        )
        report = SweepReport()
        swept = sweep(SweepSpec(specs, parallel=True, max_workers=2), report=report)
        assert [r.config for r in swept] == [s.config for s in specs]
        assert [_samples(r) for r in swept] == [_samples(run(s)) for s in specs]
        assert swept[2].total_faults > 0
        assert report.stack == "tcpip+rpc"
        assert report.configs == ("CLO", "OUT", "STD", "STD", "OUT")
        assert report.completed == 9 and not report.divergences


class TestSearchVerb:
    def test_search_returns_replayable_artifact(self):
        spec = SearchSpec(RunSpec("rpc", "STD", samples=1), budget=6, seed=0)
        result = api.search(spec)
        assert result.best_score <= result.baseline_score
        replay = run(
            RunSpec("rpc", "STD", samples=1, layout=result.artifact)
        )
        assert (
            replay.samples[0].steady.mcpi
            == result.artifact.score["steady_mcpi"]
        )

    def test_search_is_deterministic_through_the_facade(self):
        spec = SearchSpec(RunSpec("tcpip", "STD"), budget=4, seed=2)
        a = search(spec)
        b = search(spec)
        assert a.best_score == b.best_score
        assert a.artifact.placements == b.artifact.placements


class TestResultProtocol:
    """Every verb returns a Result: to_json() + render() + check()."""

    def test_run_result_conforms(self):
        result = run(RunSpec("tcpip", "STD", samples=1))
        assert isinstance(result, Result)
        assert result.check() == []
        assert "tcpip/STD" in result.render()
        assert result.to_json()["samples"] == 1

    def test_sweep_result_conforms_and_stays_a_list(self):
        results = sweep(SweepSpec(runs=(RunSpec("tcpip", "STD", samples=1),)))
        assert isinstance(results, Result)
        assert isinstance(results, list)  # legacy indexing callers survive
        assert results.check() == []
        assert len(results.to_json()) == 1

    def test_analyze_result_conforms(self):
        report = api.analyze(AnalyzeSpec(RunSpec("tcpip", "STD")))
        assert isinstance(report, Result)
        assert report.check() == [] and report.ok

    def test_search_result_conforms(self):
        result = search(SearchSpec(RunSpec("tcpip", "STD"), budget=4, seed=0))
        assert isinstance(result, Result)
        assert result.check() == []
        assert result.render() == result.summary()

    def test_profile_result_conforms(self):
        cell = api.profile(ProfileSpec("tcpip", "STD"))
        assert isinstance(cell, Result)
        assert cell.check() == []
        assert "steady state" in cell.render()

    def test_faults_result_conforms(self):
        study = api.faults(
            FaultsSpec("tcpip", configs=("STD",), rate=0.25, samples=1)
        )
        assert isinstance(study, Result)
        assert study.check() == []
        assert study.to_json()["rows"]["STD"]

    def test_datalayout_result_conforms(self):
        study = api.datalayout(
            DatalayoutSpec(
                techniques=("coalesce",), stacks=("tcpip",), configs=("STD",)
            )
        )
        assert isinstance(study, Result)
        assert study.check() == []
        assert study.cell("tcpip", "STD", "coalesce").bounds_sound

    def test_traffic_result_conforms(self):
        from repro.api import TrafficStudySpec
        from repro.traffic import TrafficSpec

        small = TrafficSpec(packets=2_000, flows=50, warmup_packets=200)
        study = api.traffic(
            TrafficStudySpec(traffic=small, schemes=("one-entry",))
        )
        assert isinstance(study, Result)
        assert study.check() == []
        assert study.point("one-entry", "zipf", 50)


class TestKwargShims:
    """A bare RunSpec is shorthand for the verb's spec with defaults."""

    def test_search_bare_runspec_with_defaults_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            search(RunSpec("tcpip", "STD"))
