"""Tests for the measurement driver and latency assembly."""

import pytest

from repro.api.settings import ENGINES, Settings
from repro.harness.configs import build_configured_program
from repro.harness.experiment import Experiment
from repro.harness.latency import CONTROLLER_ROUNDTRIP_US, LatencyModel


class TestResolveEngine:
    def test_explicit_argument_wins(self):
        env = {"REPRO_SIM_ENGINE": "reference"}
        assert Settings.from_env(env, engine="fast").engine == "fast"

    def test_env_var_is_honoured(self):
        env = {"REPRO_SIM_ENGINE": "reference"}
        assert Settings.from_env(env).engine == "reference"

    def test_default_is_fast(self):
        assert Settings.from_env({}).engine == "fast"

    def test_unknown_engine_fails_fast_listing_valid_ones(self):
        with pytest.raises(ValueError) as excinfo:
            Settings.from_env({}, engine="turbo")
        message = str(excinfo.value)
        assert "turbo" in message
        for engine in ENGINES:
            assert engine in message

    def test_unknown_env_value_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
        with pytest.raises(ValueError) as excinfo:
            Experiment("tcpip", "STD")
        assert "REPRO_SIM_ENGINE" in str(excinfo.value)


class TestLatencyModel:
    def test_tcpip_uses_symmetric_processing(self):
        model = LatencyModel("tcpip")
        rtt = model.roundtrip_us(50.0)
        assert rtt == pytest.approx(
            CONTROLLER_ROUNDTRIP_US + 100.0 + model.constant_us
        )

    def test_rpc_uses_fixed_server_reference(self):
        model = LatencyModel("rpc")
        rtt = model.roundtrip_us(60.0, server_processing_us=44.0)
        assert rtt == pytest.approx(
            CONTROLLER_ROUNDTRIP_US + 60.0 + 44.0 + model.constant_us
        )

    def test_adjustment_subtracts_controller_share(self):
        assert LatencyModel.adjusted_us(310.0) == pytest.approx(100.0)


class TestExperiment:
    def test_same_seed_reproduces_trace_length(self):
        exp = Experiment("tcpip", "STD")
        build = build_configured_program("tcpip", "STD", exp.opts)
        s1 = exp.run_sample(build, seed=5)
        s2 = exp.run_sample(build, seed=5)
        assert s1.trace_length == s2.trace_length
        assert s1.steady.cycles == s2.steady.cycles

    def test_different_seeds_vary_memory_behaviour(self):
        exp = Experiment("tcpip", "STD")
        build = build_configured_program("tcpip", "STD", exp.opts)
        cycles = {exp.run_sample(build, seed=s).steady.cycles
                  for s in (1, 2, 3, 4, 5)}
        assert len(cycles) > 1  # the allocator jitter shows up in timing

    def test_run_aggregates_samples(self):
        result = Experiment("tcpip", "STD").run(samples=3)
        assert len(result.samples) == 3
        assert result.mean_rtt_us > 0
        assert result.stdev_rtt_us >= 0
        rep = result.representative()
        assert rep in result.samples

    def test_event_stream_is_consistent_across_configs(self):
        """One functional run's events walk under every configuration."""
        lengths = {}
        for config in ("STD", "OUT", "CLO", "PIN", "ALL"):
            e = Experiment("tcpip", config)
            build = build_configured_program("tcpip", config, e.opts)
            lengths[config] = e.run_sample(build, seed=9).trace_length
        # outlining/cloning do not change the instruction count much;
        # path-inlining shortens it
        assert lengths["OUT"] == lengths["STD"]
        assert lengths["PIN"] < lengths["STD"]
        assert lengths["ALL"] <= lengths["PIN"]

    def test_unknown_stack_rejected(self):
        with pytest.raises(ValueError):
            Experiment("osi", "STD")

    def test_rpc_experiment_runs(self):
        result = Experiment("rpc", "STD",
                            server_processing_us=44.0).run(samples=2)
        assert result.mean_rtt_us > CONTROLLER_ROUNDTRIP_US


class TestProcessingDecomposition:
    def test_cpi_is_icpi_plus_mcpi(self):
        exp = Experiment("tcpip", "STD")
        build = build_configured_program("tcpip", "STD", exp.opts)
        s = exp.run_sample(build, seed=3)
        assert s.steady.cpi == pytest.approx(
            s.steady.icpi + s.steady.mcpi, rel=1e-9
        )

    def test_cold_and_steady_use_same_trace(self):
        exp = Experiment("tcpip", "STD")
        build = build_configured_program("tcpip", "STD", exp.opts)
        s = exp.run_sample(build, seed=3)
        assert s.cold.instructions == s.steady.instructions

    def test_steady_state_is_warmer_than_cold(self):
        exp = Experiment("tcpip", "STD")
        build = build_configured_program("tcpip", "STD", exp.opts)
        s = exp.run_sample(build, seed=3)
        assert (s.steady.memory.icache.misses
                <= s.cold.memory.icache.misses)
