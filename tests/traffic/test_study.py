"""The demux-cache study driver, the api verb, and the CLI."""

import json
import random

import pytest

from repro import api
from repro.harness.reporting import render_traffic_table
from repro.traffic import TrafficSpec, run_traffic_point, run_traffic_study
from repro.traffic.arrivals import SCAN, ArrivalSampler

#: small enough to keep the suite quick, big enough to exercise warm-up,
#: churn, and every segment variant
SMALL = TrafficSpec(packets=2_000, flows=200, warmup_packets=400, seed=0)


class TestRunTrafficPoint:
    @pytest.mark.parametrize("stack", ["tcpip", "rpc", "mixed"])
    def test_every_stack_streams(self, stack):
        point = run_traffic_point(SMALL.with_(stack=stack), "one-entry")
        assert point.packets == SMALL.packets
        assert point.instructions > 0
        assert 0 < point.steady_instructions < point.instructions
        assert point.stall_cycles > 0
        assert point.cpu_cycles > 0
        expected = {"tcpip": {"tcp"}, "rpc": {"rpc"}, "mixed": {"tcp", "rpc"}}
        assert set(point.map_stats) == expected[stack]
        assert 0.0 <= point.l4_hit_rate <= 1.0
        assert point.mcpi > 0
        assert point.steady_mcpi > 0

    def test_resolves_count_every_packet(self):
        point = run_traffic_point(SMALL, "one-entry")
        resolves = sum(
            layers["l4"]["resolves"] for layers in point.map_stats.values()
        )
        assert resolves == SMALL.packets

    def test_churn_tears_flows_down(self):
        churned = SMALL.with_(churn=0.02)
        point = run_traffic_point(churned, "lru:4")
        l4 = point.map_stats["tcp"]["l4"]
        assert l4["unbinds"] > 0
        assert l4["binds"] == SMALL.flows + l4["unbinds"]
        assert l4["invalidations"] <= l4["unbinds"]

    def test_scan_packets_walk_chains_and_never_install(self):
        scan = SMALL.with_(mix="scan", scan_fraction=1.0)
        point = run_traffic_point(scan, "one-entry")
        l4 = point.map_stats["tcp"]["l4"]
        assert l4["installs"] == 0
        assert l4["cache_hits"] == 0
        assert l4["chain_probes"] > 0

    def test_no_cache_scheme_never_hits(self):
        point = run_traffic_point(SMALL, "none")
        assert point.l4_hit_rate == 0.0

    def test_points_are_deterministic(self):
        a = run_traffic_point(SMALL.with_(mix="bursty"), "assoc:4x2").to_json()
        b = run_traffic_point(SMALL.with_(mix="bursty"), "assoc:4x2").to_json()
        assert a == b


class TestRunTrafficStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_traffic_study(
            api.TrafficStudySpec(
                traffic=SMALL,
                schemes=("one-entry", "none", "direct:16"),
                mixes=("zipf", "uniform"),
            )
        )

    def test_grid_is_complete(self, study):
        assert len(study.points) == 6
        assert study.schemes == ("one-entry", "none", "direct:16")
        for mix in study.mixes:
            for scheme in study.schemes:
                point = study.point(scheme, mix, SMALL.flows)
                assert point.spec.mix == mix
        with pytest.raises(KeyError):
            study.point("one-entry", "bursty", SMALL.flows)

    def test_points_match_standalone_runs(self, study):
        alone = run_traffic_point(SMALL.with_(mix="uniform"), "direct:16")
        assert (
            study.point("direct:16", "uniform", SMALL.flows).to_json()
            == alone.to_json()
        )

    def test_rejects_unknown_mix(self):
        with pytest.raises(ValueError, match="mix"):
            run_traffic_study(api.TrafficStudySpec(traffic=SMALL, mixes=("poisson",)))

    def test_render_is_engine_free_and_complete(self, study):
        table = render_traffic_table(study)
        assert "Demux-cache study: tcpip OUT" in table
        assert "engine" not in table
        assert "vs one-entry" in table
        for scheme in study.schemes:
            assert scheme in table
        assert table.count("+0.00%") == len(study.mixes)  # the baselines

    def test_study_json_round_trips_through_dumps(self, study):
        assert json.loads(json.dumps(study.to_json())) == study.to_json()


class TestApiVerb:
    def test_traffic_verb_runs_a_study(self):
        study = api.traffic(
            api.TrafficStudySpec(traffic=SMALL, schemes=("one-entry",))
        )
        assert study.engine == "fast"
        assert len(study.points) == 1

    def test_engine_override_beats_environment(self, monkeypatch):
        # the environment names the reference engine, which streaming
        # refuses; the spec's explicit engine must win over it
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        study = api.traffic(api.TrafficStudySpec(
            traffic=SMALL.with_(packets=600, warmup_packets=100, flows=50),
            schemes=("none",),
            engine="fast",
        ))
        assert study.engine == "fast"

    def test_default_spec_is_the_acceptance_cell(self):
        # don't run it (1M packets) — just check the wiring resolves it
        assert TrafficSpec().packets == 1_000_000
        assert "traffic" in api.__all__


class TestCli:
    def test_traffic_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "study.json"
        rc = main(
            [
                "traffic",
                "tcpip",
                "OUT",
                "--packets",
                "1500",
                "--flows",
                "150",
                "--warmup",
                "300",
                "--schemes",
                "one-entry",
                "none",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Demux-cache study" in printed
        payload = json.loads(out.read_text())
        assert [p["scheme"] for p in payload["points"]] == ["one-entry", "none"]
        assert payload["points"][0]["packets"] == 1500

    def test_cli_rejects_unknown_stack(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["traffic", "atm", "OUT"])


class TestScanChurnInterplay:
    def test_scan_slots_never_alias_bound_flows(self):
        """The sampler's SCAN sentinel is disjoint from slot space."""
        spec = SMALL.with_(mix="scan", scan_fraction=0.3)
        sampler = ArrivalSampler(spec, random.Random(spec.seed))
        slots = [sampler.next() for _ in range(2_000)]
        assert SCAN in slots
        assert all(s == SCAN or 0 <= s < spec.flows for s in slots)
