"""The resilience study: rate-0 identity, determinism, engines, surface.

The rate-0 identity is the tentpole invariant: a fault profile whose
rates are all zero must produce a traffic point *bit-identical* to a
pristine :func:`run_traffic_point` run on every stack.  With any
positive rate, equal (profile, spec) inputs must reproduce the same
study to the byte.
"""

import json
from dataclasses import replace

import pytest

from repro import api
from repro.harness.parallel import CellIncident, SweepReport
from repro.harness.reporting import render_resilience_table
from repro.resilience import (
    FaultProfile,
    OverloadSpec,
    run_resilience_point,
    run_resilience_study,
)
from repro.traffic import TrafficSpec, run_traffic_point

SMALL = TrafficSpec(packets=2_000, flows=200, warmup_packets=400, seed=0)
CHURNED = SMALL.with_(churn=0.005)
LOADS = OverloadSpec(loads=(60, 100, 130))
ZERO = FaultProfile()
FAULTY = FaultProfile.uniform(0.08, seed=1)


class TestRateZeroIdentity:
    @pytest.mark.parametrize("stack", ["tcpip", "rpc", "mixed"])
    def test_zero_profile_is_pristine_on_fast(self, stack):
        spec = CHURNED.with_(stack=stack)
        pristine = run_traffic_point(spec, "lru:4", engine="fast")
        zero = run_resilience_point(
            spec, "lru:4", profile=ZERO, overload=LOADS, engine="fast"
        )
        assert json.dumps(pristine.to_json()) == json.dumps(
            zero.traffic.to_json()
        )
        assert zero.faulted_packets == 0

    def test_explicit_zero_rates_take_the_same_fast_path(self):
        explicit = FaultProfile(
            rates=tuple(
                (kind, 0.0)
                for kind in ("corrupt_checksum", "duplicated_packet")
            )
        )
        a = run_resilience_point(
            CHURNED, "one-entry", profile=explicit, overload=LOADS
        )
        b = run_resilience_point(
            CHURNED, "one-entry", profile=ZERO, overload=LOADS
        )
        assert json.dumps(a.traffic.to_json()) == json.dumps(
            b.traffic.to_json()
        )


class TestFaultedPoints:
    def test_positive_rate_is_deterministic(self):
        a = run_resilience_point(
            CHURNED, "lru:4", profile=FAULTY, overload=LOADS
        )
        b = run_resilience_point(
            CHURNED, "lru:4", profile=FAULTY, overload=LOADS
        )
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_every_kind_arrives_and_is_counted(self):
        point = run_resilience_point(
            CHURNED, "lru:4",
            profile=FaultProfile.uniform(0.4, seed=0), overload=LOADS,
        )
        assert set(point.fault_counts) == {
            "bad_demux_key", "corrupt_checksum", "duplicated_packet",
            "truncated_header",
        }
        assert all(n > 0 for n in point.fault_counts.values())
        assert point.faulted_packets == sum(point.fault_counts.values())

    def test_faults_cost_cycles(self):
        pristine = run_resilience_point(
            CHURNED, "one-entry", profile=ZERO, overload=LOADS
        )
        faulted = run_resilience_point(
            CHURNED, "one-entry", profile=FAULTY, overload=LOADS
        )
        assert faulted.traffic.instructions != pristine.traffic.instructions

    def test_scoped_profile_restricts_arrivals(self):
        hot = run_resilience_point(
            CHURNED, "lru:4",
            profile=FaultProfile.uniform(0.2, seed=0, scope="hot"),
            overload=LOADS,
        )
        everywhere = run_resilience_point(
            CHURNED, "lru:4",
            profile=FaultProfile.uniform(0.2, seed=0), overload=LOADS,
        )
        assert 0 < hot.faulted_packets < everywhere.faulted_packets

    def test_saturation_detected_beyond_capacity(self):
        point = run_resilience_point(
            CHURNED, "one-entry", profile=FAULTY,
            overload=OverloadSpec(loads=(60, 100, 140)),
        )
        assert point.saturation_point == 140 or point.saturation_point == 100
        by_load = {lp.load_pct: lp for lp in point.load_points}
        assert not by_load[60].saturated
        assert by_load[140].saturated
        assert by_load[60].p99 <= by_load[140].p99

    def test_resolves_still_count_every_packet(self):
        point = run_resilience_point(
            CHURNED, "one-entry", profile=FAULTY, overload=LOADS
        )
        stats = point.traffic.map_stats["tcp"]["l4"]
        # truncated/checksum faults never reach the l4 map; the rest do
        skipped = (
            point.fault_counts["truncated_header"]
            + point.fault_counts["corrupt_checksum"]
        )
        assert stats["resolves"] == CHURNED.packets - skipped
        assert stats["failed_resolves"] > 0  # bad_demux_key probes miss


class TestRunResilienceStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_resilience_study(
            api.ResilienceStudySpec(
                traffic=SMALL,
                schemes=("one-entry", "lru:4"),
                mixes=("zipf", "scan"),
                fault_rates=(0.0, 0.05),
                overload=LOADS,
            )
        )

    def test_grid_is_complete(self, study):
        assert len(study.points) == 8
        for mix in study.mixes:
            for rate in study.fault_rates:
                for scheme in study.schemes:
                    point = study.point(scheme, mix, rate)
                    assert point.profile.total_rate == pytest.approx(rate)

    def test_unknown_point_raises(self, study):
        with pytest.raises(KeyError):
            study.point("lru:4", "zipf", 0.5)

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            run_resilience_study(
                api.ResilienceStudySpec(traffic=SMALL, mixes=("diurnal",))
            )

    def test_sweep_report_embedded(self, study):
        assert study.sweep.completed == 8
        assert study.sweep.ok()

    def test_study_json_roundtrips_with_provenance(self, study):
        j = study.to_json()
        assert j["schema"] == "repro.resilience/1"
        assert j["generator"] == "repro.api.resilience"
        assert len(j["points"]) == 8
        assert j["sweep"]["completed"] == 8
        assert j["sweep"]["ok"] is True
        json.dumps(j)  # fully serializable

    def test_parallel_equals_serial(self):
        spec = api.ResilienceStudySpec(
            traffic=SMALL,
            schemes=("one-entry",),
            fault_rates=(0.0, 0.05),
            overload=LOADS,
        )
        serial = run_resilience_study(spec)
        parallel = run_resilience_study(replace(spec, parallel=True, max_workers=2))
        a = [p.to_json() for p in serial.points]
        b = [p.to_json() for p in parallel.points]
        assert json.dumps(a) == json.dumps(b)

    def test_render_table_is_engine_free_and_stable(self, study):
        table = render_resilience_table(study)
        assert "Resilience study: tcpip OUT" in table
        assert "saturates at" in table or "no saturation" in table
        assert "fast" not in table
        assert table == render_resilience_table(study)


class TestSweepReportJson:
    def test_incident_and_report_round_trip(self):
        report = SweepReport(stack="tcpip", engine="fast", samples=2)
        report.incidents.append(
            CellIncident("OUT", 42, 1, "crash", "boom")
        )
        j = report.to_json()
        assert j["incidents"] == [
            {"config": "OUT", "seed": 42, "attempt": 1, "kind": "crash",
             "detail": "boom"}
        ]
        assert j["retried"] == 1
        assert j["ok"] is True
        report.failures.append(
            CellIncident("CLO", 43, 3, "exhausted", "gone")
        )
        assert report.to_json()["ok"] is False

    def test_divergence_report_to_json(self):
        from repro.faults.guard import DivergenceReport

        d = DivergenceReport(
            stack="tcpip", config="OUT", seed=1,
            mismatches=(("mcpi", 1.0, 2.0),),
        )
        assert d.to_json() == {
            "stack": "tcpip", "config": "OUT", "seed": 1,
            "mismatches": [
                {"metric": "mcpi", "fast": 1.0, "reference": 2.0}
            ],
        }


class TestSurface:
    def test_api_verb(self):
        study = api.resilience(api.ResilienceStudySpec(
            traffic=SMALL, schemes=("one-entry",), fault_rates=(0.0,),
            overload=LOADS,
        ))
        assert study.engine == "fast"
        assert len(study.points) == 1

    def test_api_verb_rejects_reference_engine(self):
        with pytest.raises(ValueError):
            api.resilience(api.ResilienceStudySpec(
                traffic=SMALL, schemes=("one-entry",), fault_rates=(0.0,),
                engine="reference",
            ))

    def test_cli_smoke(self, tmp_path, capsys):
        from repro.__main__ import resilience_main

        out = tmp_path / "study.json"
        rc = resilience_main([
            "tcpip", "OUT", "--packets", "2000", "--flows", "200",
            "--warmup", "400", "--fault-rates", "0", "0.05",
            "--schemes", "one-entry", "--loads", "60", "100", "130",
            "--json", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Resilience study: tcpip OUT" in captured.out
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.resilience/1"
        assert len(payload["points"]) == 2

    def test_faults_cli_embeds_structured_sweep(self, tmp_path):
        from repro.__main__ import faults_main

        out = tmp_path / "faults.json"
        rc = faults_main([
            "tcpip", "OUT", "--rate", "0.25", "--samples", "1",
            "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        sweep = payload["sweep"]
        # the structured SweepReport.to_json shape, not render strings
        assert sweep["ok"] is True
        assert sweep["incidents"] == []
        assert isinstance(sweep["completed"], int)
