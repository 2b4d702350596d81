"""Self-healing sweep machinery under injected chaos.

Every test drives the real process-pool executor through REPRO_CHAOS
sabotage and checks the one invariant that matters: whatever crashed,
hung or lied along the way, the sweep's results are bit-identical to the
plain serial loop, and every incident is on the report.
"""

import pytest

from repro import api
from repro.api import FaultsSpec, RunSpec, Settings, SweepSpec
from repro.faults.plan import FaultPlan
from repro.harness import parallel
from repro.harness.experiment import Experiment, run_all_configs
from repro.harness.parallel import SweepError, SweepReport, run_sweep

SMALL = ("STD", "OUT")


def _tuples(results):
    return {
        config: [(s.roundtrip_us, s.cold, s.steady) for s in result.samples]
        for config, result in results.items()
    }


def _specs(configs=SMALL, **fields):
    return [RunSpec("tcpip", config, samples=2, **fields) for config in configs]


def _parallel(report, specs=None, **kwargs):
    """The sweep executor on a two-worker pool, keyed by config."""
    results = run_sweep(
        specs or _specs(), parallel=True, max_workers=2, report=report, **kwargs
    )
    if report.degraded_to_serial:  # pragma: no cover
        pytest.skip("process pool unavailable")
    return {result.config: result for result in results}


@pytest.fixture()
def serial_baseline():
    # run serially first: fork-based workers then inherit the warm
    # capture/build caches copy-on-write
    return _tuples(run_all_configs("tcpip", SMALL, samples=2, parallel=False))


def test_crashing_worker_is_retried_bit_identically(serial_baseline, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:STD:42:1")
    report = SweepReport()
    par = _parallel(report, retries=2)
    assert _tuples(par) == serial_baseline
    crash = [i for i in report.incidents if i.kind == "crash"]
    assert crash and crash[0].config == "STD" and crash[0].seed == 42
    assert report.completed == 4
    assert report.completed_serial == 0
    assert report.ok()


def test_hanging_worker_is_timed_out_and_redispatched(serial_baseline, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "hang:STD:59:1:60")
    report = SweepReport()
    par = _parallel(report, retries=2, cell_timeout=8.0)
    assert _tuples(par) == serial_baseline
    assert report.pools_restarted >= 1
    assert any(i.kind == "timeout" for i in report.incidents)
    assert report.ok()


def test_exhausted_retries_heal_serially(serial_baseline, monkeypatch):
    # every pool attempt of the cell is sabotaged; the in-process serial
    # fallback is immune by design and completes the sweep
    monkeypatch.setenv("REPRO_CHAOS", "crash:STD:42:99")
    report = SweepReport()
    par = _parallel(report, retries=1)
    assert _tuples(par) == serial_baseline
    assert report.completed_serial == 1
    assert report.retried >= 2
    assert report.ok()


def test_crash_and_hang_in_one_sweep_both_land_on_the_report(
    serial_baseline, monkeypatch
):
    # the acceptance scenario: one cell crashes, another hangs, and the
    # sweep still completes with both incidents recorded
    monkeypatch.setenv("REPRO_CHAOS", "crash:OUT:42:1;hang:STD:59:1:60")
    report = SweepReport()
    par = _parallel(report, retries=2, cell_timeout=8.0)
    assert _tuples(par) == serial_baseline
    kinds = {i.kind for i in report.incidents}
    assert "crash" in kinds and "timeout" in kinds
    assert report.ok()


def test_no_fallback_fails_loudly_naming_the_cell(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:STD:42:99")
    report = SweepReport()
    with pytest.raises(SweepError) as excinfo:
        _parallel(report, retries=0, serial_fallback=False)
    message = str(excinfo.value)
    assert "STD" in message and "42" in message
    assert excinfo.value.report is report
    assert not report.ok()


def test_sweep_cannot_silently_lose_samples(serial_baseline):
    # regression for the old `if s is not None` filter: a clean sweep
    # returns every slot filled, in seed order
    report = SweepReport()
    par = _parallel(report)
    for config in SMALL:
        assert len(par[config].samples) == 2
        assert all(s is not None for s in par[config].samples)
    assert report.completed == 4
    assert _tuples(par) == serial_baseline


def test_pool_that_cannot_start_degrades_to_serial(serial_baseline, monkeypatch):
    def refuse(max_workers):
        raise OSError("no process pool here")

    monkeypatch.setattr(parallel, "_make_pool", refuse)
    report = SweepReport()
    results = run_sweep(_specs(), parallel=True, max_workers=2, report=report)
    assert _tuples({r.config: r for r in results}) == serial_baseline
    assert report.degraded_to_serial
    assert report.completed == report.completed_serial == 4


def test_faulted_sweep_is_parallel_serial_identical():
    plan = FaultPlan(stack="tcpip", rate=0.5, seed=7)
    ser = run_all_configs("tcpip", SMALL, samples=2, parallel=False, fault_plan=plan)
    report = SweepReport()
    par = _parallel(report, _specs(fault_plan=plan))
    assert _tuples(par) == _tuples(ser)
    for config in SMALL:
        par_counts = [len(s.faults) for s in par[config].samples]
        ser_counts = [len(s.faults) for s in ser[config].samples]
        assert par_counts == ser_counts
    assert sum(r.total_faults for r in par.values()) > 0


def test_guarded_divergence_detected_in_serial_run(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "perturb:CLO:42:1")
    exp = Experiment("tcpip", "CLO", engine="fast", guard_stride=1)
    result = exp.run(samples=2)
    assert len(exp.divergences) == 1
    report = exp.divergences[0]
    assert report.config == "CLO" and report.seed == 42
    assert any(m[0] == "steady.stall_cycles" for m in report.mismatches)
    # after the fallback the results are the reference engine's
    ref = Experiment("tcpip", "CLO", engine="reference").run(samples=2)
    for g, r in zip(result.samples, ref.samples):
        assert g.steady == r.steady
        assert g.cold == r.cold


def test_guarded_divergence_can_raise(monkeypatch):
    from repro.faults.guard import EngineDivergence

    monkeypatch.setenv("REPRO_CHAOS", "perturb:CLO:42:1")
    exp = Experiment(
        "tcpip", "CLO", engine="fast", guard_stride=1, on_divergence="raise"
    )
    with pytest.raises(EngineDivergence):
        exp.run(samples=1)


def test_guarded_divergence_detected_in_parallel_sweep(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "perturb:CLO:42:1")
    report = SweepReport()
    par = _parallel(report, _specs(("CLO",), engine="fast", guard_stride=1))
    assert len(report.divergences) == 1
    assert report.divergences[0].config == "CLO"
    ref = run_all_configs(
        "tcpip", ("CLO",), samples=2, parallel=False, engine="reference"
    )
    assert _tuples(par) == _tuples(ref)


def test_clean_guarded_sweep_matches_fast_engine():
    guarded = api.sweep(
        SweepSpec(_specs(engine="fast", guard_stride=1), parallel=False)
    )
    fast = run_all_configs("tcpip", SMALL, samples=2, parallel=False, engine="fast")
    assert _tuples({r.config: r for r in guarded}) == _tuples(fast)


def test_run_all_configs_report_plumbing():
    report = SweepReport()
    results = run_all_configs("tcpip", SMALL, samples=2, parallel=False, report=report)
    assert set(results) == set(SMALL)
    assert report.completed == 4
    assert report.completed_serial == 4


def test_serial_and_pooled_reports_name_the_sweep_alike():
    serial = SweepReport()
    run_sweep(_specs(), parallel=False, report=serial)
    pooled = SweepReport()
    _parallel(pooled)
    engine = Settings.from_env().engine
    for report in (serial, pooled):
        assert (report.stack, report.engine) == ("tcpip", engine)
        assert (report.configs, report.samples) == (SMALL, 2)
    # a one-cell faults sweep runs serially and still names itself
    study = api.faults(FaultsSpec(configs=("STD",), samples=1))
    assert (study.sweep.stack, study.sweep.configs) == ("tcpip", ("STD",))
    assert study.sweep.completed == study.sweep.completed_serial == 1
