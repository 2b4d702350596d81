"""Parallel sweeps, engine selection, and capture memoization."""

import pytest

from repro.api.settings import Settings
from repro.harness.experiment import (
    Experiment,
    clear_capture_memo,
    run_all_configs,
)
from repro.harness.parallel import SweepReport

SMALL = ("STD", "OUT")


def _sample_tuples(result):
    return [(s.roundtrip_us, s.cold, s.steady) for s in result.samples]


def test_parallel_sweep_reproduces_serial_sweep():
    report = SweepReport()
    par = run_all_configs(
        "tcpip", SMALL, samples=2, parallel=True, max_workers=2, report=report
    )
    if report.degraded_to_serial:                        # pragma: no cover
        pytest.skip("process pool unavailable")
    ser = run_all_configs("tcpip", SMALL, samples=2, parallel=False)
    assert set(par) == set(ser) == set(SMALL)
    for config in SMALL:
        assert _sample_tuples(par[config]) == _sample_tuples(ser[config])
        # live event streams stay in the worker; everything else crosses
        assert all(s.events == [] for s in par[config].samples)
        assert par[config].samples[0].walk.length == \
            ser[config].samples[0].walk.length


def test_run_all_configs_parallel_flag_matches_serial():
    auto = run_all_configs("tcpip", SMALL, samples=2)
    ser = run_all_configs("tcpip", SMALL, samples=2, parallel=False)
    for config in SMALL:
        assert [s.roundtrip_us for s in auto[config].samples] == \
            [s.roundtrip_us for s in ser[config].samples]


def test_engines_agree_end_to_end():
    fast = Experiment("tcpip", "CLO", engine="fast").run(samples=2)
    ref = Experiment("tcpip", "CLO", engine="reference").run(samples=2)
    for f, r in zip(fast.samples, ref.samples):
        assert f.cold == r.cold
        assert f.steady == r.steady
        assert f.roundtrip_us == r.roundtrip_us


def test_resolve_engine_precedence():
    # explicit environ mappings: the outcome must not depend on the
    # REPRO_SIM_ENGINE this file happens to run under
    assert Settings.from_env({}).engine == "fast"
    env = {"REPRO_SIM_ENGINE": "reference"}
    assert Settings.from_env(env).engine == "reference"
    # explicit beats environment
    assert Settings.from_env(env, engine="fast").engine == "fast"
    with pytest.raises(ValueError):
        Settings.from_env({}, engine="warp")


def test_capture_memo_hands_out_independent_clones():
    clear_capture_memo()
    exp = Experiment("tcpip", "STD")
    events1, env1 = exp.capture_roundtrip(42)
    events2, env2 = exp.capture_roundtrip(42)
    assert env1 == env2
    assert events1 is not events2
    # list-valued conds are consumed in place by walks; clones must not
    # share them (nor the cond dicts themselves)
    for a, b in zip(events1, events2):
        conds_a = getattr(a, "conds", None)
        if conds_a is None:
            continue
        assert conds_a is not b.conds
        for key, value in conds_a.items():
            if isinstance(value, list):
                assert value is not b.conds[key]
    clear_capture_memo()


def test_memoization_can_be_disabled():
    clear_capture_memo()
    from repro.harness.experiment import _capture_memo

    exp = Experiment("tcpip", "STD", memoize_captures=False)
    events, _ = exp.capture_roundtrip(42)
    assert events
    assert not _capture_memo
    clear_capture_memo()
