"""The engine registry: the reference oracle plus the fast engine.

``gensim`` and ``guarded-gensim`` (generated per-cell kernels) are gone,
and guarding is a per-run stride (``RunSpec.guard_stride``), not an
engine.  Every layer that consumes the registry — Settings validation,
the Experiment dispatch, the profiler — must agree on it, the engines
must stay bit-identical under injected workload faults, and the retired
names must fail fast rather than fall through to another engine.
"""

import pytest

from repro.api.settings import ENGINE_ENV, ENGINES, Settings, validate_engine
from repro.faults.plan import FaultPlan
from repro.harness.experiment import Experiment

RETIRED = ("gensim", "guarded-gensim", "guarded")


def _shape(result):
    return [
        (s.steady.cycles, s.cold.cycles, s.roundtrip_us, len(s.faults))
        for s in result.samples
    ]


# --------------------------------------------------------------------------- #
# registry sync                                                               #
# --------------------------------------------------------------------------- #


def test_registry_is_the_oracle_plus_the_fast_engine():
    assert ENGINES == ("fast", "reference")


def test_fail_fast_error_names_every_registered_engine():
    with pytest.raises(ValueError) as err:
        validate_engine("nonesuch")
    for engine in ENGINES:
        assert engine in str(err.value)


def test_retired_engine_names_are_rejected_naming_the_valid_ones():
    for engine in RETIRED:
        with pytest.raises(ValueError) as err:
            Settings.from_env({ENGINE_ENV: engine})
        assert "valid engines: fast, reference" in str(err.value)


def test_settings_accept_every_registered_engine():
    for engine in ENGINES:
        assert Settings(engine=engine).engine == engine
        assert Settings.from_env({}, engine=engine).engine == engine


def test_experiment_dispatch_covers_every_registered_engine():
    # every registry member must run end to end, not just validate
    shapes = {}
    for engine in ENGINES:
        result = Experiment("tcpip", "STD", engine=engine).run(samples=1)
        shapes[engine] = _shape(result)
    assert len({tuple(map(tuple, s)) for s in shapes.values()}) == 1


# --------------------------------------------------------------------------- #
# parity under faults (rate 1.0: every opportunity fires)                     #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("stack", ("tcpip", "rpc"))
def test_full_rate_faults_bit_identical_to_reference(stack):
    plan = FaultPlan(stack=stack, rate=1.0, seed=11)
    fast = Experiment(stack, "STD", engine="fast", fault_plan=plan).run(samples=2)
    ref = Experiment(stack, "STD", engine="reference", fault_plan=plan).run(samples=2)
    assert _shape(fast) == _shape(ref)
    assert fast.total_faults == ref.total_faults > 0
    for f, r in zip(fast.samples, ref.samples):
        assert f.cold == r.cold
        assert f.steady == r.steady


# --------------------------------------------------------------------------- #
# capability boundaries                                                       #
# --------------------------------------------------------------------------- #


def test_profile_cell_declines_gensim():
    from repro.harness.profile import profile_cell

    for engine in RETIRED:
        with pytest.raises(ValueError, match="valid engines: fast, reference"):
            profile_cell("tcpip", "STD", engine=engine)
