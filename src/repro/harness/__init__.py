"""Experiment harness: build configurations, measurements, and reports.

Reproduces Section 4's methodology end to end: build each of the six
configurations (STD/OUT/CLO/BAD/PIN/ALL) for both protocol stacks, run the
ping-pong workload on the functional network, expand the traced roundtrip
into an instruction trace, simulate it against the machine model, and
assemble end-to-end latency from processing time plus the wire/controller
constants.
"""

from repro.harness.configs import (
    CONFIG_NAMES,
    STACKS,
    BuildResult,
    StackSpec,
    build_configured_program,
    build_configured_program_cached,
)
from repro.harness.experiment import (
    Experiment,
    ExperimentResult,
    SampleResult,
    run_all_configs,
)
from repro.harness.latency import LatencyModel, CONTROLLER_ROUNDTRIP_US

__all__ = [
    "CONFIG_NAMES",
    "STACKS",
    "BuildResult",
    "StackSpec",
    "build_configured_program",
    "build_configured_program_cached",
    "Experiment",
    "ExperimentResult",
    "SampleResult",
    "run_all_configs",
    "LatencyModel",
    "CONTROLLER_ROUNDTRIP_US",
]
