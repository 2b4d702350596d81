"""Computations behind every table: the reproduction's number factory.

Each ``compute_table*`` function runs the experiments a table needs and
returns plain dictionaries the renderers in :mod:`repro.harness.reporting`
(and the assertions in the benchmark suite) consume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.core.metrics import (
    block_utilization,
    mainline_and_outlined_size,
)
from repro.harness.configs import STACKS
from repro.harness.experiment import Experiment, ExperimentResult, run_all_configs
from repro.protocols.options import Section2Options

if TYPE_CHECKING:
    from repro.api.spec import FaultsSpec


# --------------------------------------------------------------------------- #
# Table 1                                                                     #
# --------------------------------------------------------------------------- #

def compute_table1(*, seed: int = 42) -> Tuple[Dict[str, int], int]:
    """Per-optimization dynamic instruction savings on the TCP/IP path."""
    improved = Section2Options.improved()
    baseline = _trace_length("tcpip", improved, seed)
    savings: Dict[str, int] = {}
    for flag in Section2Options.TABLE1_FLAGS:
        degraded = _trace_length("tcpip", improved.without(flag), seed)
        savings[flag] = degraded - baseline
    original = _trace_length("tcpip", Section2Options.original(), seed)
    return savings, original - baseline


def _trace_length(stack: str, opts: Section2Options, seed: int) -> int:
    exp = Experiment(stack, "STD", opts, base_seed=seed)
    return exp.run_sample(exp.build(), seed).trace_length


# --------------------------------------------------------------------------- #
# Table 2                                                                     #
# --------------------------------------------------------------------------- #

def compute_table2(*, samples: int = 3) -> Dict[str, Dict[str, float]]:
    """Original vs improved x-kernel TCP/IP (STD configuration)."""
    out: Dict[str, Dict[str, float]] = {}
    for label, opts in (
        ("original", Section2Options.original()),
        ("improved", Section2Options.improved()),
    ):
        result = Experiment("tcpip", "STD", opts).run(samples=samples)
        rep = result.representative()
        out[label] = {
            "rtt_us": result.mean_rtt_us,
            "instructions": result.mean_trace_length,
            "cycles": rep.steady.cycles,
            "cpi": result.mean_cpi,
        }
    return out


# --------------------------------------------------------------------------- #
# Table 3                                                                     #
# --------------------------------------------------------------------------- #

def compute_table3(*, seed: int = 42) -> Dict[str, Optional[int]]:
    """Instructions executed per region of the inbound TCP/IP path.

    Regions follow the paper's task-based counting: "IP input -> TCP
    input" covers everything from entering ipDemux up to entering
    tcpDemux; "TCP input -> user" covers tcpDemux up to the delivery into
    the test program.
    """
    exp = Experiment("tcpip", "STD", base_seed=seed)
    build = exp.build()
    sample = exp.run_sample(build, seed)
    program = build.program
    trace = sample.walk.trace

    def entry_index(fn_name: str) -> int:
        resolved = program.resolve_entry(fn_name)
        base = program.address_of(resolved)
        end = base + program.size_of(resolved)
        for i, t in enumerate(trace):
            if base <= t.pc < end:
                return i
        raise ValueError(f"{fn_name} never executed in the trace")

    ip_in = entry_index("ip_demux")
    tcp_in = entry_index("tcp_demux")
    user_in = entry_index("tcptest_demux")
    return {
        "ipintr": None,       # function-local counting is implementation-
        "tcp_input": None,    # specific; the paper recommends against it
        "ip_to_tcp": tcp_in - ip_in,
        "tcp_to_user": user_in - tcp_in,
    }


# --------------------------------------------------------------------------- #
# Tables 4-7 share one sweep                                                  #
# --------------------------------------------------------------------------- #

def compute_sweep(stack: str, *, samples: Optional[int] = None,
                  settings=None) -> Dict[str, ExperimentResult]:
    """All six configurations of one stack (backs Tables 4, 5, 6 and 7)."""
    return run_all_configs(stack, samples=samples, settings=settings)


# --------------------------------------------------------------------------- #
# Table 8                                                                     #
# --------------------------------------------------------------------------- #

TABLE8_TRANSITIONS = (
    ("BAD", "CLO"),
    ("STD", "OUT"),
    ("OUT", "CLO"),
    ("OUT", "PIN"),
    ("PIN", "ALL"),
)


def compute_table8(
    results: Mapping[str, ExperimentResult]
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Improvement decomposition between configuration pairs.

    ``i_pct`` is the share of the b-cache access reduction attributable to
    the i-cache (footnote 4: i-side b-cache accesses are total accesses
    minus d-cache/write-buffer misses).
    """
    out: Dict[Tuple[str, str], Dict[str, float]] = {}
    for a, b in TABLE8_TRANSITIONS:
        ra, rb = results[a], results[b]
        ma = ra.representative().steady.memory
        mb = rb.representative().steady.memory
        d_nb = ma.bcache.accesses - mb.bcache.accesses
        i_side_a = ma.bcache.accesses - ma.dcache.misses
        i_side_b = mb.bcache.accesses - mb.dcache.misses
        d_iside = i_side_a - i_side_b
        out[(a, b)] = {
            "i_pct": 100.0 * d_iside / d_nb if d_nb else 0.0,
            "d_te": ra.mean_rtt_us - rb.mean_rtt_us,
            "d_tp": ra.mean_processing_us - rb.mean_processing_us,
            "d_nb": d_nb,
            "d_nm": ma.bcache.misses - mb.bcache.misses,
        }
    return out


# --------------------------------------------------------------------------- #
# Table 9                                                                     #
# --------------------------------------------------------------------------- #

def compute_table9(*, seed: int = 42) -> Dict[str, Dict[str, float]]:
    """Outlining effectiveness: unused i-cache slots and static path size."""
    out: Dict[str, Dict[str, float]] = {}
    for stack in ("tcpip", "rpc"):
        spec = STACKS[stack]
        measured: Dict[str, float] = {}
        for label, config in (("without", "STD"), ("with", "OUT")):
            exp = Experiment(stack, config, base_seed=seed)
            build = exp.build()
            sample = exp.run_sample(build, seed)
            util = block_utilization(sample.walk.trace)
            measured[f"unused_{label}"] = util.unused_fraction
            present = [
                name for name in spec.path_functions
                if name in build.program
            ]
            mainline, outlined = mainline_and_outlined_size(
                build.program, present
            )
            # the paper's "Size" column counts the latency-critical path:
            # everything before outlining, the mainline after it
            measured[f"size_{label}"] = (
                mainline + outlined if label == "without" else mainline
            )
        out[stack] = measured
    return out


# --------------------------------------------------------------------------- #
# Fault table (repro.faults): pricing the error paths                         #
# --------------------------------------------------------------------------- #


def compute_fault_table(
    spec: FaultsSpec,
    *,
    engine: Optional[str] = None,
    report=None,
) -> Dict[str, Dict[str, float]]:
    """Fault-free vs faulted sweep of one stack at one injection rate.

    The paper's layout techniques bet on the error paths never running;
    this table prices the bet's downside.  Per configuration of the spec
    it pairs a pristine sweep against one driven through a
    :class:`repro.faults.FaultPlan`, reporting the processing-time and
    mCPI penalty, the injected-fault density, and the mean instruction
    window spent inside fault-steered code (from the plan's walk marks).
    ``engine`` is the resolved engine name (:func:`repro.api.faults`
    resolves ``spec.engine`` against the settings).
    """
    from repro.faults.plan import FaultPlan, fault_spans

    baseline = run_all_configs(spec.stack, spec.configs, samples=spec.samples,
                               engine=engine)
    plan = FaultPlan(stack=spec.stack, rate=spec.rate, seed=spec.seed,
                     kinds=spec.kinds)
    faulted = run_all_configs(spec.stack, spec.configs, samples=spec.samples,
                              engine=engine, fault_plan=plan, report=report)

    out: Dict[str, Dict[str, float]] = {}
    for config in spec.configs:
        base, fault = baseline[config], faulted[config]
        n = max(len(fault.samples), 1)
        span_instructions = sum(
            span.instructions
            for sample in fault.samples
            for span in fault_spans(sample.walk)
        )
        out[config] = {
            "base_us": base.mean_processing_us,
            "fault_us": fault.mean_processing_us,
            "delta_us": fault.mean_processing_us - base.mean_processing_us,
            "base_mcpi": base.mean_mcpi,
            "fault_mcpi": fault.mean_mcpi,
            "delta_mcpi": fault.mean_mcpi - base.mean_mcpi,
            "base_rtt_us": base.mean_rtt_us,
            "fault_rtt_us": fault.mean_rtt_us,
            "faults_per_sample": fault.total_faults / n,
            "span_instructions": span_instructions / n,
        }
    return out
