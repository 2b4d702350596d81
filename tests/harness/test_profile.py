"""Unit tests for the per-function profiler."""

import hashlib
import json

import pytest

from repro.core.ir import FunctionBuilder
from repro.core.layout import link_order_layout
from repro.core.program import Program
from repro.core.walker import EnterEvent, ExitEvent, Walker
from repro.harness.configs import CONFIG_NAMES, build_configured_program_cached
from repro.harness.experiment import Experiment
from repro.harness.profile import FunctionProfile, profile_trace


def _program():
    p = Program()
    for name, alu in (("hot", 120), ("cold", 12)):
        fb = FunctionBuilder(name, saves=1)
        fb.block("a").alu(alu)
        fb.ret()
        p.add(fb.build())
    p.layout(link_order_layout())
    return p


def _trace(p):
    events = [EnterEvent("hot"), ExitEvent("hot"),
              EnterEvent("cold"), ExitEvent("cold")]
    return Walker(p).walk(events).trace


class TestProfiler:
    def test_instruction_attribution_is_complete(self):
        p = _program()
        trace = _trace(p)
        report = profile_trace(trace, p)
        assert report.unattributed_instructions == 0
        assert (report.functions["hot"].instructions
                + report.functions["cold"].instructions) == len(trace)

    def test_bigger_function_gets_more_instructions(self):
        p = _program()
        report = profile_trace(_trace(p), p)
        assert (report.functions["hot"].instructions
                > report.functions["cold"].instructions)

    def test_top_orders_by_stalls(self):
        report = profile_trace(_trace(_p := _program()), _p)
        top = report.top(2)
        assert top[0].stall_cycles >= top[1].stall_cycles

    def test_render_contains_functions(self):
        p = _program()
        text = profile_trace(_trace(p), p).render()
        assert "hot" in text and "cold" in text

    def test_unknown_addresses_counted(self):
        from repro.arch.isa import Op, TraceEntry

        p = _program()
        stray = [TraceEntry(pc=0xDEAD0000, op=Op.ALU)]
        report = profile_trace(stray, p)
        assert report.unattributed_instructions == 1

    def test_mcpi_property(self):
        prof = FunctionProfile("f", instructions=100, stall_cycles=250)
        assert prof.mcpi == pytest.approx(2.5)
        assert FunctionProfile("g").mcpi == 0.0

    def test_warm_cache_profile_has_no_cold_misses(self):
        p = _program()
        trace = _trace(p)
        report = profile_trace(trace, p, warmup_rounds=3)
        # 530 bytes of code fit the i-cache: zero misses when warm
        assert all(f.icache_misses == 0 for f in report.functions.values())


#: "stack-config-warm-up rounds" -> sha256 of the profile's rows (name,
#: instructions, stalls, i-misses per function, in report order) and its
#: unattributed-instruction count, for one walked roundtrip at seed 42
ROW_DIGESTS = {
    "tcpip-BAD-0": "98b12e8ee2f26ef7f75fc3c8c193bb6d4334dd130c277b7b6372ed5427ef7a2d",
    "tcpip-BAD-2": "8edbed3e6112a866786bb945ff4ce2cc97f5d98dbf761dedda41a16dc428838a",
    "tcpip-STD-0": "d23c96a1ed8e63996bf298a03563dee994d03d1ee56ccb7ed8950dd29f70bcee",
    "tcpip-STD-2": "76e60419022b5023c44b4d6e182fc3a9dc48dc2f54d5bc8fdb4aca8a76b7e505",
    "tcpip-OUT-0": "43e9a3840f2217ff98c21f0b6e7fa54e52133d88532425eca8325f2754659658",
    "tcpip-OUT-2": "41f71bbd6a273835b0ece0b49cd9a75d2ee83f1383d6f89b04aa773d3771b24f",
    "tcpip-CLO-0": "4a2c748b209d4a8047d63547f2f93fb7d93f85a5b6919cf351ecfef977128f5f",
    "tcpip-CLO-2": "576beca78826b3f35b7059d756bfb842920d6c98b406eda5166ae1b69f627918",
    "tcpip-PIN-0": "39f8d6fa04c33708a7f7b6c314aaa1b25b11b149432fddf7d987eb0ec630b2e9",
    "tcpip-PIN-2": "cfc7166fa39940104eccaa6ec2440f5621796a9e97d07c43e2f3b58b02bc3204",
    "tcpip-ALL-0": "3cc4794d8dc14775ac1bb4858e791f37129ef68d083e6bd513a3c8c70a177ddf",
    "tcpip-ALL-2": "cfd4f647f65157173b45443647af94b55bcda3b17df29ad23fa7db64e85ffc4d",
    "rpc-BAD-0": "54d9dc7482718ed5db53fc19648f59660a1b0fa83791f6b84b813fe50e9b762d",
    "rpc-BAD-2": "1388665c0fc56424fd0dfa6a79a0d16ce0976f9c229298b6bb1aa948be7ea4f8",
    "rpc-STD-0": "16eeeb251014e47437e64da971766beeae4e8ba5b4fca37789db2de3ed40eca6",
    "rpc-STD-2": "1f6474214a409ad1cd1d2d6c18d7620540c063e343a0662ae25ea16a4d9d1a29",
    "rpc-OUT-0": "2e0913b83c8d224ac1db81f2de0e149b20db6a878065d0b812a499ce5acefec1",
    "rpc-OUT-2": "bae60ea3605258b8ccfa9b719edcbda1e18d98f365f5d52befbf75934fa86a13",
    "rpc-CLO-0": "c067be22ec5ccf733ade043c1e61e1b7b6329621a3b83ec15aac1b81d4a7b33b",
    "rpc-CLO-2": "c2ff05321adaec356081b17e25abdbd56b148b371a5676859210fbbe6ae7a971",
    "rpc-PIN-0": "cf55e11379db3599f208c82d7325df2575e74f890bf7594327900ccac6b117e0",
    "rpc-PIN-2": "bb85060a375d0eafd2b33b85f172d3e37db01aa04b04b2a2a02b2b6d48e83c3d",
    "rpc-ALL-0": "1b39e585694fe6fb45856363aea03b4f20fbaa3fb3a54203938e9e38350009e6",
    "rpc-ALL-2": "9092341b0af46f5ec163c5e10023638eacada38b15663bdbe1845b593a0476cc",
}


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("stack", ["tcpip", "rpc"])
def test_profile_rows_match_the_pinned_digests(stack, config):
    events, data_env = Experiment(stack, config).capture_roundtrip(42)
    build = build_configured_program_cached(stack, config)
    trace = Walker(build.program, data_env).walk(events).trace
    for depth in (0, 2):
        report = profile_trace(trace, build.program, warmup_rounds=depth)
        rows = [[p.name, p.instructions, p.stall_cycles, p.icache_misses]
                for p in report.functions.values()]
        text = json.dumps(
            {"rows": rows, "unattributed": report.unattributed_instructions})
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == ROW_DIGESTS[f"{stack}-{config}-{depth}"], depth
