"""Unit tests for the event-stream walker."""

import pytest

from repro.arch.isa import Op
from repro.core.fastwalk import FastWalker
from repro.core.ir import FunctionBuilder
from repro.core.layout import link_order_layout
from repro.core.program import Program
from repro.core.walker import (
    EnterEvent, ExitEvent, MarkEvent, Walker, WalkError, clone_events,
)
from repro.faults.plan import FaultPlan
from repro.harness.configs import build_configured_program
from repro.harness.experiment import Experiment


def build_program(*fns):
    p = Program()
    for fn in fns:
        p.add(fn)
    p.layout(link_order_layout())
    return p


def straight_line(name="f", alu=4):
    fb = FunctionBuilder(name, saves=1)
    fb.block("main").alu(alu)
    fb.ret()
    return fb.build()


class TestBasicWalk:
    def test_trace_covers_prologue_body_epilogue(self):
        p = build_program(straight_line(alu=4))
        res = Walker(p).walk([EnterEvent("f"), ExitEvent("f")])
        ops = [t.op for t in res.trace]
        assert ops.count(Op.ALU) == 4
        assert ops[-1] is Op.RET
        assert ops.count(Op.STORE) == 2  # RA + 1 save
        assert ops.count(Op.LOAD) == 2

    def test_addresses_match_layout(self):
        fn = straight_line()
        p = build_program(fn)
        res = Walker(p).walk([EnterEvent("f"), ExitEvent("f")])
        base = p.address_of("f")
        assert res.trace[0].pc == base
        assert all(t.pc >= base for t in res.trace)

    def test_stack_references_resolve_below_stack_top(self):
        p = build_program(straight_line())
        w = Walker(p, stack_top=0x9000)
        res = w.walk([EnterEvent("f"), ExitEvent("f")])
        stores = [t.daddr for t in res.trace if t.op is Op.STORE]
        assert all(addr < 0x9000 for addr in stores)

    def test_ret_is_taken(self):
        p = build_program(straight_line())
        res = Walker(p).walk([EnterEvent("f"), ExitEvent("f")])
        assert res.trace[-1].taken


class TestConditions:
    def _cond_fn(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("test").alu(1)
        fb.branch("fast", "quick", "slow")
        fb.block("quick").alu(2)
        fb.jump("out")
        fb.block("slow").alu(9)
        fb.block("out").alu(1)
        fb.ret()
        return fb.build()

    def test_condition_selects_path(self):
        p = build_program(self._cond_fn())
        w = Walker(p)
        fast = w.walk([EnterEvent("f", conds={"fast": True}), ExitEvent("f")])
        slow = w.walk([EnterEvent("f", conds={"fast": False}), ExitEvent("f")])
        assert slow.length > fast.length

    def test_missing_condition_uses_default(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("t").alu(1)
        fb.branch("c", "a", "b", default=False)
        fb.block("a").alu(50)
        fb.block("b").alu(1)
        fb.ret()
        p = build_program(fb.build())
        res = Walker(p).walk([EnterEvent("f"), ExitEvent("f")])
        assert sum(t.op is Op.ALU for t in res.trace) == 2

    def test_int_condition_is_loop_count(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("head").alu(1)
        fb.block("body").alu(1)
        fb.branch("more", "body", "done")
        fb.block("done").alu(1)
        fb.ret()
        p = build_program(fb.build())
        res = Walker(p).walk([EnterEvent("f", conds={"more": 3}), ExitEvent("f")])
        # body runs 1 (fallthrough) + 3 (loop-back) times
        assert sum(t.op is Op.ALU for t in res.trace) == 1 + 4 + 1

    def test_list_condition_pops_per_activation(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("a").alu(1)
        fb.call("g", "b")
        fb.block("b").alu(1)
        fb.call("g", "c")
        fb.block("c").alu(1)
        fb.ret()
        caller = fb.build()
        # give g a branch to observe
        gb = FunctionBuilder("g", saves=0)
        gb.block("t").alu(1)
        gb.branch("flag", "yes", "no")
        gb.block("yes").alu(10)
        gb.block("no").alu(1)
        gb.ret()
        p = build_program(caller, gb.build())
        res = Walker(p).walk(
            [EnterEvent("f", conds={"g.flag": [True, False]}), ExitEvent("f")]
        )
        alu = sum(t.op is Op.ALU for t in res.trace)
        # first activation takes yes (10+1+1), second skips it (1+1)
        assert alu == 1 + (1 + 10 + 1) + 1 + (1 + 1) + 1

    def test_callable_condition(self):
        flips = iter([True, False, False])
        fb = FunctionBuilder("f", saves=0)
        fb.block("head").alu(1)
        fb.block("body").alu(1)
        fb.branch("more", "body", "done")
        fb.block("done").alu(1)
        fb.ret()
        p = build_program(fb.build())
        res = Walker(p).walk(
            [EnterEvent("f", conds={"more": lambda: next(flips)}), ExitEvent("f")]
        )
        assert sum(t.op is Op.ALU for t in res.trace) == 1 + 2 + 1


class TestCalls:
    def test_static_call_walks_callee(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("a").alu(1)
        fb.call("g", "b")
        fb.block("b").alu(1)
        fb.ret()
        p = build_program(fb.build(), straight_line("g", alu=7))
        res = Walker(p).walk([EnterEvent("f"), ExitEvent("f")])
        g_base = p.address_of("g")
        g_size = p.size_of("g")
        inside = [t for t in res.trace if g_base <= t.pc < g_base + g_size]
        assert sum(t.op is Op.ALU for t in inside) == 7

    def test_dynamic_call_consumes_events(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("a").alu(1)
        fb.call_dynamic("up", "b")
        fb.block("b").alu(1)
        fb.ret()
        p = build_program(fb.build(), straight_line("g", alu=3))
        res = Walker(p).walk(
            [
                EnterEvent("f"),
                EnterEvent("g"),
                ExitEvent("g"),
                ExitEvent("f"),
            ]
        )
        assert sum(t.op is Op.JSR for t in res.trace) == 1

    def test_dynamic_call_without_event_fails(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("a").alu(1)
        fb.call_dynamic("up", "b")
        fb.block("b").alu(1)
        fb.ret()
        p = build_program(fb.build())
        with pytest.raises(WalkError):
            Walker(p).walk([EnterEvent("f"), ExitEvent("f")])

    def test_mismatched_exit_fails(self):
        p = build_program(straight_line())
        with pytest.raises(WalkError):
            Walker(p).walk([EnterEvent("f"), ExitEvent("other")])

    def test_nested_stack_pointers_differ(self):
        gb = FunctionBuilder("g", saves=0, frame=64)
        gb.block("m").store("stack", 32)
        gb.ret()
        fb = FunctionBuilder("f", saves=0, frame=64)
        fb.block("a").store("stack", 32)
        fb.call("g", "b")
        fb.block("b").alu(1)
        fb.ret()
        p = build_program(fb.build(), gb.build())
        res = Walker(p, stack_top=0x8000).walk([EnterEvent("f"), ExitEvent("f")])
        stores = [t.daddr for t in res.trace if t.op is Op.STORE and t.daddr]
        # two RA saves + two explicit stores, all in distinct frame slots
        assert len(set(stores)) == 4


class TestDataResolution:
    def test_event_data_overrides_global(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("a").load("msg", 0)
        fb.ret()
        p = build_program(fb.build())
        w = Walker(p, {"msg": 0x1000})
        r1 = w.walk([EnterEvent("f"), ExitEvent("f")])
        r2 = w.walk([EnterEvent("f", data={"msg": 0x2000}), ExitEvent("f")])
        addr1 = next(t.daddr for t in r1.trace if t.op is Op.LOAD)
        addr2 = next(t.daddr for t in r2.trace if t.op is Op.LOAD)
        assert addr1 == 0x1000
        assert addr2 == 0x2000

    def test_unknown_region_fails(self):
        fb = FunctionBuilder("f", saves=0)
        fb.block("a").load("mystery", 0)
        fb.ret()
        p = build_program(fb.build())
        with pytest.raises(WalkError):
            Walker(p).walk([EnterEvent("f"), ExitEvent("f")])

    def test_indexed_ref_advances_per_iteration(self):
        fb = FunctionBuilder("f", saves=0, leaf=True)
        fb.block("head").alu(1)
        fb.block("body").load("buf", 0, indexed=True, stride=8)
        fb.branch("more", "body", "done")
        fb.block("done").alu(1)
        fb.ret()
        p = build_program(fb.build())
        res = Walker(p, {"buf": 0x4000}).walk(
            [EnterEvent("f", conds={"more": 2}), ExitEvent("f")]
        )
        loads = [t.daddr for t in res.trace if t.op is Op.LOAD]
        assert loads == [0x4000, 0x4008, 0x4010]


class TestMarks:
    def test_marks_record_positions(self):
        p = build_program(straight_line())
        res = Walker(p).walk(
            [
                MarkEvent("before"),
                EnterEvent("f"),
                ExitEvent("f"),
                MarkEvent("after"),
            ]
        )
        assert res.mark_index("before") == 0
        assert res.mark_index("after") == res.length
        assert res.span("before", "after") == res.length

    def test_unknown_mark_raises(self):
        p = build_program(straight_line())
        res = Walker(p).walk([EnterEvent("f"), ExitEvent("f")])
        with pytest.raises(KeyError):
            res.mark_index("nope")


class TestPurity:
    """A walk only reads its events, so one stream can be walked again."""

    @pytest.mark.parametrize("walker", [Walker, FastWalker],
                             ids=["reference", "fast"])
    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["captured", "fault-plan"])
    @pytest.mark.parametrize("stack", ["tcpip", "rpc"])
    def test_walks_leave_events_unchanged(self, stack, faulted, walker):
        events, data_env = Experiment(stack, "STD").capture_roundtrip(42)
        if faulted:
            plan = FaultPlan(stack=stack, rate=0.5, seed=5)
            events, injected = plan.apply(events, 42)
            assert injected
        # list-valued conds are what a consuming walk would pop
        assert any(isinstance(v, list) for ev in events
                   if isinstance(ev, EnterEvent) for v in ev.conds.values())
        before = clone_events(events)
        # a fresh build has no walk templates: the first walk is a full one
        program = build_configured_program(stack, "STD").program
        first = walker(program, data_env).walk(events)
        assert events == before
        second = walker(program, data_env).walk(events)
        assert events == before
        assert second.packed.fingerprint() == first.packed.fingerprint()
        assert second.marks == first.marks
