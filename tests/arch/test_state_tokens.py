"""Machine-state tokens are exact: equal tokens ⟺ equal states.

The streaming engine interns machine states by ``snapshot_state()``
tokens and jumps between them with ``restore_state()``, so a token must
be a bijection onto the state a pass can observe, and a restore must
reproduce that state from any other.  The b-cache part of a token is its
set of resident blocks rather than the tag array, which only works if
every installed tag is in ``b_ever`` and a restore clears every set the
machine's current ``b_ever`` can occupy.

A token also shares the set parts of the machine's previous token
where they cannot have changed (an ever-resident set of unchanged size,
the resident blocks while no b-cache miss happened), and a restore
rewrites only the resident blocks that differ from the machine's last
token.  A reused set must never hide a pass the machine made since.

These properties run on tiny geometries whose b-cache sets alias
(8–64 sets), under every store mode, against random packed segments and
random pass/restore sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.fastsim import FastMachine
from repro.arch.isa import Op
from repro.arch.memory import MemoryConfig
from repro.arch.packed import OP_CODES, PackedTrace
from repro.arch.simulator import AlphaConfig

#: the packed-segment machines the streaming engine interns states on
MACHINES = {"fast": FastMachine}

_OPS = (Op.ALU, Op.BR, Op.LOAD, Op.STORE)


@st.composite
def configs(draw) -> AlphaConfig:
    block = 32
    mem = MemoryConfig(
        icache_size=block * draw(st.sampled_from([2, 4, 8])),
        dcache_size=block * draw(st.sampled_from([2, 4, 8])),
        bcache_size=block * draw(st.sampled_from([8, 16, 32, 64])),
        block_size=block,
        write_buffer_depth=draw(st.integers(min_value=1, max_value=8)),
        write_coalescing=draw(st.booleans()),
        non_allocating_writes=draw(st.booleans()),
    )
    return AlphaConfig(memory=mem)


#: one instruction: (pc word, op, data word, taken).  Pcs and data span a
#: few hundred blocks so code and data alias in every b-cache drawn.  Most
#: pcs are None, falling through to the next word: straight-line runs
#: cross block boundaries into prefetched blocks (stream-buffer hits).
#: Half the data lands in eight blocks, so loads meet pending stores
#: (store->load forwarding).
_INSTRUCTIONS = st.tuples(
    st.none() | st.none() | st.none() | st.integers(min_value=0, max_value=2_047),
    st.sampled_from(_OPS),
    st.integers(min_value=0, max_value=63) | st.integers(min_value=0, max_value=2_047),
    st.booleans(),
)


def _segment(instructions) -> PackedTrace:
    packed = PackedTrace()
    pc_word = -1
    for jump, op, d_word, taken in instructions:
        pc_word = pc_word + 1 if jump is None else jump
        memory = op in (Op.LOAD, Op.STORE)
        packed.append(
            pc_word * 4,
            OP_CODES[op],
            daddr=d_word * 4 if memory else -1,
            dwrite=op is Op.STORE,
            taken=taken and op is Op.BR,
        )
    return packed


SEGMENTS = st.lists(
    st.lists(_INSTRUCTIONS, min_size=1, max_size=40).map(_segment),
    min_size=1,
    max_size=4,
)

#: short traces whose every instruction jumps among eight blocks, so a
#: pass over them can leave every tag as it found it while its
#: stream-buffer content changes
HOPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),
        st.sampled_from(_OPS),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
    ),
    min_size=2,
    max_size=8,
).map(_segment)

#: (action, argument): pass a segment on the producer, restore an earlier
#: token onto it, revisit one (restore it, pass a segment without
#: snapshotting, restore it again), or let the replayer wander off
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["pass", "pass", "restore", "revisit", "diverge"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=30,
)


def _full_state(machine) -> tuple:
    """Everything a pass can observe, read off the machine directly: the
    whole tag arrays, the ever-resident sets, both buffers."""
    return (
        list(machine._itags),
        list(machine._dtags),
        list(machine._btags),
        set(machine._i_ever),
        set(machine._d_ever),
        set(machine._b_ever),
        list(machine._wb),
        set(machine._wb_set),
        {pair: list(blocks) for pair, blocks in machine._wb_pairs.items()},
        machine._sb_block,
        machine._sb_was_miss,
    )


@pytest.mark.parametrize("engine", MACHINES)
@settings(max_examples=40, deadline=None)
@given(config=configs(), segments=SEGMENTS, steps=STEPS)
def test_tokens_are_exact_under_pass_and_restore(engine, config, segments, steps):
    producer = MACHINES[engine](config)
    replayer = MACHINES[engine](config)
    seen = [(producer.snapshot_state(), _full_state(producer))]
    for action, arg in steps:
        if action == "diverge":
            replayer.mem_delta(segments[arg % len(segments)])
            continue
        if action == "restore":
            token, full = seen[arg % len(seen)]
            producer.restore_state(token)
            assert _full_state(producer) == full
            assert producer.snapshot_state() == token
            continue
        if action == "revisit":
            # the restored token is stale after the pass: the second
            # restore must undo the pass, not trust the sets it shares
            token, full = seen[arg % len(seen)]
            producer.restore_state(token)
            producer.mem_delta(segments[arg % len(segments)])
            producer.restore_state(token)
            assert _full_state(producer) == full
            assert producer.snapshot_state() == token
            continue
        # restore the producer's token onto the replayer, whatever state
        # the replayer is in, then pass the same segment on both
        token, full = producer.snapshot_state(), _full_state(producer)
        replayer.restore_state(token)
        assert _full_state(replayer) == full
        segment = segments[arg % len(segments)]
        delta = producer.mem_delta(segment)
        assert replayer.mem_delta(segment) == delta
        after = producer.snapshot_state()
        assert replayer.snapshot_state() == after
        assert _full_state(replayer) == _full_state(producer)
        seen.append((after, _full_state(producer)))
    for i, (token_a, full_a) in enumerate(seen):
        for token_b, full_b in seen[i + 1 :]:
            assert (token_a == token_b) == (full_a == full_b)


@pytest.mark.parametrize("engine", MACHINES)
def test_restore_clears_tags_the_target_does_not_hold(engine):
    # eight aliasing b-cache sets: a long segment fills them all, a
    # one-instruction segment holds its block and the prefetched next one
    config = AlphaConfig(
        memory=MemoryConfig(icache_size=64, dcache_size=64, bcache_size=256)
    )
    wide = _segment([(word * 8, Op.LOAD, 512 + word * 8, False) for word in range(24)])
    narrow = _segment([(0, Op.ALU, 0, False)])
    small = MACHINES[engine](config)
    small.mem_delta(narrow)
    token = small.snapshot_state()
    big = MACHINES[engine](config)
    big.mem_delta(wide)
    assert sum(tag >= 0 for tag in _full_state(small)[2]) == 2
    assert sum(tag >= 0 for tag in _full_state(big)[2]) == 8
    big.restore_state(token)
    assert _full_state(big) == _full_state(small)
    assert big.mem_delta(wide) == small.mem_delta(wide)
    assert big.snapshot_state() == small.snapshot_state()


@pytest.mark.parametrize("engine", MACHINES)
def test_a_pass_that_changes_no_set_shares_the_previous_tokens_sets(engine):
    # a one-block loop with a load and a store: the first pass misses
    # everywhere, the second hits the i- and d-cache and merges its store
    loop = _segment(
        [
            (0, Op.ALU, 0, False),
            (None, Op.LOAD, 600, False),
            (None, Op.STORE, 600, False),
            (None, Op.ALU, 0, False),
        ]
    )
    machine = MACHINES[engine](AlphaConfig())
    machine.mem_delta(loop)
    first = machine.snapshot_state()
    delta = machine.mem_delta(loop)
    assert delta[1] == delta[4] == delta[7] == 0  # no i-, d- or b-miss
    second = machine.snapshot_state()
    assert second == first
    resident, i_ever, d_ever, b_ever = range(2, 6)
    for part in (resident, i_ever, d_ever, b_ever):
        assert second[part] is first[part]
