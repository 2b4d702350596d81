"""The paper's primary contribution: latency-reducing code transformations.

This package implements a small compiler/linker substrate — an IR of
functions, basic blocks and instructions — together with the three
techniques evaluated by the paper:

* **outlining** (:mod:`repro.core.outline`): move statically-predicted
  unlikely basic blocks (error handling, initialization, unrolled loops) out
  of the mainline so the hot path is branch-free and dense in the i-cache,
* **cloning** (:mod:`repro.core.clone`): copy path functions, specialize
  their prologues/call linkage, and relocate them under an explicit layout
  strategy (:mod:`repro.core.layout`), most notably the *bipartite* layout
  that separates once-per-path functions from multiply-invoked library
  functions,
* **path-inlining** (:mod:`repro.core.pathinline`): collapse an entire
  latency-critical protocol path into a single function, eliminating call
  overhead and widening the optimizer's context.

The IR is *executable*: :mod:`repro.core.walker` expands a run-time event
stream (recorded while the real Python protocol stack processes real
packets) into the instruction/data-address trace that the machine model in
:mod:`repro.arch` consumes.
"""

from repro.core.ir import (
    BasicBlock,
    CallDynamic,
    CallStatic,
    CondBranch,
    DataRef,
    Fallthrough,
    Function,
    FunctionBuilder,
    Instruction,
    Jump,
    Return,
)
from repro.core.program import Program
from repro.core.layout import (
    LayoutStrategy,
    link_order_layout,
    pessimal_layout,
    bipartite_layout,
    linear_layout,
    micro_positioning_layout,
)
from repro.core.outline import outline_program, outline_function
from repro.core.inline import inline_call, should_inline
from repro.core.pathinline import path_inline
from repro.core.clone import clone_functions
from repro.core.fastwalk import FastWalker, TraceTemplate
from repro.core.walker import Walker, EnterEvent, ExitEvent

__all__ = [
    "BasicBlock",
    "CallDynamic",
    "CallStatic",
    "CondBranch",
    "DataRef",
    "Fallthrough",
    "Function",
    "FunctionBuilder",
    "Instruction",
    "Jump",
    "Return",
    "Program",
    "LayoutStrategy",
    "link_order_layout",
    "pessimal_layout",
    "bipartite_layout",
    "linear_layout",
    "micro_positioning_layout",
    "outline_program",
    "outline_function",
    "inline_call",
    "should_inline",
    "path_inline",
    "clone_functions",
    "Walker",
    "FastWalker",
    "TraceTemplate",
    "EnterEvent",
    "ExitEvent",
]
