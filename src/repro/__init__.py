"""repro: a reproduction of "Analysis of Techniques to Improve Protocol
Processing Latency" (Mosberger, Peterson, Bridges & O'Malley, TR 96-03 /
SIGCOMM '96).

The package rebuilds the paper's entire experimental system in Python:

* :mod:`repro.arch` — the DEC 3000/600 machine model (dual-issue Alpha
  21064 CPU timing + the direct-mapped i-/d-/b-cache hierarchy) that turns
  instruction traces into cycles, iCPI and mCPI,
* :mod:`repro.core` — the paper's contribution: a compiler IR plus the
  outlining, cloning (bipartite layout), path-inlining and layout passes,
* :mod:`repro.xkernel` — the x-kernel substrate: protocols, sessions,
  messages, demux maps, events, threads with continuations,
* :mod:`repro.net` — Ethernet wire and LANCE controller models, including
  the sparse shared-memory region and the USC field accessors,
* :mod:`repro.protocols` — byte-exact TCP/IP and Sprite-style RPC stacks,
  each paired with instruction-level models of its compiled code,
* :mod:`repro.harness` — the six build configurations (STD/OUT/CLO/BAD/
  PIN/ALL), the measurement driver, and renderers for every table and
  figure in the paper's evaluation,
* :mod:`repro.search` — profile-guided layout search: candidate
  generators, a statically-prefiltered batched evaluator, and a seeded
  search loop that beats the paper's hand-designed layouts,
* :mod:`repro.api` — the unified facade: nine verbs (``run``, ``sweep``,
  ``search``, ``traffic``, ``resilience``, ``analyze``, ``profile``,
  ``faults``, ``datalayout``), each taking one frozen spec, with all
  environment configuration resolved once through
  :class:`~repro.api.Settings`.

Quick start::

    from repro.api import RunSpec, SearchSpec, run, sweep, search

    result = run(RunSpec("tcpip", "CLO", samples=3))
    table = sweep([RunSpec("tcpip", c, samples=3)
                   for c in ("STD", "OUT", "CLO", "BAD", "PIN", "ALL")])
    found = search(SearchSpec(RunSpec("tcpip", "CLO"), budget=64, seed=0))

or run ``python -m repro`` to regenerate every table at once.
"""

__version__ = "1.1.0"

from repro.protocols.options import Section2Options

__all__ = ["Section2Options", "__version__"]
