"""``python -m repro``: regenerate every table in the paper's evaluation.

Options::

    python -m repro                  # all tables, default sample counts
    python -m repro --samples 2      # faster, fewer samples per cell
    python -m repro --stack rpc      # only the RPC sweep tables
    python -m repro --tables 4 7     # only Tables 4 and 7

Subcommands::

    python -m repro profile <stack> <config>   # stall attribution report
    python -m repro analyze <stack> <config>   # static analysis & checks
    python -m repro faults <stack> <config> --rate 0.25
                                               # fault-injection penalties
    python -m repro search <stack> <config> --budget 64 --seed 0
                                               # profile-guided layout search
    python -m repro traffic <stack> <config> --packets 1000000 --flows 10000
                                               # demux-cache traffic study
    python -m repro resilience <stack> <config> --fault-rates 0 0.01
                                               # faulted streams under load
    python -m repro datalayout                 # data-techniques grid study

Every subcommand fills one :mod:`repro.api` spec from the flags typed and
runs it through the facade; a flag left unset takes the spec's default.
The engine and chaos environment are resolved once, through
:class:`repro.api.Settings`.  Every subcommand exits 0 when its result is
clean, 1 when the result's ``check()`` has findings (each printed to
stderr as ``CHECK FAIL: ...``), and 2 on a usage error, a bad value
included, or when the analyzer itself crashes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.api.settings import ENGINES
from repro.api.spec import SPEC_CONFIGS, SPEC_STACKS

#: help of the stream verbs' ``stack`` positional
_POPULATION = ("traffic population ('mixed' interleaves TCP and RPC flows "
               "on one machine)")


def _parser(verb, description, *, engine_help, stacks=(),
            configs=SPEC_CONFIGS, stack_help=None, engines=ENGINES,
            seed_help=None, json_help=None):
    """One verb's parser, with the arguments every verb shares.

    No argument has a default: a flag left unset is absent from the
    parsed namespace, so the spec it would fill keeps its own default.
    """
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {verb}".rstrip(), description=description,
        argument_default=argparse.SUPPRESS,
    )
    if stacks:
        parser.add_argument("stack", choices=list(stacks), help=stack_help)
        parser.add_argument("config", choices=list(configs))
    parser.add_argument("--engine", choices=list(engines), help=engine_help)
    if seed_help is not None:
        parser.add_argument("--seed", type=int, help=seed_help)
    if json_help is not None:
        parser.add_argument("--json", metavar="PATH", help=json_help)
    return parser


def _stream_flags(parser, mixes) -> None:
    """The stream flags ``traffic`` and ``resilience`` share."""
    parser.add_argument("--packets", type=int,
                        help="packets per sweep point (default: 1000000)")
    parser.add_argument("--mixes", nargs="+", choices=list(mixes),
                        help="arrival mixes to sweep (default: zipf)")
    parser.add_argument("--warmup", type=int, dest="warmup_packets",
                        help="packets excluded from the steady window")
    parser.add_argument("--churn", type=float,
                        help="per-packet connection-replacement "
                             "probability")


def _parse(parser, argv, check=None):
    """Parse ``argv``, then resolve the engine (``--engine`` or
    ``$REPRO_SIM_ENGINE``) before any work: an unknown engine, or one
    the verb's ``check`` refuses, is a usage error."""
    from repro.api import Settings

    flags = vars(parser.parse_args(argv))
    try:
        engine = Settings.from_env(engine=flags.get("engine")).engine
        if check is not None:
            check(engine)
    except ValueError as exc:
        parser.error(str(exc))
    return flags


def _typed(flags, *names):
    """The typed flags among ``names``."""
    return {name: flags[name] for name in names if name in flags}


def _fill(parser, cls, flags, **given):
    """A ``cls`` spec from the typed flags named like its fields.

    ``given`` wins over a flag of the same name.  A ``ValueError`` the
    spec raises while it is built or validated is a usage error:
    ``parser.error`` prints it and exits 2.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    values = {name: tuple(v) if isinstance(v, list) else v
              for name, v in _typed(flags, *names).items()}
    try:
        spec = cls(**{**values, **given})
        if hasattr(spec, "validate"):
            spec.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return spec


def _finish(result, flags, text=None, problems=()) -> int:
    """The one exit rule: write the JSON, print the text, gate on checks.

    ``result.to_json()`` goes to the ``--json`` path ('-' is stdout, which
    then carries nothing else), ``text`` (default: ``result.render()``)
    to stdout, and each finding of ``result.check()`` and ``problems`` to
    stderr as ``CHECK FAIL: ...``.  Returns 1 if there were any, else 0.
    """
    path = flags.get("json")
    if path is not None:
        payload = json.dumps(result.to_json(), indent=2) + "\n"
        if path == "-":
            sys.stdout.write(payload)
        else:
            with open(path, "w") as fh:
                fh.write(payload)
    if path != "-":
        print(result.render() if text is None else text)
    found = [*result.check(), *problems]
    for problem in found:
        print(f"CHECK FAIL: {problem}", file=sys.stderr)
    return 1 if found else 0


class _Cells(list):
    """``analyze``'s cells as one result: a JSON list and every finding."""

    def to_json(self):
        return [cell.to_json() for cell in self]

    def check(self):
        return [problem for cell in self for problem in cell.check()]


def profile_main(argv=None) -> int:
    """``python -m repro profile``: attribute one cell's stall cycles."""
    parser = _parser(
        "profile",
        "Attribute every memory stall cycle of one (stack, configuration) "
        "cell to (layer, function, cache, miss kind), and show the i-cache "
        "conflict matrix.",
        stacks=SPEC_STACKS,
        engine_help="simulation engine (default: $REPRO_SIM_ENGINE or fast)",
        seed_help="allocator jitter seed of the traced sample",
        json_help="also write the full report as JSON ('-' for stdout)",
    )
    parser.add_argument("--top", type=int,
                        help="rows in the function/conflict listings")
    flags = _parse(parser, argv)

    from repro import api

    cell = api.profile(_fill(parser, api.ProfileSpec, flags))
    return _finish(cell, flags, cell.render(**_typed(flags, "top")))


def analyze_main(argv=None) -> int:
    """``python -m repro analyze``: verify, prove, predict and bound.

    Exit codes are machine-readable: 0 means every analyzed cell is
    clean, 1 means the analysis ran and produced findings, 2 means the
    analyzer itself failed — so CI and scripts can tell "found issues"
    from "analyzer crashed".
    """
    parser = _parser(
        "analyze",
        "Static analysis of one (stack, configuration) cell: IR "
        "well-formedness after every build stage, transformation-"
        "equivalence proofs, a static i-cache conflict prediction "
        "cross-validated against the simulated eviction matrix, and (with "
        "--bounds) sound abstract-interpretation latency bounds checked "
        "against the measuring engine.  Exit codes: 0 clean, 1 findings, "
        "2 internal error.",
        stacks=SPEC_STACKS + ("all",),
        configs=SPEC_CONFIGS + ("all",),
        engine_help="engine for the simulated cross-validations "
                    "(default: $REPRO_SIM_ENGINE or fast)",
        seed_help="allocator jitter seed of the validated sample",
        json_help="write the structured per-cell reports as JSON "
                  "('-' for stdout)",
    )
    parser.add_argument("--static-only", action="store_false",
                        dest="check_conflicts",
                        help="skip the simulated conflict cross-validation "
                             "(no sample is traced; purely static checks)")
    parser.add_argument("--bounds", action="store_true",
                        help="also compute static cold/steady mCPI bounds "
                             "and check lower <= simulated <= upper "
                             "against the selected engine")
    parser.add_argument("--show-prediction", action="store_true",
                        help="print the predicted conflict pairs per cell")
    flags = _parse(parser, argv)

    from repro import api
    from repro.analysis import render_prediction

    stacks = SPEC_STACKS if flags["stack"] == "all" else (flags["stack"],)
    configs = SPEC_CONFIGS if flags["config"] == "all" else (flags["config"],)
    specs = [_fill(parser, api.AnalyzeSpec, flags,
                   run=_fill(parser, api.RunSpec, flags, stack=s, config=c))
             for s in stacks for c in configs]
    cells, text = _Cells(), []
    try:
        for spec in specs:
            cell = api.analyze(spec)
            cells.append(cell)
            text.append(cell.render())
            if cell.bounds is not None:
                text.append(cell.bounds.render())
            if "show_prediction" in flags and cell.prediction is not None:
                text.append(render_prediction(cell.prediction))
    except Exception as exc:  # noqa: BLE001 - the CLI's crash boundary
        print(f"ANALYZER ERROR: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    if not cells.check():
        text.append(f"OK: {len(cells)} cell(s) clean")
    return _finish(cells, flags, "\n".join(text))


def faults_main(argv=None) -> int:
    """``python -m repro faults``: price the error paths of one stack."""
    from repro.faults.plan import FAULT_KINDS

    parser = _parser(
        "faults",
        "Inject seeded workload faults (corrupted checksums, truncated "
        "headers, demux-cache misses, dropped and duplicated packets) into "
        "the modeled test programs and report the per-configuration "
        "processing-time and mCPI penalty against a fault-free sweep.",
        stacks=SPEC_STACKS,
        configs=SPEC_CONFIGS + ("all",),
        engine_help="simulation engine (default: $REPRO_SIM_ENGINE or fast)",
        seed_help="fault plan seed (injection sites; the allocator jitter "
                  "seeds are unchanged)",
        json_help="also write the table as JSON ('-' for stdout)",
    )
    parser.add_argument("--rate", type=float, required=True,
                        help="per-opportunity injection probability in "
                             "[0, 1]")
    parser.add_argument("--kinds", nargs="*", choices=list(FAULT_KINDS),
                        help="restrict the fault taxonomy (default: all)")
    parser.add_argument("--samples", type=int,
                        help="samples per configuration (default: the "
                             "paper's 10 for TCP/IP, 5 for RPC)")
    flags = _parse(parser, argv)

    from repro import api

    if flags.get("kinds") == []:
        del flags["kinds"]  # a bare --kinds means every kind, as unset does
    configs = SPEC_CONFIGS if flags["config"] == "all" else (flags["config"],)
    spec = _fill(parser, api.FaultsSpec, flags, configs=configs)
    return _finish(api.faults(spec), flags)


def search_main(argv=None) -> int:
    """``python -m repro search``: profile-guided layout search of one cell."""
    parser = _parser(
        "search",
        "Search for a better code layout of one (stack, configuration) "
        "cell: candidate generators (conflict-graph placer, call-affinity "
        "ordering, local-search mutation) feed a statically-prefiltered, "
        "simulation-scored loop.  Reports the best layout found against "
        "the paper's baselines and can emit it as a replayable JSON "
        "artifact.",
        stacks=SPEC_STACKS,
        engine_help="scoring engine (default: $REPRO_SIM_ENGINE or fast; scores "
                    "are bit-identical either way)",
        seed_help="search seed (drives every random choice)",
        json_help="write the full search report as JSON ('-' for stdout)",
    )
    parser.add_argument("--budget", type=int,
                        help="candidate simulations to spend (default: 64)")
    parser.add_argument("--base-seed", type=int,
                        help="allocator jitter seed of the scored sample")
    parser.add_argument("--parallel", action="store_true",
                        help="score candidate batches on the process pool")
    parser.add_argument("--micro", action="store_true",
                        dest="micro_baseline",
                        help="also score the paper's micro-positioned "
                             "layout as a baseline (slower)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the winning layout artifact as JSON")
    parser.add_argument("--check", metavar="PATH",
                        help="compare against a recorded artifact: exit "
                             "nonzero unless this search reproduces its "
                             "best score bit-for-bit")
    flags = _parse(parser, argv)

    from repro import api
    from repro.search import LayoutArtifact

    base_seed = {"seed": flags["base_seed"]} if "base_seed" in flags else {}
    run = _fill(parser, api.RunSpec, _typed(flags, "stack", "config", "engine"),
                **base_seed)
    spec = _fill(parser, api.SearchSpec, flags, run=run)
    if "check" in flags:
        # an artifact that cannot be read is a usage error, found before
        # the search spends its budget
        try:
            recorded = LayoutArtifact.load(flags["check"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            parser.error(f"argument --check: cannot load {flags['check']!r}: "
                         f"{type(exc).__name__}: {exc}")
    result = api.search(spec)

    if "out" in flags:
        result.artifact.save(flags["out"])
    text, problems = result.render(), []
    if "check" in flags:
        if (recorded.stack, recorded.config) != (run.stack, run.config):
            problems.append(
                f"recorded artifact is for ({recorded.stack}, "
                f"{recorded.config}), not ({run.stack}, {run.config})")
        if (recorded.seed, recorded.budget) != (spec.seed, spec.budget):
            problems.append(
                f"recorded (seed, budget) = ({recorded.seed}, "
                f"{recorded.budget}) != ({spec.seed}, {spec.budget})")
        if recorded.score != result.artifact.score:
            problems.append(
                f"best score drifted: recorded {recorded.score} != "
                f"found {result.artifact.score}")
        if recorded.placements != result.artifact.placements:
            problems.append("winning placements drifted")
        if not problems:
            text += f"\ncheck OK: reproduces {flags['check']} bit-for-bit"
    return _finish(result, flags, text, problems)


def traffic_main(argv=None) -> int:
    """``python -m repro traffic``: million-flow demux-cache study."""
    from repro.traffic import MIXES, STACKS, TrafficSpec
    from repro.traffic.stream import check_stream_engine

    parser = _parser(
        "traffic",
        "Stream a synthetic packet mix (Zipf/uniform/bursty/scan arrivals, "
        "connection churn, optional mixed TCP+RPC populations) through one "
        "configuration's demux path and sweep the flow-map caching scheme, "
        "reporting per-scheme hit rates and steady-state mCPI as a "
        "paper-style table.",
        stacks=STACKS,
        stack_help=_POPULATION,
        engines=("fast",),
        engine_help="streaming engine (default: $REPRO_SIM_ENGINE or fast; "
                    "tables are bit-identical across engines, and the reference "
                    "engine has no packed-segment pass)",
        seed_help="arrival/churn stream seed",
        json_help="also write the full study as JSON ('-' for stdout)",
    )
    _stream_flags(parser, MIXES)
    parser.add_argument("--flows", type=int, nargs="+", dest="flow_counts",
                        help="concurrent-flow counts to sweep "
                             "(default: 10000)")
    parser.add_argument("--schemes", nargs="+",
                        help="flow-map caching schemes: none, one-entry, "
                             "lru:K, direct:N, assoc:SxW "
                             "(default: the full taxonomy)")
    parser.add_argument("--scan-fraction", type=float,
                        help="never-bound-key fraction of the scan mix")
    parser.add_argument("--rpc-fraction", type=float,
                        help="RPC share of the mixed population")
    parser.add_argument("--zipf-s", type=float,
                        help="Zipf skew of the flow popularity ranking")
    flags = _parse(parser, argv, check_stream_engine)

    from repro import api

    # the stream itself carries the first flow count of the sweep
    first = {"flows": flags["flow_counts"][0]} if "flow_counts" in flags else {}
    stream = _fill(parser, TrafficSpec, flags, **first)
    spec = _fill(parser, api.TrafficStudySpec, flags, traffic=stream)
    return _finish(api.traffic(spec), flags)


def resilience_main(argv=None) -> int:
    """``python -m repro resilience``: faulted streams under offered load."""
    from repro.resilience import POLICIES, SCOPES, OverloadSpec
    from repro.traffic import MIXES, STACKS, TrafficSpec
    from repro.traffic.stream import check_stream_engine

    parser = _parser(
        "resilience",
        "Stream faulted traffic (corrupted checksums, truncated headers, "
        "bad demux keys, duplicated packets at seeded per-packet rates) "
        "through one configuration's demux path, layer a bounded ingress "
        "queue over the per-packet service cycles, and sweep scheme x mix x "
        "fault rate, reporting offered-load vs p50/p99/p999 sojourn latency "
        "with drop accounting and saturation detection.",
        stacks=STACKS,
        stack_help=_POPULATION,
        engines=("fast",),
        engine_help="streaming engine (default: $REPRO_SIM_ENGINE or fast; "
                    "studies are bit-identical across engines, and the reference "
                    "engine has no packed-segment pass)",
        seed_help="arrival/churn stream seed",
        json_help="also write the full study as JSON ('-' for stdout)",
    )
    _stream_flags(parser, MIXES)
    parser.add_argument("--flows", type=int,
                        help="concurrent flows (default: 10000)")
    parser.add_argument("--schemes", nargs="+",
                        help="flow-map caching schemes: none, one-entry, "
                             "lru:K, direct:N, assoc:SxW "
                             "(default: one-entry lru:4)")
    parser.add_argument("--fault-rates", type=float, nargs="+",
                        help="total per-packet fault rates to sweep, each "
                             "spread uniformly over the receive-side "
                             "kinds (default: 0.0 0.01)")
    parser.add_argument("--scope", choices=list(SCOPES),
                        help="which flows faults may hit (default: all)")
    parser.add_argument("--profile-seed", type=int,
                        help="fault-arrival seed (the traffic spec's "
                             "arrival/churn seed is unchanged)")
    parser.add_argument("--loads", type=int, nargs="+",
                        help="offered-load points, percent of the "
                             "stream's service capacity "
                             "(default: 60 80 90 100 110 130)")
    parser.add_argument("--queue-capacity", type=int,
                        help="max packets in system under drop-tail")
    parser.add_argument("--policy", choices=list(POLICIES),
                        help="ingress admission policy")
    parser.add_argument("--parallel", action="store_true",
                        help="run grid cells on the self-healing pool")
    flags = _parse(parser, argv, check_stream_engine)

    from repro import api

    stream = _fill(parser, TrafficSpec, flags)
    # an overload nobody typed stays unset, the spec's default
    if flags.keys() & {"loads", "queue_capacity", "policy"}:
        flags["overload"] = _fill(parser, OverloadSpec, flags)
    spec = _fill(parser, api.ResilienceStudySpec, flags, traffic=stream)
    return _finish(api.resilience(spec), flags)


def datalayout_main(argv=None) -> int:
    """``python -m repro datalayout``: the data-techniques grid study."""
    from repro.datalayout import TECHNIQUE_NAMES

    parser = _parser(
        "datalayout",
        "Measure the data-side techniques (store coalescing, non-allocating "
        "writes, field packing, hot/cold splitting) over the paper's 12 "
        "(stack, configuration) cells, counting the write-buffer and "
        "d-cache stalls and bracketing every cell with static bounds under "
        "the same store behaviour.",
        engine_help="simulation engine (default: $REPRO_SIM_ENGINE or fast; "
                    "tables are bit-identical across engines)",
        seed_help="allocator jitter seed of the traced samples",
        json_help="also write the full grid as JSON ('-' for stdout)",
    )
    parser.add_argument("--techniques", nargs="+",
                        choices=list(TECHNIQUE_NAMES),
                        help="data techniques to measure (default: all; "
                             "baseline is always included)")
    parser.add_argument("--stacks", nargs="+", choices=list(SPEC_STACKS))
    parser.add_argument("--configs", nargs="+", choices=list(SPEC_CONFIGS))
    flags = _parse(parser, argv)

    from repro import api

    return _finish(api.datalayout(_fill(parser, api.DatalayoutSpec, flags)),
                   flags)


#: CLI subcommand -> entry point; mirrors repro.api.FACADE_VERBS minus
#: run/sweep, whose CLI form is the default table driver below (a test
#: pins this correspondence)
SUBCOMMANDS = {
    "profile": profile_main,
    "analyze": analyze_main,
    "faults": faults_main,
    "search": search_main,
    "traffic": traffic_main,
    "resilience": resilience_main,
    "datalayout": datalayout_main,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = _parser(
        "",
        "Regenerate the tables of TR 96-03 from the reproduction's "
        "simulated testbed.",
        engine_help="simulation engine for the sweeps (default: "
                    "$REPRO_SIM_ENGINE or fast)",
    )
    parser.add_argument("--samples", type=int,
                        help="samples per configuration (default: the "
                             "paper's 10 for TCP/IP, 5 for RPC)")
    parser.add_argument("--stack", choices=["tcpip", "rpc", "both"],
                        default="both")
    parser.add_argument("--tables", nargs="*", type=int,
                        help="subset of table numbers (1-9)")
    flags = _parse(parser, argv)

    wanted = set(flags.get("tables") or range(1, 10))
    stacks = ["tcpip", "rpc"] if flags["stack"] == "both" else [flags["stack"]]
    started = time.time()

    from repro.api import Settings
    from repro.harness import reporting, tables

    # _parse has checked the environment; everything below threads these
    # settings explicitly
    settings = Settings.from_env(engine=flags.get("engine"))

    def emit(text: str) -> None:
        print(text)
        print()

    if wanted & {1} and "tcpip" in stacks:
        savings, total = tables.compute_table1()
        emit(reporting.render_table1(savings, total))
    if wanted & {2} and "tcpip" in stacks:
        emit(reporting.render_table2(tables.compute_table2()))
    if wanted & {3} and "tcpip" in stacks:
        emit(reporting.render_table3(tables.compute_table3()))

    if wanted & {4, 5, 6, 7, 8}:
        for stack in stacks:
            print(f"... running the {stack} configuration sweep ...",
                  file=sys.stderr)
            sweep = tables.compute_sweep(stack, samples=flags.get("samples"),
                                         settings=settings)
            if 4 in wanted:
                emit(reporting.render_table4(sweep, stack))
            if 5 in wanted:
                emit(reporting.render_table5(sweep, stack))
            if 6 in wanted:
                emit(reporting.render_table6(sweep, stack))
            if 7 in wanted:
                emit(reporting.render_table7(sweep, stack))
            if 8 in wanted:
                emit(reporting.render_table8(
                    tables.compute_table8(sweep), stack))

    if wanted & {9}:
        emit(reporting.render_table9(tables.compute_table9()))

    print(f"[done in {time.time() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
