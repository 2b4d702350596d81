"""One repetition of one workload, in a fresh process.

Invoked by ``run.py`` as ``python child.py '<job json>'`` with ``src`` on
``PYTHONPATH``; prints one JSON report as its last stdout line.  The job
names the workload, the seed, the scale and whether to trace; with
``"execute": false`` the child only imports and generates its inputs,
which compiles the bytecode before any timed repetition.

``setup_s`` runs from this module's first statement through importing
the package (every module a hook names, traced or not) and generating
the workload's specs.  The timed region is the workload's API calls
alone: digesting and checking happen in the parent.  Both are reported
in wall seconds and in reference seconds (``speed.py``).
"""

import time

_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402


def main(argv: list, probe: speed.Probe) -> int:
    job = json.loads(argv[1])
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        raise SystemExit(f"REPRO_* must be cleared before a repetition: {leaked}")

    import hooks
    import workloads

    for module in hooks.HOOKED_MODULES:
        importlib.import_module(module)
    workload = workloads.WORKLOADS[job["workload"]]
    inputs = workload.make(job["seed"], job["scale"])
    setup_wall_s = time.perf_counter() - _START
    setup_s = probe.reference_seconds(setup_wall_s, 0, probe.mark())
    if not job.get("execute", True):
        return 0

    tracer = hooks.Tracer() if job["trace"] else None
    unresolved = hooks.install(tracer) if tracer is not None else []
    since = probe.mark()
    start = time.perf_counter()
    outcome = workload.execute(inputs)
    wall_s = time.perf_counter() - start
    until = probe.mark()
    probe.stop()

    report = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "ref_s": probe.reference_seconds(wall_s, since, until),
        "wall_s": wall_s,
        "items": outcome.items,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": outcome.problems,
        "output": outcome.output,
    }
    if tracer is not None:
        from repro.arch import simcache

        report["layers"] = hooks.layer_metrics(
            tracer,
            outcome.points,
            outcome.faulted_packets,
            (simcache.hits, simcache.misses),
            wall_s,
        )
        report["missing"] = hooks.missing(job["workload"], tracer, unresolved)
        report["spans"] = [
            [name, round(s - start, 6), round(e - start, 6), parent]
            for name, s, e, parent in tracer.spans
        ]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    probe = speed.Probe()
    try:
        code = main(sys.argv, probe)
    finally:
        # a timer left running would kill the exiting interpreter
        probe.stop()
    sys.exit(code)
