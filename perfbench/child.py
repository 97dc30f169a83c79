"""The benchmark's fresh-interpreter processes.

Run by :mod:`workloads`, never by hand.  Each mode prints ``ready`` once
the program is imported, then one JSON line with what it measured:

* ``ready`` -- import only (a set-up sample of the cold-suite workload);
* ``suite`` -- one ``ProfilingSession.run_suite`` pass over a disk cache;
* ``steady`` -- steady-exec: set-up, then repeated plain and instrumented
  executions;
* ``serve`` -- ``repro serve`` with span tracing installed (traced
  serve-mix runs only; untraced runs start the CLI itself).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (MODES, TECHNIQUES, Checker, digest,  # noqa: E402
                    expected_suite, geomean, import_program, load_reference,
                    percentile, self_peak_rss_mb, SpeedSampler,
                    speed_factor, workload_outputs)


def _recorder(trace: str):
    """Install span tracing when ``trace`` names an output file."""
    if not trace:
        return None
    from tracing import Recorder, install

    recorder = Recorder()
    install(recorder)
    return recorder


def _ready() -> None:
    print("ready", flush=True)


def run_suite_pass(args) -> dict:
    from repro.engine.cache import ArtifactCache
    from repro.engine.session import ProfilingSession
    from repro.workloads import get_workload

    recorder = _recorder(args.trace)
    reference = load_reference(args.corrupt)
    workloads = [get_workload(n) for n in args.programs.split(",")]
    _ready()
    session = ProfilingSession(cache=ArtifactCache(disk_dir=args.cache),
                               backend=args.backend)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        results = session.run_suite(workloads)
        wall = time.perf_counter() - start
    if recorder is not None:
        recorder.dump(Path(args.trace))
    checker = Checker()
    for name, result in results.items():
        checker.op(f"{args.backend} {name}", expected_suite(reference, name),
                   workload_outputs(result))
    return {"wall_s": wall, "norm_s": sampler.normalise(wall),
            "disk_hits": session.cache.stats.disk_hits,
            "attempted": checker.attempted, "failed": checker.failed,
            "notes": checker.notes}


def run_steady(args) -> dict:
    import repro.core as core
    from repro.engine.session import ProfilingSession
    from repro.interp.machine import Machine
    from repro.profiles import edge_profile_to_dict
    from repro.workloads import get_workload

    recorder = _recorder(args.trace)
    reference = load_reference(args.corrupt)
    names = args.programs.split(",")
    _ready()
    checker = Checker()
    # Set-up: compile, expand, trace and plan every program, then
    # execute each plan once so its generated code is cached.
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        built = {}
        for name in names:
            session = ProfilingSession()
            module = session.expand(get_workload(name)).module
            _paths, edges, _rv = session.trace(module)
            plans = {t: session.plan(t, module, None if t == "pp" else edges)
                     for t in TECHNIQUES}
            Machine(module).run()
            for plan in plans.values():
                core.run_with_plan(plan)
            built[name] = (module, plans, edges)
        setup_wall = time.perf_counter() - start
    setup_s = sampler.normalise(setup_wall)
    if recorder is not None:
        recorder.spans.clear()  # a traced run traces the timed phase only
    for name, (module, plans, edges) in built.items():
        ref = reference["programs"][name]["suite"]
        checker.op(f"setup {name}",
                   {"edge_digest": ref["edge_digest"],
                    **{f"{t}.static_ops": ref["techniques"][t]["static_ops"]
                       for t in TECHNIQUES}},
                   {"edge_digest": digest(edge_profile_to_dict(edges)),
                    **{f"{t}.static_ops": plans[t].static_ops()
                       for t in TECHNIQUES}})

    # Timed phase: every (program, mode) once per round, in seeded order.
    rng = random.Random(args.seed)
    ops = [(name, mode) for name in names for mode in MODES]
    samples: dict[tuple[str, str], list[float]] = {op: [] for op in ops}
    plain_instructions = 0
    raw_s = 0.0
    count = 0
    begin = time.perf_counter()
    while True:
        if count % len(ops) == 0:
            rng.shuffle(ops)
        name, mode = ops[count % len(ops)]
        module, plans, _edges = built[name]
        ref = reference["programs"][name]["suite"]
        t0 = time.perf_counter()
        if mode == "plain":
            result = Machine(module).run()
            t1 = time.perf_counter()
            plain_instructions += result.instructions_executed
            checker.op(f"plain {name}",
                       {"return_value": ref["return_value"],
                        "instructions": ref["plain_instructions"]},
                       {"return_value": result.return_value,
                        "instructions": result.instructions_executed})
        else:
            run = core.run_with_plan(plans[mode])
            t1 = time.perf_counter()
            checker.op(f"{mode} {name}",
                       {"return_value": ref["return_value"],
                        "overhead": ref["techniques"][mode]["overhead"]},
                       {"return_value": run.run.return_value,
                        "overhead": run.overhead})
        samples[(name, mode)].append((t1 - t0) * speed_factor())
        raw_s += t1 - t0
        count += 1
        # Only whole rounds, so every run has the same mix of executions.
        if count % len(ops) == 0 and (
                count == args.rounds * len(ops) if args.rounds
                else t1 - begin >= args.seconds):
            break
    wall = time.perf_counter() - begin
    if recorder is not None:
        recorder.dump(Path(args.trace))

    # samples hold normalised seconds (see common.speed_factor).
    latencies = [s * 1e3 for v in samples.values() for s in v]
    median = {op: statistics.median(v) for op, v in samples.items() if v}
    slowdowns = {t: geomean([median[(n, t)] / median[(n, "plain")]
                             for n in names])
                 for t in TECHNIQUES}
    plain_s = sum(sum(samples[(n, "plain")]) for n in names)
    return {"setup_s": setup_s, "wall_s": wall,
            "norm_s": sum(latencies) / 1e3,
            "p50_ms": percentile(latencies, 50),
            "p90_ms": percentile(latencies, 90),
            "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
            "raw_ops_per_s": len(latencies) / raw_s,
            "plain_ir_ops_per_s": plain_instructions / plain_s,
            "slowdowns": slowdowns,
            "peak_rss_mb": self_peak_rss_mb(),
            "attempted": checker.attempted, "failed": checker.failed,
            "notes": checker.notes}


def run_server(args, serve_args: list[str]) -> int:
    from tracing import Recorder, install

    import repro.__main__ as cli

    trace_dir = Path(args.trace)
    recorder = Recorder(trace_dir)
    install(recorder)
    code = cli.main(serve_args)
    recorder.dump(trace_dir / "server.json")
    return code


def main() -> int:
    argv = sys.argv[1:]
    serve_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, serve_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("ready", "suite", "steady",
                                         "serve"))
    parser.add_argument("--programs", default="")
    parser.add_argument("--cache", default="")
    parser.add_argument("--backend", default="compiled")
    parser.add_argument("--trace", default="")
    parser.add_argument("--corrupt", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.mode == "ready":
        _ready()
        return 0
    if args.mode == "serve":
        return run_server(args, serve_args)
    out = run_suite_pass(args) if args.mode == "suite" else run_steady(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
