"""Command-line driver: ``python -m repro.harness <experiment> [options]``.

Experiments: ``table1``, ``table2``, ``fig9``, ``fig10``, ``fig11``,
``fig12``, ``fig13``, ``oaat`` (the Section 8.3 one-at-a-time study),
``matching`` (the stale-profile matching study), or ``all``.  ``--scale`` stretches every workload's driver loops;
``--benchmarks`` restricts the suite.  ``--jobs N`` fans cold workloads
over N worker processes; results are cached content-addressed under
``results/.cache/`` (see ``--cache-dir``), so re-running an experiment
recompiles and re-interprets nothing.  ``--no-cache`` disables both
cache layers; ``python -m repro cache`` manages the on-disk layer.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cli import (DEFAULT_CACHE_DIR, build_session, install_chaos,
                   parse_profilers, parse_workloads, run_command)
from ..workloads import get_workload
from . import (figure9, figure10, figure11, figure12, figure13,
               hpt_table, ifconvert_table, matching_table, metrics_table,
               net_table, one_at_a_time, profiler_table, sampling_table,
               superblock_table, table1, table2)

EXPERIMENTS = ("table1", "table2", "fig9", "fig10", "fig11", "fig12",
               "fig13", "oaat", "net", "superblocks", "ifconvert",
               "metrics", "sampling", "hpt", "profilers", "matching",
               "all")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--benchmarks", type=str, default="",
                        help="comma-separated benchmark subset")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for cold workloads "
                             "(default 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache (memory and disk)")
    parser.add_argument("--backend", choices=("compiled", "tuple"),
                        default=None,
                        help="interpreter backend (default: $REPRO_BACKEND "
                             "or compiled)")
    parser.add_argument("--profilers", metavar="NAMES", default="",
                        help="comma-separated extra registry profilers "
                             "fused into every instrumented run (see "
                             "'python -m repro profilers'); their results "
                             "ride on each workload's record")
    parser.add_argument("--sparse-edges", action="store_true",
                        help="count edges only on flow-conservation "
                             "probes (the edges-sparse profiler rides on "
                             "every run and reconstructs full profiles)")
    parser.add_argument("--verify", action="store_true",
                        help="statically verify every instrumentation "
                             "plan before running it (or set "
                             "REPRO_VERIFY=1); fails fast on a bad plan")
    parser.add_argument("--equiv", action="store_true",
                        help="translation-validate every piece of "
                             "generated code before executing it (or set "
                             "REPRO_EQUIV=1); fails fast on a mismatch")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per workload task under "
                             "--jobs; timed-out tasks are retried "
                             "(default: none)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget per task for timeouts, "
                             "worker crashes, and transient errors "
                             "(default 2); exhausted tasks run inline")
    parser.add_argument("--chaos", metavar="SPEC", default="",
                        help="deterministic fault-injection plan, e.g. "
                             "'seed=7,kill-task=1,corrupt-write=trace:0' "
                             "(or set REPRO_FAULTS); see "
                             "repro.engine.faults")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=DEFAULT_CACHE_DIR,
                        help="on-disk cache directory (default "
                             f"{DEFAULT_CACHE_DIR}; empty = memory only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--save-dir", metavar="DIR", default="",
                        help="also write each rendering to DIR/<name>.txt")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="dump all per-benchmark metrics as JSON")
    return run_command(_run, parser.parse_args(argv))


def _run(args) -> int:
    workloads = parse_workloads(args.benchmarks)
    if args.equiv:
        # Resolved by every Machine (including the ones worker
        # processes build), exactly like REPRO_VERIFY.
        import os
        os.environ["REPRO_EQUIV"] = "1"

    # Validate eagerly: a typo should fail before any work.
    install_chaos(args.chaos)
    profiler_names = parse_profilers(args.profilers)
    if args.sparse_edges and "edges-sparse" not in profiler_names:
        profiler_names += ("edges-sparse",)
    session = build_session(jobs=args.jobs, no_cache=args.no_cache,
                            cache_dir=args.cache_dir, backend=args.backend,
                            verify=True if args.verify else None,
                            timeout=args.timeout, retries=args.retries,
                            profilers=profiler_names)

    start = time.time()
    if not args.quiet:
        print(f"running {len(workloads)} workloads at scale "
              f"{args.scale} ...", flush=True)
    results = session.run_suite(workloads, scale=args.scale,
                                verbose=not args.quiet)

    wanted = ([args.experiment] if args.experiment != "all"
              else EXPERIMENTS[:-1])
    renderers = {
        "table1": table1,
        "table2": table2,
        "fig9": figure9,
        "fig10": figure10,
        "fig11": figure11,
        "fig12": figure12,
        "fig13": lambda r: figure13(r, session=session),
        "oaat": lambda r: one_at_a_time(r, session=session),
        "net": net_table,
        "superblocks": lambda r: superblock_table(r, session=session),
        "ifconvert": lambda r: ifconvert_table(r, session=session),
        "metrics": metrics_table,
        "sampling": lambda r: sampling_table(r, session=session),
        "hpt": hpt_table,
        "profilers": lambda r: profiler_table(r, session=session),
        "matching": lambda r: matching_table(
            [get_workload(n) for n in r], session=session,
            scale=args.scale),
    }
    for name in wanted:
        text = renderers[name](results)
        print()
        print(text)
        if args.save_dir:
            import pathlib
            out = pathlib.Path(args.save_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.txt").write_text(text + "\n")
    report = session.last_run_report
    if report is not None and (args.chaos or not report.clean):
        from .report import render_execution_report
        print()
        print(render_execution_report(report))
    if args.json:
        from .json_export import save_suite_json
        with open(args.json, "w") as handle:
            save_suite_json(results, handle, execution=report)
        if not args.quiet:
            print(f"\n[metrics written to {args.json}]")
    if not args.quiet:
        stats = session.stats
        print(f"\n[cache: {stats.hits} hits, {stats.misses} misses"
              + (f", {stats.disk_hits} from disk" if stats.disk_hits
                 else "") + "]")
        print(f"[{time.time() - start:.1f}s total]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
