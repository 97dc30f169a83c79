#!/usr/bin/env python
"""Interpreter throughput benchmark: ops/sec per workload, both backends.

Runs every workload in the stock suite on the tuple and compiled
backends, measures interpreted IR instructions per second (best of
``--repeats`` timed runs, after an untimed warm-up that also populates
the codegen cache), and writes ``BENCH_interp.json``:

    {
      "schema": 2,
      "scale": 1,
      "repeats": 3,
      "mode": "plain",
      "workloads": {
        "mcf": {"instructions": ..., "tuple_ops_per_sec": ...,
                 "compiled_ops_per_sec": ..., "speedup": ...,
                 "segments_compiled": ..., "codegen_bytes": ...},
        ...
      },
      "geomean_speedup": ...,
      "min_speedup": ...
    }

Subsequent PRs diff this file to track the perf trajectory; CI runs
``--smoke --min-speedup 1.0`` as a regression gate (fail if the compiled
backend is ever slower than the reference interpreter).
``--compare OLD.json`` diffs this run against a saved
report and exits non-zero on any per-workload speedup regression beyond
``--compare-tolerance`` percent.  ``segments_compiled`` (generated
segments the compiled runs entered, hence compiled) and
``codegen_bytes`` (their source size) are deterministic, so
``--compare`` fails on any rise in either, with no tolerance.

``--profilers`` switches to the profiler-overhead benchmark instead:
each registered (non-plan-bound) profiler plugin runs alone over the
suite on the compiled backend, and its wall-clock slowdown and billed
instrumentation cost relative to the no-observation baseline are
written to ``BENCH_profilers.json``.  ``--sparse-gate`` additionally
requires the ``edges-sparse`` profiler's average overhead to stay
strictly below dense ``edges`` counting -- the point of deleting
statically redundant probes:

    {
      "schema": 1,
      "baseline": {"mcf": {"ops_per_sec": ...}, ...},
      "profilers": {
        "values": {"mcf": {"ops_per_sec": ..., "overhead_pct": ...,
                            "billed_overhead_pct": ...}, ...},
        ...
      }
    }

Usage::

    PYTHONPATH=src python scripts/bench.py                # full suite
    PYTHONPATH=src python scripts/bench.py --smoke        # 4 workloads
    PYTHONPATH=src python scripts/bench.py --min-speedup 3.0
    PYTHONPATH=src python scripts/bench.py --smoke --profilers
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.interp import Machine, VALID_BACKENDS  # noqa: E402
from repro.interp.compiled import codegen_stats  # noqa: E402
from repro.workloads import SUITE, get_workload  # noqa: E402

# A branchy/loopy/call-heavy cross-section for the CI smoke gate.
SMOKE_WORKLOADS = ("vpr", "mcf", "parser", "swim")


# Deterministic per-workload counts that ``--compare`` gates exactly.
EXACT_COUNTS = ("segments_compiled", "codegen_bytes")


def ops_per_sec(module, backend: str, repeats: int, profile: bool,
                trace: bool) -> tuple[float, int]:
    """Best-of-N interpreted ops/sec for one module on one backend."""

    def once() -> tuple[float, int]:
        machine = Machine(module, collect_edge_profile=profile,
                          trace_paths=trace, backend=backend)
        start = time.perf_counter()
        result = machine.run()
        elapsed = time.perf_counter() - start
        return elapsed, result.instructions_executed

    once()  # warm-up: codegen cache, branch predictors, allocator
    best, instructions = min(once() for _ in range(max(1, repeats)))
    return instructions / best, instructions


def _geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def run_bench(names: list[str], scale: int, repeats: int, profile: bool,
              trace: bool) -> dict:
    workloads: dict[str, dict] = {}
    speedups: list[float] = []
    for name in names:
        module = get_workload(name).compile(scale)
        rates = {backend: ops_per_sec(module, backend, repeats, profile,
                                      trace)
                 for backend in VALID_BACKENDS}
        speedup = rates["compiled"][0] / rates["tuple"][0]
        speedups.append(speedup)
        segments, source_bytes = codegen_stats(module)
        workloads[name] = {
            "instructions": rates["tuple"][1],
            "tuple_ops_per_sec": round(rates["tuple"][0], 1),
            "compiled_ops_per_sec": round(rates["compiled"][0], 1),
            "speedup": round(speedup, 3),
            "segments_compiled": segments,
            "codegen_bytes": source_bytes,
        }
        print(f"  {name:10s} tuple {rates['tuple'][0] / 1e6:7.2f} Mops/s"
              f"   compiled {rates['compiled'][0] / 1e6:7.2f} Mops/s   "
              f"{speedup:5.2f}x", flush=True)
    return {
        "schema": 2,
        "scale": scale,
        "repeats": repeats,
        "mode": ("profile+trace" if trace else
                 "profile" if profile else "plain"),
        "workloads": workloads,
        "geomean_speedup": round(_geomean(speedups), 3),
        "min_speedup": round(min(speedups), 3),
    }


def compare_reports(old: dict, new: dict, tolerance_pct: float
                    ) -> list[str]:
    """Per-workload regressions of ``new`` vs ``old``: a speedup drop
    beyond the tolerance (in percent), or any rise in a deterministic
    codegen count; empty when nothing regressed."""
    problems: list[str] = []
    if old.get("mode") != new.get("mode") \
            or old.get("scale") != new.get("scale"):
        problems.append(
            f"incomparable runs: old mode/scale "
            f"{old.get('mode')}/{old.get('scale')} vs new "
            f"{new.get('mode')}/{new.get('scale')}")
        return problems
    floor = 1.0 - tolerance_pct / 100.0
    for name, old_row in sorted(old.get("workloads", {}).items()):
        new_row = new.get("workloads", {}).get(name)
        if new_row is None:
            continue  # workload dropped from this run's selection
        was, now = old_row["speedup"], new_row["speedup"]
        if was > 0 and now < was * floor:
            problems.append(
                f"{name}: speedup regressed {was:.3f}x -> {now:.3f}x "
                f"({(now / was - 1.0) * 100.0:+.1f}%, tolerance "
                f"-{tolerance_pct:.0f}%)")
        for count in EXACT_COUNTS:
            if count in old_row and new_row[count] > old_row[count]:
                problems.append(
                    f"{name}: {count} rose {old_row[count]} -> "
                    f"{new_row[count]} (deterministic; no tolerance)")
    return problems


def profiler_ops_per_sec(module, profiler_names: tuple[str, ...],
                         repeats: int) -> tuple[float, float, float]:
    """Best-of-N ops/sec plus base and instrumentation cost for one
    module under the named profilers (compiled backend)."""
    from repro.profilers import build_machine, create_profilers

    def once() -> tuple[float, float, float, int]:
        machine, _ = build_machine(module,
                                   create_profilers(profiler_names),
                                   backend="compiled")
        start = time.perf_counter()
        result = machine.run()
        elapsed = time.perf_counter() - start
        return (elapsed, result.costs.base, result.costs.instrumentation,
                result.instructions_executed)

    once()  # warm-up: codegen cache for this profiler selection
    best, base, instr, instructions = min(once() for _ in range(
        max(1, repeats)))
    return instructions / best, base, instr


def run_profiler_bench(names: list[str], scale: int, repeats: int) -> dict:
    """Per-profiler overhead vs the no-observation baseline."""
    from repro.profilers import registered_profilers

    plugin_names = sorted(name for name, cls in
                          registered_profilers().items()
                          if not cls.requires_plan)
    modules = {name: get_workload(name).compile(scale) for name in names}
    baseline: dict[str, dict] = {}
    rates: dict[str, float] = {}
    for name, module in modules.items():
        rate, _base, _instr = profiler_ops_per_sec(module, (), repeats)
        rates[name] = rate
        baseline[name] = {"ops_per_sec": round(rate, 1)}
    report: dict[str, dict] = {}
    for plugin in plugin_names:
        rows: dict[str, dict] = {}
        for name, module in modules.items():
            rate, base, instr = profiler_ops_per_sec(
                module, (plugin,), repeats)
            overhead = (rates[name] / rate - 1.0) * 100.0
            billed = (instr / base * 100.0) if base else 0.0
            rows[name] = {
                "ops_per_sec": round(rate, 1),
                "overhead_pct": round(overhead, 1),
                "billed_overhead_pct": round(billed, 2),
            }
            print(f"  {plugin:12s} {name:10s} {rate / 1e6:7.2f} Mops/s   "
                  f"wall {overhead:+6.1f}%   billed {billed:6.2f}%",
                  flush=True)
        report[plugin] = rows
    return {
        "schema": 2,
        "scale": scale,
        "repeats": repeats,
        "backend": "compiled",
        "baseline": baseline,
        "profilers": report,
    }


def average_overhead(report: dict, plugin: str) -> float:
    """Mean wall-clock overhead_pct of one plugin across the report."""
    rows = report["profilers"][plugin]
    return sum(row["overhead_pct"] for row in rows.values()) / len(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark interpreter backends over the workload "
                    "suite and write BENCH_interp.json.")
    parser.add_argument("--smoke", action="store_true",
                        help=f"only {', '.join(SMOKE_WORKLOADS)} (CI gate)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per measurement; best is kept")
    parser.add_argument("--profiled", action="store_true",
                        help="measure the profile+trace observation mode "
                             "instead of plain execution")
    parser.add_argument("--profilers", action="store_true",
                        help="benchmark per-plugin profiler overhead vs "
                             "the no-observation baseline and write "
                             "BENCH_profilers.json instead")
    parser.add_argument("--sparse-gate", action="store_true",
                        help="with --profilers: exit non-zero unless the "
                             "edges-sparse plugin's average overhead is "
                             "strictly below dense edges counting")
    parser.add_argument("--compare", metavar="OLD.json", default=None,
                        help="compare this run against a previous "
                             "BENCH_interp.json; exit non-zero on any "
                             "per-workload speedup regression beyond "
                             "--compare-tolerance")
    parser.add_argument("--compare-tolerance", type=float, default=15.0,
                        metavar="PCT",
                        help="allowed per-workload speedup drop vs "
                             "--compare baseline, in percent (default 15)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_interp.json, or "
                             "BENCH_profilers.json with --profilers)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if any workload's compiled/"
                             "tuple ratio falls below X")
    args = parser.parse_args(argv)

    names = (list(SMOKE_WORKLOADS) if args.smoke
             else [w.name for w in SUITE])
    print(f"benchmarking {len(names)} workloads at scale {args.scale} "
          f"({args.repeats} repeats) ...", flush=True)

    if args.profilers:
        report = run_profiler_bench(names, args.scale, args.repeats)
        out = args.out or "BENCH_profilers.json"
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {out}]")
        if args.sparse_gate:
            dense = average_overhead(report, "edges")
            sparse = average_overhead(report, "edges-sparse")
            print(f"edge-counting overhead: dense {dense:+.1f}% avg, "
                  f"sparse {sparse:+.1f}% avg")
            if sparse >= dense:
                print(f"FAIL: sparse edge counting ({sparse:+.1f}%) is "
                      f"not strictly cheaper than dense ({dense:+.1f}%)",
                      file=sys.stderr)
                return 1
        return 0

    # Read the comparison baseline before --out can overwrite it.
    old_report = None
    if args.compare:
        old_report = json.loads(Path(args.compare).read_text())

    report = run_bench(names, args.scale, args.repeats,
                       profile=args.profiled, trace=args.profiled)
    args.out = args.out or "BENCH_interp.json"
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"geomean speedup: {report['geomean_speedup']:.2f}x   "
          f"min: {report['min_speedup']:.2f}x")
    print(f"[written to {args.out}]")

    failed = False
    if args.min_speedup is not None \
            and report["min_speedup"] < args.min_speedup:
        print(f"FAIL: min speedup {report['min_speedup']:.2f}x is below "
              f"the required {args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    if old_report is not None:
        problems = compare_reports(old_report, report,
                                   args.compare_tolerance)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"[no regressions vs {args.compare}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
