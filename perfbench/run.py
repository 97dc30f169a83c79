"""End-to-end benchmark of the profiling pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all              # every workload, one table
    python3 perfbench/run.py --self-test        # the benchmark checks itself
    python3 perfbench/run.py --make-reference   # regenerate reference.json

The last line of a workload run is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``).  Workloads, metrics and the layer-to-metric map are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (ProgramMissing, ROOT, byte_compile,  # noqa: E402
                    import_program)

WORKLOAD_NAMES = ("cold-suite", "steady-exec", "serve-mix")


def _format(name: str, value: float, unit: str) -> str:
    return f"{name}={value:.6g} {unit}"


def run_workload(args) -> int:
    from workloads import WORKLOADS

    programs = args.programs.split(",") if args.programs else None
    outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace),
                                       args.corrupt_reference, programs)
    if outcome.report:
        print(outcome.report)
    if outcome.detail:
        attempted = max(1, outcome.checker.attempted)
        detail = dict(outcome.detail)
        detail["failed_ratio"] = (outcome.checker.failed / attempted,
                                  "ratio")
        print(f"{args.workload}: " + "  ".join(
            _format(n, v, u) for n, (v, u) in detail.items()))
    for note in outcome.checker.notes:
        print(f"  mismatch: {note}")
    print(json.dumps(outcome.result()), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    code = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result, lines[:-1]))
    for workload, result, detail in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed_ratio={ratio:g}")
        for name, m in result["metrics"].items():
            print(f"  {_format(name, m['value'], m['unit'])}")
        for line in detail:
            print(f"  {line}")
        code = code or (0 if result["correct"] else 1)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    # Used by the self-test: a tiny draw, and a deliberately wrong oracle.
    parser.add_argument("--programs", default="", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    byte_compile()
    if args.make_reference:
        from reference import make_reference

        make_reference()
        return 0
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
