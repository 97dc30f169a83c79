"""The benchmark's check of itself, on a tiny draw::

    python3 perfbench/run.py --self-test

* BENCHMARK.json's per-layer list is :data:`tracing.LAYER_METRICS`;
* every workload prints every metric BENCHMARK.json names, with its
  unit, and is correct on the real reference;
* two traced runs of a workload give the same deterministic counts;
* one corrupted expected value makes a workload report failures;
* without the program beside it, the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, digest
from tracing import LAYER_METRICS

SEED = 7
SECONDS = 2
TINY = ("twolf", "mgrid")  # one INT and one FP program, both quick
WORKLOADS = ("cold-suite", "steady-exec", "serve-mix")


def _invoke(workload: str, trace: int, *extra: str,
            cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / BENCH_DIR.name / "run.py"),
         "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
         str(trace), "--programs", ",".join(TINY), *extra],
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def _metrics_problems(label: str, result: dict | None,
                      expected: dict[str, str]) -> list[str]:
    if result is None:
        return [f"{label}: no result line"]
    problems = []
    for name, unit in expected.items():
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"{label}: metric {name} missing")
        elif got.get("unit") != unit:
            problems.append(f"{label}: {name} unit {got.get('unit')!r}, "
                            f"expected {unit!r}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: not correct ({result['failed']} failed "
                        f"of {result['attempted']})")
    return problems


def self_test() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = [(m["name"], m["unit"], m["better"])
                 for m in bench["per_layer"]]
    problems = []
    if per_layer != [row[:3] for row in LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from "
                        "tracing.LAYER_METRICS")
    layer_units = {name: unit for name, unit, _b in per_layer}

    for workload in WORKLOADS:
        _code, result = _invoke(workload, 0)
        problems += _metrics_problems(f"{workload} --trace 0", result, e2e)
        record = (OUT_DIR / "counts" /
                  f"{workload}-{SEED}-{digest(list(TINY))[:12]}.json")
        record.unlink(missing_ok=True)
        for attempt in (1, 2):
            _code, result = _invoke(workload, 1)
            label = f"{workload} --trace 1 (run {attempt})"
            problems += _metrics_problems(label, result, layer_units)
            if result and result["metrics"].get(
                    "trace.count_mismatches", {}).get("value"):
                problems.append(f"{label}: deterministic counts differ")
        _code, result = _invoke(workload, 0, "--corrupt-reference")
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: a corrupted reference value was "
                            "not detected")
        print(f"self-test: {workload} done", flush=True)

    # A directory with only BENCHMARK.json and the benchmark's files.
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = _invoke("cold-suite", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append("without the program the benchmark did not fail")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
