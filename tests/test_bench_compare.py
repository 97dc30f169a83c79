"""The ``--compare`` gate of ``scripts/bench.py``: speedups within a
tolerance, deterministic codegen counts exactly."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _report(**row):
    base = {"speedup": 4.0, "segments_compiled": 100,
            "codegen_bytes": 5000}
    base.update(row)
    return {"mode": "plain", "scale": 1, "workloads": {"mcf": base}}


def test_equal_counts_pass():
    assert bench.compare_reports(_report(), _report(), 15.0) == []


def test_fewer_segments_pass():
    new = _report(segments_compiled=90, codegen_bytes=4000)
    assert bench.compare_reports(_report(), new, 15.0) == []


@pytest.mark.parametrize("count", bench.EXACT_COUNTS)
def test_any_count_rise_fails(count):
    new = _report(**{count: _report()["workloads"]["mcf"][count] + 1})
    problems = bench.compare_reports(_report(), new, 15.0)
    assert len(problems) == 1 and count in problems[0]


def test_baseline_without_counts_is_not_gated():
    old = _report()
    for count in bench.EXACT_COUNTS:
        del old["workloads"]["mcf"][count]
    assert bench.compare_reports(old, _report(), 15.0) == []


def test_speedup_within_tolerance():
    assert bench.compare_reports(_report(), _report(speedup=3.5),
                                 15.0) == []
    assert bench.compare_reports(_report(), _report(speedup=3.3), 15.0)
