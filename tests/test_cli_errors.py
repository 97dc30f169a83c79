"""An unknown name on either command line (``python -m repro`` or
``python -m repro.harness``) is one ``error: ...`` line on stderr and
exit status 1, never a traceback."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.harness.__main__ import main as harness_main

KNOWN_WORKLOADS = ("ammp, applu, apsi, art, bzip2, crafty, equake, gap, "
                   "mcf, mesa, mgrid, parser, perlbmk, sixtrack, swim, "
                   "twolf, vpr, wupwise")

CASES = {
    "verify-benchmark": (
        main, ["verify", "--suite", "--benchmarks", "nope"],
        f"unknown workload 'nope'; known: {KNOWN_WORKLOADS}"),
    "harness-benchmark": (
        harness_main, ["table2", "--benchmarks", "nope"],
        f"unknown workload 'nope'; known: {KNOWN_WORKLOADS}"),
    "harness-chaos": (
        harness_main, ["table2", "--chaos", "bogus=1"],
        "--chaos: unknown fault key 'bogus'"),
    "harness-profilers": (
        harness_main, ["table2", "--profilers", "nope"],
        "unknown profiler 'nope'; registered: calls, edges, edges-sparse, "
        "path, path-trace, tripcounts, values"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_unknown_name_is_one_error_line(case, capsys):
    cli_main, argv, message = CASES[case]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
