"""Golden output of the ``python -m repro`` check commands.

Each case runs ``main()`` twice -- once for the text report, once with
``--json`` -- and compares both against the files under
``tests/golden/cli/``: the text byte for byte with the ``(N.Ns)`` timing
masked, the JSON document with its ``elapsed_s`` value dropped.  After
an intended output change, rewrite the golden files with::

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from conftest import SMALL_PROGRAM

from repro.__main__ import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

# The edited program ``match`` transfers the old profile onto.
NEW_PROGRAM = SMALL_PROGRAM.replace(
    "acc = s;", "if (s > 1000) { s = s - 7; }\n    acc = s;")

SUITE = ["--suite", "--benchmarks", "vpr", "--cache-dir", ""]

CASES = {
    "verify": ["verify", "prog.minic"],
    "verify-verbose": ["verify", "prog.minic", "--verbose"],
    "lint": ["lint", "prog.minic"],
    "equiv": ["equiv", "prog.minic"],
    "equiv-suite": ["equiv", "--suite", "--benchmarks", "mcf",
                    "--cache-dir", ""],
    "conserve": ["conserve", "prog.minic"],
    "conserve-quiet-verbose": ["conserve", "prog.minic", "--quiet",
                               "--verbose"],
    "match": ["match", "prog.minic", "new.minic"],
    "verify-suite": ["verify", *SUITE],
    "lint-suite": ["lint", *SUITE],
    "conserve-suite": ["conserve", *SUITE],
    "match-suite": ["match", *SUITE],
}

_TIMING = re.compile(r"\(\d+\.\ds\)")


def _write_programs(directory: Path) -> None:
    (directory / "prog.minic").write_text(SMALL_PROGRAM)
    (directory / "new.minic").write_text(NEW_PROGRAM)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_case(argv: list[str]) -> tuple[int, str, int, dict]:
    """``(text exit code, masked text, JSON exit code, JSON document)``."""
    code, text = _run(argv)
    json_code, raw = _run(argv + ["--json"])
    doc = json.loads(raw)
    doc.pop("elapsed_s", None)
    return code, _TIMING.sub("(N.Ns)", text), json_code, doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_command_output(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_programs(tmp_path)
    code, text, json_code, doc = run_case(CASES[case])
    assert (code, json_code) == (0, 0)
    assert text == (GOLDEN / f"{case}.txt").read_text()
    assert doc == json.loads((GOLDEN / f"{case}.json").read_text())


def _regenerate() -> None:
    import tempfile
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            _write_programs(Path(tmp))
            for case, argv in sorted(CASES.items()):
                _code, text, _json_code, doc = run_case(argv)
                (GOLDEN / f"{case}.txt").write_text(text)
                (GOLDEN / f"{case}.json").write_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n")
                print(f"wrote {case}", file=sys.stderr)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    _regenerate()
