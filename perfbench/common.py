"""Helpers shared by the benchmark's parent and child processes.

Nothing here imports the program at module import time: the parent must
be able to report a missing program (a checkout without ``src/``) with a
non-zero exit before it touches anything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

TECHNIQUES = ("pp", "tpp", "ppp")
MODES = ("plain",) + TECHNIQUES

# steady-exec runs these programs in a seeded order: four INT and four FP
# programs spanning the suite's plain run times (9-48 ms on a 2-CPU
# box).  A seeded subset would change the work with the seed by more
# than the benchmark's bounds.
STEADY_PROGRAMS = ("mcf", "twolf", "perlbmk", "crafty",
                   "art", "mgrid", "swim", "equake")

# serve-mix remap requests carry stale profiles of these programs.
REMAP_PROGRAMS = ("vpr", "bzip2", "applu", "equake")

# The edit seed of the stale builds that remap requests carry.
EDIT_SEED = 1


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def import_program() -> None:
    """Put ``src/`` on the path and import the program, or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def byte_compile() -> None:
    """Byte-compile the program's sources, as an installed package would
    be.  Otherwise whether a timed import compiles source would depend on
    PYTHONDONTWRITEBYTECODE and on what earlier runs left behind."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(BENCH_DIR), maxlevels=0, quiet=2)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_FAULTS", None)
    return env


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

def suite_programs() -> list[tuple[str, str]]:
    """``(name, category)`` of every suite program, in suite order."""
    from repro.workloads import SUITE

    return [(w.name, w.category) for w in SUITE]


# ----------------------------------------------------------------------
# Reference outputs and checking
# ----------------------------------------------------------------------

def digest(payload) -> str:
    """Stable digest of a JSON-able payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(corrupt: str = "") -> dict:
    """The reference outputs; ``corrupt`` names one program whose
    expected return value is altered (the self-test's bad oracle)."""
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    if corrupt:
        entry = reference["programs"][corrupt]
        for section in ("suite", "service"):
            entry[section]["return_value"] = f"corrupted:{corrupt}"
    return reference


class Checker:
    """Counts operations and the ones whose output differs from the
    reference (or that failed outright)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, label: str, expected: dict, actual: dict) -> None:
        """One operation: every key of ``expected`` must match."""
        self.attempted += 1
        bad = [k for k in expected if actual.get(k) != expected[k]]
        if bad:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(
                    f"{label}: " + ", ".join(
                        f"{k} expected {expected[k]!r} got {actual.get(k)!r}"
                        for k in bad))


def expected_suite(reference: dict, name: str) -> dict:
    """Flat expected outputs of one suite program's workload result."""
    entry = reference["programs"][name]["suite"]
    out = {"return_value": entry["return_value"],
           "edge_digest": entry["edge_digest"]}
    for t in TECHNIQUES:
        for key in ("overhead", "accuracy", "static_ops"):
            out[f"{t}.{key}"] = entry["techniques"][t][key]
    return out


def workload_outputs(result) -> dict:
    """Flat outputs of a ``WorkloadResult``, comparable with
    :func:`expected_suite`."""
    from repro.profiles import edge_profile_to_dict

    out = {"return_value": result.return_value,
           "edge_digest": digest(edge_profile_to_dict(result.edge_profile))}
    for t in TECHNIQUES:
        tr = result.techniques[t]
        out[f"{t}.overhead"] = tr.overhead
        out[f"{t}.accuracy"] = tr.accuracy
        out[f"{t}.static_ops"] = tr.static_ops
    return out


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
# On a shared host the same pure-Python loop can take twice as long from
# one few-second stretch to the next, so wall times of whole runs differ
# by up to 30% with no change to the program.  Each timed operation is
# therefore paired with a calibration burst taken right beside it, and
# reported as ``wall time * CAL_REF_S / burst time``: the time it would
# have taken on a machine where the burst takes CAL_REF_S.  The burst
# uses no code of the program, so a change to the program moves the
# normalised time exactly as much as the wall time.
CAL_REF_S = 0.002
SAMPLE_INTERVAL_S = 0.25  # SpeedSampler's period
_CAL_TABLE = list(range(64))
_CAL_SLOTS = [0] * 128


def _cal_step(x: int, i: int) -> int:
    return (x * 31 + _CAL_TABLE[i & 63]) & 0xFFFFF


def calibration_burst() -> float:
    """Seconds one fixed piece of interpreter work takes right now.

    It allocates no object the cyclic garbage collector tracks, so a
    burst never sets off a collection of the program's heap."""
    start = time.perf_counter()
    x = 0
    for i in range(16000):
        x = _cal_step(x, i)
        _CAL_SLOTS[i & 127] = x
    return time.perf_counter() - start


def speed_factor() -> float:
    """``CAL_REF_S`` over the current burst time: multiply a wall time
    taken beside it by this to normalise it."""
    return CAL_REF_S / calibration_burst()


class SpeedSampler:
    """Samples the machine speed from a timer signal every
    ``SAMPLE_INTERVAL_S`` while the code inside the ``with`` block runs in
    this thread, for operations too long to pair with a single burst.
    Only for work done in this process alone: a burst taken while other
    processes of the program run would also measure their load."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds the samples took

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        self.speeds.append(speed_factor())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, wall: float) -> float:
        """Normalised seconds of ``wall``, a time taken inside the block
        (the samples' own time is taken out).  A block shorter than one
        interval is normalised by a sample taken now."""
        speeds = self.speeds or [speed_factor()]
        return (wall - self.spent) * statistics.mean(speeds)


# ----------------------------------------------------------------------
# Statistics and resources
# ----------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; exact for one value)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for child process (MB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
