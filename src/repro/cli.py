"""What the two command lines, ``python -m repro`` and ``python -m
repro.harness``, share: the user-facing error type, the ``--benchmarks``
/ ``--profilers`` / ``--chaos`` parsers, and the session builder."""

from __future__ import annotations

import sys
from typing import Callable

from .engine import ArtifactCache, ProfilingSession

DEFAULT_CACHE_DIR = "results/.cache"


class CliError(Exception):
    """A user-facing error (bad file, syntax error, unknown name, ...)."""


def run_command(fn: Callable[..., int], args) -> int:
    """``fn(args)``, with a :class:`CliError` printed as ``error: ...``
    on stderr (exit 1) and a closed output pipe treated as success."""
    try:
        return fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def parse_workloads(spec: str) -> list:
    """The workloads a comma-separated ``--benchmarks`` list names; the
    whole suite when ``spec`` is empty."""
    from .workloads import SUITE, get_workload
    if not spec:
        return list(SUITE)
    try:
        return [get_workload(n.strip()) for n in spec.split(",")
                if n.strip()]
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc


def parse_profilers(spec: str) -> tuple[str, ...]:
    """The validated profiler names of a ``--profilers`` list."""
    from .profilers import parse_profiler_names
    try:
        return parse_profiler_names(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def install_chaos(spec: str) -> None:
    """Validate a ``--chaos`` fault plan and activate it; the plan is
    published through ``REPRO_FAULTS`` so worker processes see it too."""
    if not spec:
        return
    from .engine import faults
    try:
        plan = faults.FaultPlan.from_spec(spec)
    except faults.FaultSpecError as exc:
        raise CliError(f"--chaos: {exc}") from exc
    faults.install_plan(plan)


def build_session(jobs: int = 1, no_cache: bool = False,
                  cache_dir: str = DEFAULT_CACHE_DIR,
                  backend: str | None = None,
                  verify: bool | None = None,
                  timeout: float | None = None,
                  retries: int = 2,
                  profilers: tuple[str, ...] = ()) -> ProfilingSession:
    """The session a CLI invocation drives everything through; an empty
    ``cache_dir`` keeps the cache in memory, ``no_cache`` drops it."""
    if no_cache:
        cache = ArtifactCache(memory=False)
    else:
        cache = ArtifactCache(disk_dir=cache_dir or None)
    return ProfilingSession(cache=cache, jobs=jobs, backend=backend,
                            verify_plans=verify, timeout=timeout,
                            retries=retries, profilers=profilers)
