"""The three workloads, driven from the benchmark's parent process.

Every workload reports the same end-to-end metrics over its own unit
operation (one cold pass over the suite in ``cold-suite``, one program
execution in ``steady-exec``, one request in ``serve-mix``), plus named
details of its own.  With ``trace`` on, a workload instead runs a fixed
amount of work twice, untraced and traced, and reports per-layer metrics
from the spans (see :mod:`tracing`).
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from common import (BENCH_DIR, OUT_DIR, REMAP_PROGRAMS, ROOT,
                    STEADY_PROGRAMS, TECHNIQUES, Checker, child_env,
                    SpeedSampler, children_peak_rss_mb, digest,
                    load_reference, percentile, speed_factor, suite_programs)

CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 170
# serve-mix: closed loop over this many connections, each waiting for
# its reply before sending the next request (as current clients do).
CONNECTIONS = 2
REMAP_EVERY = 5          # every fifth request is a remap
# serve-mix sends its requests in batches of this many and takes its
# calibration bursts between batches, when no request is in flight: a
# burst taken while the server and its pool workers run would also
# measure their load, so a change to how busy the program keeps the
# CPUs would move the calibration too and be partly cancelled.
BATCH = 8
# A timed serve-mix phase spans at least this many rounds (about 400
# requests, 20-45 s on a 2-CPU box): with four, its latencies and
# throughput spread up to 8.5% over five seeds.
MIN_ROUNDS = 6
# Fixed work of a traced run (it is compared with an untraced run of the
# same work, so it cannot be time-bounded).
TRACED_ROUNDS = 5
TRACED_REQUESTS = 72  # about one round
# cold-suite set-up samples taken besides the ones every pass gives.
SETUP_PROBES = 15


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]]
    checker: Checker
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    report: str = ""

    @property
    def correct(self) -> bool:
        return self.checker.failed == 0 and not self.mismatches

    def result(self) -> dict:
        return {"correct": self.correct,
                "attempted": self.checker.attempted,
                "failed": self.checker.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def _work_dir(workload: str) -> Path:
    path = OUT_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def spawn_child(*args: str) -> tuple[float, dict]:
    """Run ``child.py``; returns (normalised seconds until it was
    ready, its JSON).  The start-up is normalised by a burst taken before
    the child starts: once it is ready it works, and a burst taken then
    would also measure its load."""
    speed = speed_factor()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                            stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = (time.perf_counter() - start) * speed
            last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0 or ready is None:
        raise RuntimeError(f"child {' '.join(args[:1])} exited with {code}")
    return ready, json.loads(last) if args[0] != "ready" else {}


def _merge_checks(checker: Checker, out: dict) -> None:
    checker.attempted += out["attempted"]
    checker.failed += out["failed"]
    checker.notes += out["notes"]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _layer_outcome(workload, seed, inputs, events, checker, extra,
                   codegen_wall_s, traced_s, untraced_s) -> Outcome:
    """Per-layer metrics of a traced run: span-derived ones, ``extra``,
    the tracing overhead (``traced_s`` and ``untraced_s`` are normalised
    seconds of the same work) and the determinism check; also writes the
    trace file.  ``inputs`` is everything the traced work's counts
    depend on besides the program's code."""
    from tracing import (UNITS, compare_counts, deterministic_counts,
                         format_layers, layer_metrics, program_digest,
                         write_events)

    metrics = {name: 0.0 for name in UNITS}
    metrics.update(layer_metrics(events, codegen_wall_s))
    metrics.update(extra)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    # Counts are compared with the last traced run of the same code on
    # the same inputs; the first such run stores them.
    record = (OUT_DIR / "counts" /
              f"{workload}-{digest([inputs, program_digest()])[:16]}.json")
    mismatches = compare_counts(record, deterministic_counts(metrics))
    metrics["trace.count_mismatches"] = len(mismatches)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    write_events(events, trace_file)
    report = (f"{workload}: per-layer self time of the traced run "
              f"(trace: {trace_file.relative_to(ROOT)})\n"
              + format_layers(events)
              + f"\n  tracing overhead {metrics['trace.overhead_s']:.3f} s "
              f"({100 * metrics['trace.overhead_share']:.1f}% of "
              f"{untraced_s:.3f} normalised s untraced)")
    for line in mismatches:
        report += f"\n  DETERMINISM MISMATCH {line}"
    return Outcome({n: (v, UNITS[n]) for n, v in metrics.items()}, checker,
                   mismatches=mismatches, report=report)


def _e2e(setup_s, p50, p90, ops_per_s, rss) -> dict:
    """The end-to-end metrics; latencies and throughput are normalised
    to the calibration speed (see common.speed_factor)."""
    return {"setup_s": (setup_s, "s"), "norm_op_p50_ms": (p50, "ms"),
            "norm_op_p90_ms": (p90, "ms"),
            "norm_ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (rss, "MB")}


# ----------------------------------------------------------------------
# cold-suite
# ----------------------------------------------------------------------

def cold_suite(seed: int, seconds: float, trace: bool, corrupt: bool,
               programs: Optional[list[str]]) -> Outcome:
    # The suite runs in its own order, as repro.harness runs it: a seeded
    # order moved peak RSS by up to 12% from seed to seed.
    order = programs or [name for name, _c in suite_programs()]
    work = _work_dir("cold-suite")
    common = ["--programs", ",".join(order),
              "--corrupt", order[0] if corrupt else ""]
    checker = Checker()

    def suite_pass(cache: str, *extra: str) -> tuple[float, dict]:
        ready, out = spawn_child("suite", "--cache", str(work / cache),
                                 *common, *extra)
        _merge_checks(checker, out)
        return ready, out

    try:
        if trace:
            return _cold_suite_traced(seed, order, work, checker, suite_pass)
        # Set-up is starting a fresh interpreter with the program
        # imported; every pass starts one, plus a few that only start.
        setups = [spawn_child("ready")[0] for _ in range(SETUP_PROBES)]
        passes = []
        while not passes or sum(p["wall_s"] for p in passes) < seconds:
            ready, out = suite_pass(f"cache{len(passes)}")
            setups.append(ready)
            passes.append(out)
        ready, warm = suite_pass(f"cache{len(passes) - 1}")
        setups.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    normalised = [p["norm_s"] for p in passes]
    latencies = [s * 1e3 for s in normalised]
    return Outcome(
        _e2e(statistics.median(setups), percentile(latencies, 50),
             percentile(latencies, 90), len(passes) / sum(normalised),
             children_peak_rss_mb()),
        checker,
        detail={"cold_suite_s": (statistics.median(
                    p["wall_s"] for p in passes), "s"),
                "warm_rerun_s": (warm["wall_s"], "s"),
                "warm_disk_hits": (warm["disk_hits"], "count")})


def _cold_suite_traced(seed, order, work, checker, suite_pass) -> Outcome:
    from tracing import load_events

    _r, untraced = suite_pass("untraced")
    _r, warm = suite_pass("untraced")
    _r, traced = suite_pass("traced", "--trace", str(work / "cold.json"))
    written = _dir_bytes(work / "traced")
    _r, _traced_warm = suite_pass("traced", "--trace",
                                  str(work / "warm.json"))
    _r, reference = suite_pass("tuple", "--backend", "tuple")
    events = load_events([work / "cold.json", work / "warm.json"])
    extra = {"engine.cache.bytes_written": written,
             "engine.cache.warm_rerun_s": warm["wall_s"],
             "reference.tuple_cold_suite_s": reference["wall_s"]}
    return _layer_outcome("cold-suite", seed, order, events, checker, extra,
                          traced["wall_s"], traced["norm_s"],
                          untraced["norm_s"])


# ----------------------------------------------------------------------
# steady-exec
# ----------------------------------------------------------------------

def steady_exec(seed: int, seconds: float, trace: bool, corrupt: bool,
                programs: Optional[list[str]]) -> Outcome:
    names = programs or list(STEADY_PROGRAMS)
    args = ["steady", "--programs", ",".join(names), "--seed", str(seed),
            "--corrupt", names[0] if corrupt else ""]
    checker = Checker()
    if trace:
        return _steady_traced(seed, names, args, checker)
    _ready, out = spawn_child(*args, "--seconds", str(seconds))
    _merge_checks(checker, out)
    detail = {"ops_per_s": (out["raw_ops_per_s"], "1/s"),
              "plain_ir_ops_per_s": (out["plain_ir_ops_per_s"], "1/s")}
    detail.update({f"{t}_slowdown": (out["slowdowns"][t], "ratio")
                   for t in TECHNIQUES})
    return Outcome(_e2e(out["setup_s"], out["p50_ms"], out["p90_ms"],
                        out["ops_per_s"], out["peak_rss_mb"]),
                   checker, detail=detail)


def _steady_traced(seed, names, args, checker) -> Outcome:
    from tracing import load_events

    work = _work_dir("steady-exec")
    try:
        rounds = ["--rounds", str(TRACED_ROUNDS)]
        _r, untraced = spawn_child(*args, *rounds)
        _r, traced = spawn_child(*args, *rounds, "--trace",
                                 str(work / "steady.json"))
        events = load_events([work / "steady.json"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for out in (untraced, traced):
        _merge_checks(checker, out)
    extra = {"interp.plain_ir_ops_per_s": untraced["plain_ir_ops_per_s"]}
    extra.update({f"core.{t}_wall_slowdown": untraced["slowdowns"][t]
                  for t in TECHNIQUES})
    # Every round runs each (program, mode) once, so the seeded order
    # leaves the counts alone.
    return _layer_outcome("steady-exec", seed, [names, TRACED_ROUNDS],
                          events, checker, extra,
                          traced["wall_s"], traced["norm_s"],
                          untraced["norm_s"])


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------

def serve_schedule(seed: int, programs: list[str],
                   remap_pool: list[str]) -> Iterator[list[dict]]:
    """Seeded rounds of requests: every (program, technique) pair once in
    seeded order, with a remap after every ``REMAP_EVERY - 1`` of them."""
    rng = random.Random(seed)
    remaps = itertools.cycle(remap_pool)
    while True:
        pairs = [(n, t) for n in programs for t in TECHNIQUES]
        rng.shuffle(pairs)
        requests = []
        for i, (name, technique) in enumerate(pairs, 1):
            requests.append({"op": "profile", "workload": name,
                             "technique": technique})
            if i % (REMAP_EVERY - 1) == 0:
                requests.append({"op": "remap", "workload": next(remaps)})
        yield requests


def _expected_reply(reference: dict, request: dict) -> dict:
    entry = reference["programs"][request["workload"]]
    if request["op"] == "remap":
        return {"status": "fresh", "payload_digest": entry["remap"]["digest"]}
    service = entry["service"]
    scores = service["techniques"][request["technique"]]
    return {"status": "fresh", "return_value": service["return_value"],
            "payload_digest": service["edge_digest"],
            "overhead": scores["overhead"], "accuracy": scores["accuracy"]}


def quiet_speed() -> float:
    """The machine speed between serve-mix batches: the median of three
    bursts, so that one burst the host preempts cannot skew two batches."""
    return statistics.median(speed_factor() for _ in range(3))


async def _drive(host: str, port: int, rounds: Iterator[list[dict]],
                 docs: dict, reference: dict, checker: Checker,
                 seconds: Optional[float] = None,
                 count: Optional[int] = None) -> dict:
    """Closed-loop clients: each connection sends its next request only
    after the reply to its previous one, in batches of :data:`BATCH`
    requests.  Stops after ``count`` requests, or at the end of the
    first round to finish after ``seconds`` and after :data:`MIN_ROUNDS`
    rounds (whole rounds give every run the same mix of requests), or
    when ``rounds`` runs out."""
    # Normalised latencies per kind (see common.speed_factor): a request
    # is normalised by the mean of the machine speed sampled just before
    # and just after its batch, when nothing was in flight.
    latencies: dict[str, list[float]] = {"profile": [], "remap": []}
    raw_ms: list[float] = []
    speeds: list[float] = []
    pending: list[dict] = []
    sent = itertools.count()
    started_rounds = 0
    start = time.perf_counter()

    def take() -> Optional[tuple[int, dict]]:
        nonlocal started_rounds
        index = next(sent)
        if count is not None and index >= count:
            return None
        if not pending and (seconds is None
                            or started_rounds < MIN_ROUNDS
                            or time.perf_counter() - start < seconds):
            pending.extend(next(rounds, ()))
            started_rounds += 1
        return (index, pending.pop(0)) if pending else None

    async def connection(stream, tenant: str, batch, done: list) -> None:
        reader, writer = stream
        while batch:
            index, request = batch.popleft()
            wire = {"tenant": tenant, "id": f"{tenant}-{index}", **request}
            if request["op"] == "remap":
                wire["stale_profile"] = docs[request["workload"]]
            t0 = time.perf_counter()
            writer.write(json.dumps(wire).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            done.append((request, time.perf_counter() - t0, line))

    streams = [await asyncio.open_connection(host, port, limit=1 << 26)
               for _ in range(CONNECTIONS)]
    try:
        speeds.append(quiet_speed())
        while True:
            batch = collections.deque(
                itertools.islice(iter(take, None), BATCH))
            if not batch:
                break
            done: list = []
            await asyncio.gather(*(connection(stream, f"bench-{i}", batch,
                                              done)
                                   for i, stream in enumerate(streams)))
            speeds.append(quiet_speed())
            speed = (speeds[-2] + speeds[-1]) / 2
            for request, spent, line in done:
                latencies[request["op"]].append(spent * speed * 1e3)
                raw_ms.append(spent * 1e3)
                reply = json.loads(line) if line else {"status": "closed"}
                reply["payload_digest"] = digest(reply.get("payload"))
                checker.op(f"{request['op']} {request['workload']} "
                           f"{request.get('technique', '')}",
                           _expected_reply(reference, request), reply)
    finally:
        for _reader, writer in streams:
            writer.close()
            await writer.wait_closed()
    everything = latencies["profile"] + latencies["remap"]
    return {"wall_s": time.perf_counter() - start,
            # Normalised seconds the closed loop was busy.
            "norm_s": sum(everything) / 1e3 / CONNECTIONS,
            "latencies": latencies, "raw_ms": raw_ms, "speeds": speeds}


class _Server:
    """A ``repro serve`` process at its default settings, journal on."""

    def __init__(self, work: Path, trace_dir: Optional[Path] = None):
        serve = ["serve", "--port", "0", "--journal",
                 str(work / "journal.bin"), "--cache-dir",
                 str(work / "cache")]
        # The server is stopped with SIGINT.  A child inherits SIGINT
        # ignored when the benchmark runs with it ignored (as background
        # jobs of a shell do); a handler instead is reset to the default.
        if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(CHILD), "serve", "--trace",
                   str(trace_dir), "--", *serve]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)
        banner = self.proc.stdout.readline()
        found = re.search(r"listening on (\S+):(\d+)", banner)
        if found is None:
            self.stop()
            raise RuntimeError(f"service did not start: {banner!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def warmup_round(programs: list[str]) -> list[dict]:
    """One profile request per program, so every trace artifact is in
    the service's disk cache before timing starts."""
    return [{"op": "profile", "workload": name, "technique": "ppp"}
            for name in programs]


def _session(work: Path, pool: list[str], rounds, docs, reference,
             checker, trace_dir: Optional[Path] = None, **limit) -> dict:
    """Start a server and warm it up (the set-up), drive it, stop it.
    The set-up is normalised by the bursts taken while nothing of the
    program ran: before the server started and between warm-up batches."""
    before = quiet_speed()
    start = time.perf_counter()
    server = _Server(work, trace_dir)
    try:
        warmup = asyncio.run(_drive(server.host, server.port,
                                    iter([warmup_round(pool)]), docs,
                                    reference, checker))
        setup_wall = time.perf_counter() - start
        run = asyncio.run(_drive(server.host, server.port, rounds, docs,
                                 reference, checker, **limit))
    finally:
        server.stop()
    speed = statistics.mean([before] + warmup["speeds"])
    return {**run, "setup_s": setup_wall * speed,
            "warmup_s": warmup["wall_s"]}


def serve_mix(seed: int, seconds: float, trace: bool, corrupt: bool,
              programs: Optional[list[str]]) -> Outcome:
    from reference import stale_profile_doc

    pool = programs or [name for name, _c in suite_programs()]
    remap_pool = programs[:1] if programs else list(REMAP_PROGRAMS)
    reference = load_reference(pool[0] if corrupt else "")
    checker = Checker()
    work = _work_dir("serve-mix")
    try:
        # The stale profiles are built in this process alone.
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            docs = {name: stale_profile_doc(name, "compiled")
                    for name in remap_pool}
            docs_s = sampler.normalise(time.perf_counter() - start)
        if trace:
            return _serve_traced(seed, pool, remap_pool, docs, reference,
                                 checker, work)
        run = _session(work, pool, serve_schedule(seed, pool, remap_pool),
                       docs, reference, checker, seconds=seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    everything = run["latencies"]["profile"] + run["latencies"]["remap"]
    raw = run["raw_ms"]
    detail = {"request_p50_ms": (percentile(raw, 50), "ms"),
              "request_p90_ms": (percentile(raw, 90), "ms"),
              "requests_per_s": (len(raw) / run["wall_s"], "1/s")}
    detail.update({f"norm_{kind}_p50_ms": (statistics.median(lat), "ms")
                   for kind, lat in run["latencies"].items() if lat})
    return Outcome(
        _e2e(docs_s + run["setup_s"], percentile(everything, 50),
             percentile(everything, 90),
             # The idle ends of batches are not the program's.
             len(everything) / run["norm_s"],
             children_peak_rss_mb()),
        checker, detail=detail)


def _serve_traced(seed, pool, remap_pool, docs, reference, checker,
                  work) -> Outcome:
    from tracing import load_events

    def session(name: str, trace_dir: Optional[Path] = None) -> dict:
        return _session(work / name, pool,
                        serve_schedule(seed, pool, remap_pool), docs,
                        reference, checker, trace_dir=trace_dir,
                        count=TRACED_REQUESTS)

    traced_requests = list(itertools.islice(
        itertools.chain.from_iterable(serve_schedule(seed, pool,
                                                     remap_pool)),
        TRACED_REQUESTS))

    untraced = session("untraced")
    traced = session("traced", work / "spans")
    events = load_events(sorted((work / "spans").glob("*.json")))
    extra = {"engine.cache.bytes_written": _dir_bytes(work / "traced" /
                                                      "cache")}
    # The spans cover the warm-up too; the overhead compares the timed
    # requests alone, in normalised seconds.
    return _layer_outcome("serve-mix", seed,
                          [warmup_round(pool), traced_requests], events,
                          checker, extra,
                          traced["warmup_s"] + traced["wall_s"],
                          traced["norm_s"], untraced["norm_s"])


WORKLOADS = {"cold-suite": cold_suite, "steady-exec": steady_exec,
             "serve-mix": serve_mix}
