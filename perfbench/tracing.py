"""Spans around the program's public functions, recorded from outside.

:func:`install` replaces a fixed set of the program's functions with
wrappers that record one span per call: name, layer, start, end, parent
span and request id.  Spans stay in memory and are written out at the
end as Chrome trace-event JSON (``chrome://tracing`` or
``ui.perfetto.dev`` open it); worker processes of the service's pool
inherit the wrappers when they fork and write their spans per job.
:func:`layer_metrics` turns the merged events back into the per-layer
numbers listed in :data:`LAYER_METRICS`.

Nothing here is imported by an untraced run, so end-to-end numbers are
always measured with the program's own code paths.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import itertools
import json
import math
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Optional

# (name, unit, better, layer it measures, end-to-end metric it should
# move, workload on which it should move it).  BENCHMARK.json's
# per_layer list is this table's first three columns.
LAYER_METRICS = (
    ("lang.compile_s", "s", "lower", "lang", "norm_op_p50_ms", "cold-suite"),
    ("opt.expand_self_s", "s", "lower", "opt", "norm_op_p50_ms", "cold-suite"),
    ("opt.expanded_instrs", "count", "lower", "opt", "norm_op_p50_ms",
     "cold-suite"),
    ("interp.codegen.generate_s", "s", "lower", "interp.codegen",
     "norm_op_p50_ms", "cold-suite, serve-mix"),
    ("interp.codegen.compile_s", "s", "lower", "interp.codegen",
     "norm_op_p50_ms", "cold-suite, serve-mix"),
    ("interp.codegen.source_bytes", "bytes", "lower", "interp.codegen",
     "norm_op_p50_ms", "cold-suite, serve-mix"),
    ("interp.codegen.functions", "count", "lower", "interp.codegen",
     "norm_op_p50_ms", "cold-suite, serve-mix"),
    ("interp.codegen.share", "ratio", "lower", "interp.codegen",
     "norm_ops_per_s", "cold-suite"),
    ("interp.run_self_s", "s", "lower", "interp", "norm_ops_per_s",
     "steady-exec"),
    ("interp.instructions", "count", "lower", "interp", "norm_ops_per_s",
     "steady-exec"),
    ("interp.plain_ir_ops_per_s", "1/s", "higher", "interp", "norm_ops_per_s",
     "steady-exec"),
    ("core.plan_s", "s", "lower", "core", "norm_op_p50_ms", "cold-suite"),
    ("core.static_ops", "count", "lower", "core", "norm_op_p50_ms",
     "cold-suite"),
    ("core.run_with_plan_self_s", "s", "lower", "core", "norm_op_p50_ms",
     "steady-exec"),
    ("core.billed_overhead_pp", "ratio", "lower", "core", "norm_op_p50_ms",
     "steady-exec"),
    ("core.billed_overhead_tpp", "ratio", "lower", "core", "norm_op_p50_ms",
     "steady-exec"),
    ("core.billed_overhead_ppp", "ratio", "lower", "core", "norm_op_p50_ms",
     "steady-exec"),
    ("core.pp_wall_slowdown", "ratio", "lower", "core", "norm_ops_per_s",
     "steady-exec"),
    ("core.tpp_wall_slowdown", "ratio", "lower", "core", "norm_ops_per_s",
     "steady-exec"),
    ("core.ppp_wall_slowdown", "ratio", "lower", "core", "norm_ops_per_s",
     "steady-exec"),
    ("core.score_s", "s", "lower", "core", "norm_op_p50_ms", "cold-suite"),
    ("engine.cache.probe_s", "s", "lower", "engine.cache", "norm_op_p50_ms",
     "serve-mix"),
    ("engine.cache.store_s", "s", "lower", "engine.cache", "norm_op_p50_ms",
     "cold-suite"),
    ("engine.cache.bytes_written", "bytes", "lower", "engine.cache",
     "norm_op_p50_ms", "cold-suite"),
    ("engine.cache.hit_ratio", "ratio", "higher", "engine.cache",
     "norm_op_p50_ms", "serve-mix"),
    ("engine.cache.disk_hits", "count", "higher", "engine.cache",
     "norm_op_p50_ms", "serve-mix"),
    ("engine.cache.warm_rerun_s", "s", "lower", "engine.cache", "none",
     "cold-suite"),
    ("engine.parallel.dispatch_s", "s", "lower", "engine.parallel",
     "norm_op_p50_ms", "serve-mix"),
    ("engine.parallel.attempts", "count", "lower", "engine.parallel",
     "norm_op_p90_ms", "serve-mix"),
    ("engine.parallel.retries", "count", "lower", "engine.parallel",
     "norm_op_p90_ms", "serve-mix"),
    ("service.queue_wait_ms", "ms", "lower", "service", "norm_op_p90_ms",
     "serve-mix"),
    ("service.journal_append_ms", "ms", "lower", "service", "norm_op_p50_ms",
     "serve-mix"),
    ("service.journal_appends", "count", "lower", "service", "norm_op_p50_ms",
     "serve-mix"),
    ("service.profile_p50_ms", "ms", "lower", "service", "norm_op_p50_ms",
     "serve-mix"),
    ("service.remap_p50_ms", "ms", "lower", "service", "norm_op_p50_ms",
     "serve-mix"),
    ("analysis.remap_s", "s", "lower", "analysis", "norm_op_p50_ms",
     "serve-mix"),
    ("other.self_s", "s", "lower", "other", "norm_op_p50_ms", "all"),
    ("reference.tuple_cold_suite_s", "s", "lower", "interp", "norm_ops_per_s",
     "cold-suite"),
    ("trace.overhead_s", "s", "lower", "tracing", "none", "all"),
    ("trace.overhead_share", "ratio", "lower", "tracing", "none", "all"),
    ("trace.count_mismatches", "count", "lower", "tracing", "none", "all"),
)

UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}

# Counts that must repeat exactly between two traced runs of the same
# workload and seed.
DETERMINISTIC = ("interp.codegen.functions", "interp.codegen.source_bytes",
                 "interp.instructions", "core.static_ops",
                 "core.billed_overhead_pp", "core.billed_overhead_tpp",
                 "core.billed_overhead_ppp")

LAYERS = ("lang", "opt", "interp.codegen", "interp", "core", "engine.cache",
          "engine.parallel", "service", "analysis", "other")

RUNNER = "engine.parallel.ParallelRunner.run"
SCORE_SPANS = ("core.build_estimated_profile", "core.evaluate_accuracy",
               "core.evaluate_coverage", "core.evaluate_edge_coverage",
               "core.instrumented_fraction", "core.assemble_workload_result")


class Recorder:
    """Process-local span store (reset in forked children)."""

    def __init__(self, trace_dir: Optional[Path] = None) -> None:
        self.trace_dir = trace_dir
        self.root_pid = os.getpid()
        self._ids = itertools.count(1)
        self._jobs = itertools.count()
        self.after_fork()

    def after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None,
             rid: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``before(args, kwargs)`` runs first and its value reaches
        ``after(args, kwargs, result, state)``, which returns the span's
        attributes; ``rid(args, kwargs)`` names the request the call and
        everything under it belongs to.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            span = next(rec._ids)
            parent = stack[-1] if stack else 0
            outer = getattr(rec._local, "rid", "")
            request = rid(args, kwargs) if rid is not None else outer
            rec._local.rid = request
            state = before(args, kwargs) if before is not None else None
            stack.append(span)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec._local.rid = outer
                attrs = (after(args, kwargs, result, state)
                         if ok and after is not None else {})
                rec.spans.append((span, parent, name, layer, start, end,
                                  threading.get_ident(), request, attrs))

        return traced

    def detached(self, name: str, layer: str, start: int, end: int,
                 request: str, attrs: dict) -> None:
        """A span that is nobody's parent or child (an async lifetime)."""
        self.spans.append((next(self._ids), 0, name, layer, start, end,
                           threading.get_ident(), request,
                           {**attrs, "detached": True}))

    def events(self) -> list[dict]:
        return [{"name": name, "cat": layer, "ph": "X", "ts": start / 1e3,
                 "dur": (end - start) / 1e3, "pid": self.pid, "tid": tid,
                 "args": {"span": span, "parent": parent, "rid": request,
                          **attrs}}
                for (span, parent, name, layer, start, end, tid, request,
                     attrs) in self.spans]

    def dump(self, path: Path) -> None:
        write_events(self.events(), path)

    def flush_job(self) -> None:
        """Write a pool worker's spans for one job and forget them."""
        if self.trace_dir is not None and self.spans:
            self.dump(self.trace_dir /
                      f"job-{self.pid}-{next(self._jobs)}.json")
        self.spans = []


def install(rec: Recorder) -> None:
    """Wrap the program's layer entry points (once per process)."""
    import repro.core as core
    import repro.core.estimate as estimate
    import repro.core.pipeline as pipeline
    import repro.engine.stages as stages
    import repro.interp.compiled as compiled
    import repro.analysis.match as match
    import repro.analysis.transfer as transfer
    from repro.engine.cache import ArtifactCache
    from repro.engine.parallel import ParallelRunner
    from repro.engine.session import ProfilingSession
    from repro.interp.machine import Machine
    from repro.service.api import ProfileJob
    from repro.service.journal import WriteAheadJournal
    from repro.service.service import ProfilingService
    from repro.workloads.suite import Workload

    def patch(owners, attr, name, layer, **hooks):
        """Wrap ``attr`` of every owner that holds the same function."""
        original = getattr(owners[0], attr)
        wrapped = rec.wrap(original, name, layer, **hooks)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, wrapped)

    # lang
    patch([stages], "compile_stage", "lang.compile_stage", "lang")
    patch([Workload], "compile", "lang.Workload.compile", "lang")
    # opt: expansion profiles the module itself, so its self time
    # excludes the nested codegen and execution spans.
    patch([stages], "expand_stage", "opt.expand_stage", "opt",
          after=lambda a, k, r, s: {"expanded_instrs": r.module.size()})
    # interp.codegen: the module-global ``compile`` shadows the builtin.
    patch([compiled], "generate_source", "interp.codegen.generate_source",
          "interp.codegen",
          after=lambda a, k, r, s: {"source_bytes": len(r.source),
                                    "function": a[0].name})
    compiled.compile = rec.wrap(builtins.compile, "interp.codegen.compile",
                                "interp.codegen")
    # interp
    patch([Machine], "run", "interp.Machine.run", "interp",
          before=lambda a, k: a[0].instructions_executed,
          after=lambda a, k, r, s: {
              "instructions": r.instructions_executed - s,
              "backend": a[0].backend})
    # core
    patch([stages], "plan_stage", "core.plan_stage", "core",
          after=lambda a, k, r, s: {"technique": r.technique,
                                    "static_ops": r.static_ops()})
    patch([core, pipeline, stages], "run_with_plan", "core.run_with_plan",
          "core",
          after=lambda a, k, r, s: {"technique": r.plan.technique,
                                    "overhead": r.overhead})
    for fn in ("build_estimated_profile", "evaluate_accuracy",
               "evaluate_coverage", "evaluate_edge_coverage",
               "instrumented_fraction"):
        patch([core, estimate, stages], fn, f"core.{fn}", "core")
    patch([stages], "assemble_workload_result",
          "core.assemble_workload_result", "core")
    # engine.cache: the compute callback gets a span of its own, so the
    # cache's self time is the probe alone.
    def probe_state(a, k):
        stats = a[0].stats.of(a[1])
        return stats.hits, stats.disk_hits, stats

    def probe_attrs(a, k, r, s):
        hits, disk_hits, stats = s
        return {"kind": a[1], "hit": stats.hits > hits,
                "disk_hit": stats.disk_hits > disk_hits}

    get_or_compute = ArtifactCache.get_or_compute

    def with_compute_span(self, kind, key, compute):
        return get_or_compute(self, kind, key, rec.wrap(
            compute, f"engine.cache.compute.{kind}", "other"))

    ArtifactCache.get_or_compute = rec.wrap(
        with_compute_span, "engine.cache.get_or_compute", "engine.cache",
        before=probe_state, after=probe_attrs)
    patch([ArtifactCache], "lookup", "engine.cache.lookup", "engine.cache",
          before=probe_state, after=probe_attrs)
    patch([ArtifactCache], "store", "engine.cache.store", "engine.cache")
    # engine.parallel
    def runner_attrs(a, k, r, s):
        records = a[0].report.records.values()
        return {"attempts": sum(x.attempts for x in records),
                "retries": sum(max(0, x.attempts - 1) for x in records)}

    def tasks_rid(a, k):
        tasks = a[1] if len(a) > 1 else k.get("tasks", ())
        request = getattr(tasks[0], "request", None) if tasks else None
        return getattr(request, "request_id", "") or ""

    patch([ParallelRunner], "run", RUNNER, "engine.parallel",
          after=runner_attrs, rid=tasks_rid)
    patch([ProfilingSession], "run_workload", "engine.session.run_workload",
          "other", rid=lambda a, k: a[1].name)
    # service: a job is one request's work inside a pool worker.
    traced_job = rec.wrap(ProfileJob.run, "service.job", "other",
                          rid=lambda a, k: a[0].request.request_id)

    def job_run(self, *args, **kwargs):
        try:
            return traced_job(self, *args, **kwargs)
        finally:
            if os.getpid() != rec.root_pid:
                rec.flush_job()

    ProfileJob.run = job_run
    patch([WriteAheadJournal], "append", "service.journal.append",
          "service")
    submit = ProfilingService.submit

    async def traced_submit(self, request, **kwargs):
        start = time.perf_counter_ns()
        future = await submit(self, request, **kwargs)
        rec.detached("service.admit", "service", start,
                     time.perf_counter_ns(), request.request_id,
                     {"kind": request.kind})

        def resolved(done) -> None:
            status = (done.result().status
                      if not done.cancelled() and done.exception() is None
                      else "error")
            rec.detached("service.request", "service", start,
                         time.perf_counter_ns(), request.request_id,
                         {"kind": request.kind, "status": status})

        future.add_done_callback(resolved)
        return future

    ProfilingService.submit = traced_submit
    # analysis: matching and transfer for remaps.
    for fn in ("match_sketches", "sketch_module", "sketch_from_dict"):
        patch([match], fn, f"analysis.{fn}", "analysis")
    for fn in ("transfer_function_counts", "remap_edge_profile"):
        patch([transfer], fn, f"analysis.{fn}", "analysis")
    os.register_at_fork(after_in_child=rec.after_fork)


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------

def load_events(paths) -> list[dict]:
    events: list[dict] = []
    for path in paths:
        with open(path) as fh:
            events += json.load(fh)["traceEvents"]
    return events


def write_events(events: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def with_self_time(events: list[dict]) -> list[tuple[dict, float]]:
    """Each attached event with its self time in seconds: its duration
    minus the part its child spans cover."""
    covered: dict[tuple[int, int], float] = {}
    for e in events:
        if not e["args"].get("detached"):
            key = (e["pid"], e["args"]["parent"])
            covered[key] = covered.get(key, 0.0) + e["dur"]
    # A pool worker's job is a child of the dispatch that sent it, in
    # another process: the request id links the two.
    runners = {e["args"]["rid"]: (e["pid"], e["args"]["span"])
               for e in events if e["name"] == RUNNER and e["args"]["rid"]}
    for e in events:
        owner = runners.get(e["args"]["rid"])
        if e["name"] == "service.job" and owner and owner[0] != e["pid"]:
            covered[owner] = covered.get(owner, 0.0) + e["dur"]
    return [(e, (e["dur"] - covered.get((e["pid"], e["args"]["span"]),
                                        0.0)) / 1e6)
            for e in events if not e["args"].get("detached")]


def layer_self_times(events: list[dict]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for e, self_s in with_self_time(events):
        out[e["cat"]] = out.get(e["cat"], 0.0) + self_s
    return out


def layer_metrics(events: list[dict], codegen_wall_s: float) -> dict:
    """The span-derived part of :data:`LAYER_METRICS` (zero for a layer
    the workload never enters).  ``codegen_wall_s`` is the wall time the
    codegen share is taken of."""
    timed = with_self_time(events)

    def self_of(pred) -> float:
        return sum(s for e, s in timed if pred(e))

    def named(*names):
        return [e for e in events if e["name"] in names]

    def dur_s(evs) -> float:
        return sum(e["dur"] for e in evs) / 1e6

    m: dict[str, float] = {}
    m["lang.compile_s"] = self_of(lambda e: e["cat"] == "lang")
    m["opt.expand_self_s"] = self_of(lambda e: e["cat"] == "opt")
    m["opt.expanded_instrs"] = sum(e["args"]["expanded_instrs"]
                                   for e in named("opt.expand_stage"))
    generated = named("interp.codegen.generate_source")
    compiled = named("interp.codegen.compile")
    m["interp.codegen.generate_s"] = dur_s(generated)
    m["interp.codegen.compile_s"] = dur_s(compiled)
    m["interp.codegen.source_bytes"] = sum(e["args"]["source_bytes"]
                                           for e in generated)
    m["interp.codegen.functions"] = len(generated)
    m["interp.codegen.share"] = ((dur_s(generated) + dur_s(compiled))
                                 / codegen_wall_s if codegen_wall_s else 0.0)
    m["interp.run_self_s"] = self_of(lambda e: e["cat"] == "interp")
    m["interp.instructions"] = sum(e["args"]["instructions"]
                                   for e in named("interp.Machine.run"))
    plans = named("core.plan_stage")
    m["core.plan_s"] = self_of(lambda e: e["name"] == "core.plan_stage")
    m["core.static_ops"] = sum(e["args"]["static_ops"] for e in plans)
    runs = named("core.run_with_plan")
    m["core.run_with_plan_self_s"] = self_of(
        lambda e: e["name"] == "core.run_with_plan")
    for t in ("pp", "tpp", "ppp"):
        billed = [e["args"]["overhead"] for e in runs
                  if e["args"]["technique"] == t]
        # fsum: exact, so the order spans arrive in cannot matter.
        m[f"core.billed_overhead_{t}"] = (math.fsum(billed) / len(billed)
                                          if billed else 0.0)
    m["core.score_s"] = self_of(lambda e: e["name"] in SCORE_SPANS)
    probes = named("engine.cache.get_or_compute", "engine.cache.lookup")
    m["engine.cache.probe_s"] = self_of(
        lambda e: e["name"] in ("engine.cache.get_or_compute",
                                "engine.cache.lookup"))
    m["engine.cache.store_s"] = self_of(
        lambda e: e["name"] == "engine.cache.store")
    m["engine.cache.hit_ratio"] = (
        sum(1 for e in probes if e["args"]["hit"]) / len(probes)
        if probes else 0.0)
    m["engine.cache.disk_hits"] = sum(1 for e in probes
                                      if e["args"]["disk_hit"])
    runners = named(RUNNER)
    m["engine.parallel.dispatch_s"] = self_of(lambda e: e["name"] == RUNNER)
    m["engine.parallel.attempts"] = sum(e["args"]["attempts"]
                                        for e in runners)
    m["engine.parallel.retries"] = sum(e["args"]["retries"]
                                       for e in runners)
    admitted = {e["args"]["rid"]: e["ts"] for e in named("service.admit")}
    waits = [(e["ts"] - admitted[e["args"]["rid"]]) / 1e3 for e in runners
             if e["args"]["rid"] in admitted]
    m["service.queue_wait_ms"] = statistics.median(waits) if waits else 0.0
    appends = named("service.journal.append")
    m["service.journal_append_ms"] = (dur_s(appends) * 1e3 / len(appends)
                                      if appends else 0.0)
    m["service.journal_appends"] = len(appends)
    for kind in ("profile", "remap"):
        lat = [e["dur"] / 1e3 for e in named("service.request")
               if e["args"]["kind"] == kind]
        m[f"service.{kind}_p50_ms"] = statistics.median(lat) if lat else 0.0
    m["analysis.remap_s"] = self_of(lambda e: e["cat"] == "analysis")
    m["other.self_s"] = self_of(lambda e: e["cat"] == "other")
    return m


def deterministic_counts(metrics: dict) -> dict:
    return {name: metrics[name] for name in DETERMINISTIC}


def program_digest() -> str:
    """Digest of the program's sources, so that counts recorded for one
    version of the code are never compared with another's."""
    from common import SRC

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_counts(record: Path, counts: dict) -> list[str]:
    """Differences from an earlier traced run's counts (stored at
    ``record``); the first run stores them."""
    if not record.is_file():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True))
        return []
    earlier = json.loads(record.read_text())
    return [f"{name}: earlier {earlier.get(name)!r}, now {value!r}"
            for name, value in counts.items() if earlier.get(name) != value]


def format_layers(events: list[dict]) -> str:
    selfs = layer_self_times(events)
    total = sum(selfs.values()) or 1.0
    rows = sorted(selfs.items(), key=lambda kv: -kv[1])
    return "\n".join(f"  {layer:<16} {secs:9.3f} s  {100 * secs / total:5.1f}%"
                     for layer, secs in rows)
