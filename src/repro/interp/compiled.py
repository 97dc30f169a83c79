"""The compiled-block execution backend.

:class:`CompiledBackend` drives the Python source generated by
:mod:`repro.interp.codegen`: each IR function becomes a list of segment
closures (one list per machine, per observation mode, per hook
attachment), and a small trampoline walks segment ids and an explicit
frame stack -- so deep IR recursion never touches the Python stack, and
``max_instructions`` / cost accounting behave exactly like the tuple
interpreter's.

Lazy segments: a function's list starts as stubs.  The first time the
trampoline enters a segment, its stub emits that one segment
(:meth:`~repro.interp.codegen.SegmentCodegen.segment_source`), compiles
it, binds the closure with the machine's ``_make`` arguments, replaces
itself in the list, and runs it; later entries call the closure
directly.  Compiled code (each segment's ``_make``) is cached
process-wide per (function, mode, segment), so further machines over
the same module compile nothing, and segments that never run are never
generated.

Instruction accounting is fused into the generated code: all segment
closures of one machine share the ``_ic`` cell (a one-element list
holding the machine-global executed count) and the ``_lim`` cell (the
``max_instructions`` budget), adding exact compile-time-constant costs
and raising ``MachineError`` themselves when the limit trips.  The
trampoline therefore only routes transfers: integer results continue
within the frame, 4-tuples push a callee frame, 1-tuples pop.

Specialization and invalidation: the generated code fuses edge-profile
counting, path tracing, the path listener, and edge hooks into block
exits *only when enabled*.  Hooks are attached after machine
construction (``run_with_plan`` builds the machine, then attaches a
plan's instrumentation), so a function's segment list is built the
first time it executes, and every hook mutation bumps the owning
:class:`~repro.interp.machine._CompiledFunction`'s ``hooks_version``;
the stale list is dropped when the next run enters the trampoline.

Edge counts are accumulated in a dense per-function list indexed by
static edge order (no per-traversal dict lookup) and folded back into
``Machine.edge_counts``'s uid-keyed dicts when execution leaves the
trampoline, keeping :class:`~repro.interp.machine.RunResult` identical
across backends.

Validation: with ``validate_codegen``, every segment is proven
equivalent to its IR by :func:`repro.analysis.equiv.check_generated`
before it first executes (verdicts are cached per function x mode x
segment).  A segment compiled earlier by a non-validating machine is
re-emitted for the proof, and the re-emitted text must hash to the
sha256 recorded when it was compiled.  Validation failures (``CodegenValidationError``) never
degrade -- a proven miscompile must crash.

Graceful degradation: if setting up a function fails (an injected
``codegen-fail`` fault, or a defect), that function -- and only that
function -- runs on the reference tuple interpreter with a
``codegen-fallback`` :class:`~repro.engine.faults.DegradationEvent`.  A
defect that surfaces only when one segment is first entered records the
same event, and the frame resumes on the tuple loop at that segment's
block and instruction (the two backends share :class:`Frame`); any
later entry of the broken segment does the same.  Because generated
code is proven observationally equivalent to the IR, results are
bit-identical either way.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING

from .codegen import (ModeSpec, SegmentCodegen, function_geometry,
                      source_digest)
# Not called here: the whole-function join serves validation only.  It
# stays importable from this module, where perfbench/tracing.py wraps it.
from .codegen import generate_source  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .machine import Frame, Machine, _CompiledFunction

__all__ = ["CompiledBackend"]


class _LazyCode:
    """One (function, mode) specialisation's process-wide code: its
    emission state and, per segment, the compiled ``_make`` that binds
    the segment's closure and the digest of the source it was compiled
    from -- both ``None`` until the segment first runs.  Holds no
    reference to the function, so the weakly keyed cache entry dies
    with it."""

    __slots__ = ("codegen", "makers", "digests", "source_bytes")

    def __init__(self, codegen: SegmentCodegen):
        self.codegen = codegen
        self.makers: list = [None] * codegen.num_segments
        self.digests: list = [None] * codegen.num_segments
        self.source_bytes = 0  # emitted for the compiled segments


# Generated code depends only on the (immutable, sealed) function IR and
# the observation mode -- never on machine state; the per-machine
# bindings all arrive as ``_make`` arguments.  So the compiled code of
# each segment is cached per function and mode, and the many machines
# the engine builds over one module (ground truth, technique scoring,
# repeated runs) compile each segment at most once.
_CODE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _lazy_code(func, module, spec: ModeSpec) -> _LazyCode:
    per_func = _CODE_CACHE.get(func)
    if per_func is None:
        per_func = _CODE_CACHE[func] = {}
    lazy = per_func.get(spec)
    if lazy is None:
        lazy = per_func[spec] = _LazyCode(SegmentCodegen(func, module, spec))
    return lazy


def codegen_stats(module) -> tuple[int, int]:
    """(segments compiled, bytes of source emitted for them) over every
    specialisation of ``module``'s functions in this process."""
    segments = source_bytes = 0
    for func in module.functions.values():
        for lazy in _CODE_CACHE.get(func, {}).values():
            segments += sum(make is not None for make in lazy.makers)
            source_bytes += lazy.source_bytes
    return segments, source_bytes


class _GeneratedFunction:
    """One function's segment list plus backing tables."""

    __slots__ = ("name", "tables", "lazy", "make_args", "seg_fns",
                 "edge_uids", "edge_counters", "hooks_version")

    def __init__(self, name: str, tables: "_CompiledFunction",
                 lazy: _LazyCode, make_args: tuple, counters: list,
                 hooks_version: int):
        self.name = name
        self.tables = tables
        self.lazy = lazy
        self.make_args = make_args
        self.seg_fns: list = []
        self.edge_uids = tuple(tables.edge_uid[key]
                               for key in lazy.codegen.edge_keys)
        self.edge_counters = counters  # the list the closures mutate
        self.hooks_version = hooks_version


class CompiledBackend:
    """Per-machine state of the compiled backend (lazy codegen + run)."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.functions: dict[str, _GeneratedFunction] = {}
        # Functions whose codegen failed: executed via the tuple loop.
        self._degraded: set[str] = set()
        # Instructions executed by tuple-loop fallbacks during the
        # current execute() call (they bill their own base cost).
        self._foreign = 0
        # Shared by every segment closure this backend generates:
        # _ic[0] is the machine-global executed-instruction count,
        # _lim[0] the max_instructions budget (refreshed per run).
        self._ic: list = [0]
        self._lim: list = [0]

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------

    def function(self, name: str) -> "_GeneratedFunction | None":
        """The up-to-date segment list of ``name`` (set up on first use
        and after any hook attachment), or ``None`` when the function
        is degraded to the tuple interpreter."""
        from .machine import MachineError

        cf = self.machine.compiled.get(name)
        if cf is None:
            raise MachineError(f"call to unknown {name!r}")
        if name in self._degraded:
            return None
        gf = self.functions.get(name)
        if gf is None or gf.hooks_version != cf.hooks_version:
            try:
                gf = self._generate(name, cf)
            except Exception as exc:
                self._degrade_or_raise(name, exc)
                return None
        return gf

    def _degrade_or_raise(self, name: str, exc: Exception) -> None:
        """Record a per-function fallback to the tuple interpreter,
        unless ``exc`` must propagate: runtime errors, and proven
        miscompiles, which must crash rather than degrade."""
        from ..analysis.equiv import CodegenValidationError
        from ..engine.faults import DegradationEvent, record_degradation
        from .machine import MachineError

        if isinstance(exc, (MachineError, CodegenValidationError)):
            raise exc
        if name in self._degraded:
            return
        self._degraded.add(name)
        event = DegradationEvent(
            "codegen-fallback", name,
            f"{type(exc).__name__}: {exc}; executing via tuple backend")
        self.machine.degradations.append(event)
        record_degradation(event)

    def _generate(self, name: str,
                  cf: "_CompiledFunction") -> _GeneratedFunction:
        """Set up ``name``'s segment list, all stubs; failures propagate
        to the caller, which degrades the function to the tuple loop."""
        from ..engine.faults import maybe_fail_codegen
        from .machine import MachineError, _c_div, _c_mod

        maybe_fail_codegen(name)
        old = self.functions.get(name)
        if old is not None:
            # Regeneration mid-stream must not drop traversals already
            # counted against the old dense list.
            self._fold_function(old)
        machine = self.machine
        spec = ModeSpec(
            profile=machine.collect_edge_profile,
            trace=machine.trace_paths,
            listener=machine.path_listener is not None,
            hook_edges=frozenset(cf.hooks),
            probes=cf.probe_keys,
        )
        lazy = _lazy_code(cf.func, machine.module, spec)
        codegen = lazy.codegen
        counters = [0] * len(codegen.edge_keys)
        make_args = (
            _c_div, _c_mod, MachineError, self._ic, self._lim,
            machine.global_scalars, machine.path_counts[name],
            machine.path_listener, counters,
            *(machine.global_arrays[n] for n in codegen.global_arrays),
            *(cf.hooks[key] for key in codegen.hook_edges))
        gf = _GeneratedFunction(name, cf, lazy, make_args, counters,
                                cf.hooks_version)
        gf.seg_fns = [partial(self._first_entry, gf, seg_id)
                      for seg_id in range(codegen.num_segments)]
        self.functions[name] = gf
        return gf

    def _first_entry(self, gf: _GeneratedFunction, seg_id: int,
                     frame: "Frame", regs: list) -> object:
        """The stub of segment ``seg_id``: build the segment, put it in
        the stub's place, and run it -- or, if building it fails, run
        the rest of the frame on the tuple loop."""
        if gf.name not in self._degraded:
            try:
                fn = self._segment_maker(gf, seg_id)(*gf.make_args)
            except Exception as exc:
                self._degrade_or_raise(gf.name, exc)
            else:
                gf.seg_fns[seg_id] = fn
                return fn(frame, regs)
        frame.block, frame.ip = function_geometry(
            gf.tables.func).segments[seg_id]
        return (self._tuple_call(gf.name, (), frame),)

    def _segment_maker(self, gf: _GeneratedFunction, seg_id: int):
        """Segment ``seg_id``'s ``_make``, compiled on first use in the
        process and proven first when the machine validates."""
        machine = self.machine
        lazy, func = gf.lazy, gf.tables.func
        make = lazy.makers[seg_id]
        source = None
        if make is None:
            source = lazy.codegen.segment_source(func, machine.module,
                                                 seg_id)
        if machine.validate_codegen:
            # A segment another machine compiled unproven is re-emitted
            # by the checker, which also confirms the text it proves is
            # the one compiled.
            from ..analysis.equiv import check_generated
            check_generated(func, machine.module, lazy.codegen, seg_id,
                            source, lazy.digests[seg_id])
        if make is None:
            namespace: dict = {}
            exec(compile(source, f"<repro codegen {func.name}>", "exec"),
                 namespace)
            make = lazy.makers[seg_id] = namespace["_make"]
            lazy.digests[seg_id] = source_digest(source)
            lazy.source_bytes += len(source)
        return make

    def _refresh(self) -> None:
        """Drop generated code whose hook set changed since the last
        run, so the hot call path needs no per-call version compare."""
        compiled = self.machine.compiled
        stale = [name for name, gf in self.functions.items()
                 if gf.hooks_version != compiled[name].hooks_version]
        for name in stale:
            self._fold_function(self.functions.pop(name))

    # ------------------------------------------------------------------
    # Edge-count folding
    # ------------------------------------------------------------------

    def _fold_function(self, gf: _GeneratedFunction) -> None:
        counters = gf.edge_counters
        dest = self.machine.edge_counts[gf.name]
        uids = gf.edge_uids
        for i, count in enumerate(counters):
            if count:
                uid = uids[i]
                dest[uid] = dest.get(uid, 0) + count
                counters[i] = 0

    def fold_edge_counts(self) -> None:
        """Fold every dense counter list into the machine's uid-keyed
        ``edge_counts`` dicts (idempotent; counters are zeroed)."""
        if not self.machine.collect_edge_profile:
            return
        for gf in self.functions.values():
            self._fold_function(gf)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _tuple_call(self, name: str, args: tuple,
                    frame: "Frame | None" = None) -> object:
        """Run one degraded function (and everything it calls) -- or the
        rest of ``frame``, an activation of it -- on the reference tuple
        interpreter, keeping the shared instruction counter coherent.
        The tuple loop bills its own base cost."""
        machine = self.machine
        ic = self._ic
        machine.instructions_executed = ic[0]
        before = ic[0]
        try:
            machine._execute_tuple(name, args, frame)
        finally:
            ic[0] = machine.instructions_executed
            self._foreign += ic[0] - before
        return machine._last_return

    def execute(self, name: str, args: tuple) -> None:
        """Run ``name`` to completion (mirrors ``Machine._execute_tuple``:
        same frame stack, instruction accounting, and limit handling)."""
        machine = self.machine
        self._refresh()
        ic = self._ic
        ic[0] = machine.instructions_executed
        executed_start = ic[0]
        self._lim[0] = machine.max_instructions
        self._foreign = 0
        new_frame = machine._new_frame
        functions = self.functions
        gf = functions.get(name)
        if gf is None:
            gf = self.function(name)
        try:
            if gf is None:  # degraded entry point: pure tuple execution
                self._tuple_call(name, args)
                stack = []
            else:
                frame = new_frame(gf.tables, args)
                stack = [(frame, gf)]
            while stack:
                frame, gf = stack[-1]
                fns = gf.seg_fns
                regs = frame.regs
                ip = frame.ip
                while True:
                    t = fns[ip](frame, regs)
                    if type(t) is int:
                        ip = t
                    else:
                        break
                if len(t) == 4:  # (callee, args, dst_slot, resume_seg)
                    frame.ip = t[3]
                    callee = functions.get(t[0])
                    if callee is None:
                        callee = self.function(t[0])
                        if callee is None:
                            # Degraded callee: run it on the tuple loop
                            # inline, then resume this compiled frame.
                            value = self._tuple_call(t[0], t[1])
                            if t[2] is not None:
                                frame.regs[t[2]] = value
                            continue
                    new = new_frame(callee.tables, t[1])
                    new.ret_dst = t[2]
                    stack.append((new, callee))
                else:  # (value,)
                    value = t[0]
                    stack.pop()
                    if stack:
                        caller = stack[-1][0]
                        if frame.ret_dst is not None:
                            caller.regs[frame.ret_dst] = value
                    else:
                        machine._last_return = value
        finally:
            machine.instructions_executed = ic[0]
            self.fold_edge_counts()
        machine.costs.base += ((ic[0] - executed_start - self._foreign)
                               * machine.cost_model.ir_instruction)
