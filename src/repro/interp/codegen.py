"""Python source generation for the compiled execution backend.

Each sealed IR function is translated, one *segment* at a time, into
generated Python source that the trampoline in
:mod:`repro.interp.compiled` drives.  Register accesses become
constant-index list subscripts, block transitions become precomputed
integer segment ids, and the observation channels (edge-profile
counting, path tracing, edge hooks, the path listener) are *fused into
the block-exit code only when enabled*: a machine built without
profiling emits no counting code at all, so the common fast path carries
zero per-instruction or per-edge conditionals.

A segment is the run of instructions from a block start (or from a
call-return point inside a block) up to the next call or the block
terminator.  To keep control transfers off the trampoline, the emitter
then chases the CFG from each segment's exit:

* jump/branch targets are **inlined** (code duplication, bounded by a
  per-segment instruction budget) so a whole loop iteration -- including
  internal if/else diamonds -- usually becomes straight-line Python;
* an edge back to the segment's own start block compiles to a native
  ``continue`` of the segment's ``while True:`` wrapper, so hot loops
  spin entirely inside one generated function;
* calls, cycles through other blocks, and budget exhaustion fall back to
  returning a precomputed integer segment id to the trampoline.

Generation is lazy at segment granularity.  :class:`SegmentCodegen`
fixes everything one (function, mode) specialisation shares before any
segment exists -- the dense edge order, the hook order, and the
``_make`` parameter list, with global arrays numbered in IR order -- so
:meth:`SegmentCodegen.segment_source` can emit any one segment on its
own, as a module whose ``_make`` returns that segment's closure.  The
backend emits and compiles a segment only when the trampoline first
enters it; most segments never run.  :func:`generate_source` joins all
segments into one module whose ``_make`` returns the whole tuple; it
exists for the translation validator's whole-function checks and the
codegen mutation gate.

Instruction accounting lives in the generated code: every exit path adds
its exact instruction count (a compile-time constant) to the shared
``_ic`` cell and re-checks the ``max_instructions`` limit, matching the
tuple interpreter's per-block cadence.  Segment protocol (see the
trampoline):

* ``return <int>``                    -- continue at that segment id;
* ``return (func, args, dst, seg)``   -- call ``func`` with ``args``,
  store the result in caller slot ``dst`` (or ``None``), resume at
  segment ``seg``;
* ``return (value,)``                 -- return ``value`` from the frame.

Semantics are byte-identical to the tuple interpreter (same C-style
division, index wrapping, 0/1 comparisons, instruction counting, and
traversal order of profile count -> hook -> tracer); the differential
tests in ``tests/test_interp_backends.py`` hold the backend to that
contract across the whole workload suite, and :mod:`repro.analysis.equiv`
proves each generated segment equivalent to its IR.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Optional

from ..cfg.loops import find_back_edges
from ..ir.function import Function, Module
from ..ir.instructions import (BinOp, Branch, Call, Const, GlobalLoad,
                               GlobalStore, Jump, Load, Mov, Ret, Select,
                               Store, UnOp)

__all__ = ["ModeSpec", "CodegenResult", "SegmentCodegen", "generate_source",
           "source_digest", "INLINE_BUDGET"]

# Extra instructions one segment may inline from successor blocks before
# falling back to the trampoline.  Bounds generated-code size (inlined
# diamonds duplicate their join blocks) while letting typical loop bodies
# compile into a single native loop.
INLINE_BUDGET = 400


@dataclass(frozen=True)
class ModeSpec:
    """Which observation channels the generated code must carry."""

    profile: bool = False
    trace: bool = False
    listener: bool = False
    # (block, target) keys of edges that have a hook attached.
    hook_edges: frozenset = frozenset()
    # Sparse edge counting: when not None, only these (block, target)
    # keys get a counter increment; the rest are statically proven
    # recoverable by flow-conservation reconstruction
    # (:mod:`repro.analysis.conservation`).  None means dense counting.
    probes: Optional[frozenset] = None


@dataclass(frozen=True)
class CodegenResult:
    """Generated source plus the tables the backend needs to wire it up.

    ``source`` is either the whole function (:func:`generate_source`)
    or one segment (:meth:`SegmentCodegen.result`); the tables describe
    the specialisation either way."""

    source: str
    # Dense edge order: edge_keys[i] is the (block, target) counted by
    # slot i of the edge-counter list.
    edge_keys: tuple[tuple[str, str], ...] = ()
    # Global array names in ``_g{i}`` parameter order.
    global_arrays: tuple[str, ...] = ()
    # Hooked edge keys in ``_h{i}`` parameter order.
    hook_edges: tuple[tuple[str, str], ...] = ()
    num_segments: int = 0


# Straight-line templates; {d}/{a}/{b} are pre-rendered ``regs[K]``
# register operands.
_BIN_TEMPLATES = {
    "+": "{d} = {a} + {b}",
    "-": "{d} = {a} - {b}",
    "*": "{d} = {a} * {b}",
    "/": "{d} = _div({a}, {b})",
    "%": "{d} = _mod({a}, {b})",
    "<": "{d} = 1 if {a} < {b} else 0",
    "<=": "{d} = 1 if {a} <= {b} else 0",
    ">": "{d} = 1 if {a} > {b} else 0",
    ">=": "{d} = 1 if {a} >= {b} else 0",
    "==": "{d} = 1 if {a} == {b} else 0",
    "!=": "{d} = 1 if {a} != {b} else 0",
    "&": "{d} = int({a}) & int({b})",
    "|": "{d} = int({a}) | int({b})",
    "^": "{d} = int({a}) ^ int({b})",
    "<<": "{d} = int({a}) << (int({b}) & 63)",
    ">>": "{d} = int({a}) >> (int({b}) & 63)",
}

_UN_TEMPLATES = {
    "-": "{d} = -{a}",
    "!": "{d} = 1 if {a} == 0 else 0",
    "~": "{d} = ~int({a})",
}

_LIMIT_CHECK = ("if _ic[0] > _lim[0]: "
                "raise _err('instruction limit exceeded (%d)' % _lim[0])")


def _segment_ranges(func: Function) -> tuple[list[tuple[str, int]],
                                             dict[str, int]]:
    """Split every block at call boundaries.

    Returns ``(segments, block_entry_seg)`` where each segment is
    ``(block, start_index)`` (it runs to the next call or the block's
    terminator), and ``block_entry_seg`` maps a block name to the id of
    its first segment.  The entry block's first segment is always id 0.
    """
    order = [func.cfg.entry] + [b for b in func.cfg.blocks
                                if b != func.cfg.entry]
    segments: list[tuple[str, int]] = []
    block_entry: dict[str, int] = {}
    for bname in order:
        instrs = func.cfg.blocks[bname].instructions
        block_entry[bname] = len(segments)
        segments.append((bname, 0))
        for i, instr in enumerate(instrs):
            if isinstance(instr, Call):
                # A sealed block never ends with a Call, so the resume
                # range (i + 1 ...) is always non-empty.
                segments.append((bname, i + 1))
    return segments, block_entry


class _Geometry:
    """The per-function emission geometry: segment table, dense edge
    index, and back-edge keys.  Depends only on the sealed IR, so it is
    computed once per function and shared by every mode specialization
    the emitter is asked for."""

    __slots__ = ("segments", "block_entry", "range_seg", "edge_index",
                 "back_keys")

    def __init__(self, func: Function):
        self.segments, self.block_entry = _segment_ranges(func)
        # (block, start index) -> segment id, for call-resume points.
        self.range_seg = {key: i for i, key in enumerate(self.segments)}
        # Dense edge indexing in terminator order (deterministic,
        # matching the order seal() derived the CFG edges in).
        self.edge_index: dict[tuple[str, str], int] = {}
        for bname, _start in self.segments:
            if _start:
                continue
            term = func.cfg.blocks[bname].instructions[-1]
            if isinstance(term, Jump):
                targets: tuple[str, ...] = (term.target,)
            elif isinstance(term, Branch):
                targets = (term.then_target, term.else_target)
            else:
                targets = ()
            for target in targets:
                self.edge_index[(bname, target)] = len(self.edge_index)
        back_uids = {e.uid for e in find_back_edges(func.cfg)}
        self.back_keys = {
            key for key in self.edge_index
            if func.edge_by_target[key[0]][key[1]].uid in back_uids}


_GEOMETRY: "weakref.WeakKeyDictionary[Function, _Geometry]" = \
    weakref.WeakKeyDictionary()


def function_geometry(func: Function) -> _Geometry:
    """The memoised :class:`_Geometry` of a sealed function."""
    geo = _GEOMETRY.get(func)
    if geo is None:
        geo = _GEOMETRY[func] = _Geometry(func)
    return geo


def source_digest(source: str) -> bytes:
    """sha256 of generated source: lets a later check confirm that a
    re-emitted segment is the text that was compiled."""
    return hashlib.sha256(source.encode()).digest()


class SegmentCodegen:
    """The emission state of one (function, mode) specialisation.

    Everything the segments share is fixed here, before any segment is
    emitted: the dense edge order, the ``_h{i}`` hook order, and the
    ``_g{i}`` global-array order (first reference in IR block order).
    So any one segment can be emitted on its own, and its code does not
    depend on which other segments were emitted first.  Holds no
    reference to the :class:`Function`: callers pass it to each
    :meth:`segment_source`, and the backend caches instances in tables
    weakly keyed by it.
    """

    __slots__ = ("spec", "edge_keys", "hook_order", "global_order",
                 "num_segments", "header")

    def __init__(self, func: Function, module: Module, spec: ModeSpec):
        geo = function_geometry(func)
        self.spec = spec
        self.edge_keys = tuple(geo.edge_index)
        self.hook_order = {
            key: i for i, key in enumerate(
                sorted(spec.hook_edges, key=geo.edge_index.__getitem__))}
        self.global_order: dict[str, int] = {}
        for bname, start in geo.segments:
            if start:
                continue
            for instr in func.cfg.blocks[bname].instructions:
                if (isinstance(instr, (Load, Store))
                        and instr.array not in func.arrays):
                    self.global_order.setdefault(instr.array,
                                                 len(self.global_order))
        self.num_segments = len(geo.segments)
        params = "".join(f", _g{i}" for i in range(len(self.global_order)))
        params += "".join(f", _h{i}" for i in range(len(self.hook_order)))
        self.header = (f"def _make(_div, _mod, _err, _ic, _lim, _gs, _pc, "
                       f"_pl, _ec{params}):")

    @property
    def global_arrays(self) -> tuple[str, ...]:
        return tuple(self.global_order)

    @property
    def hook_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.hook_order)

    def segment_source(self, func: Function, module: Module,
                       seg_id: int) -> str:
        """A module whose ``_make`` returns segment ``seg_id`` alone."""
        lines = _FunctionEmitter(func, module, self).emit_segment(seg_id)
        return "\n".join([self.header, *lines,
                          f"    return _seg_{seg_id}", ""])

    def result(self, source: str) -> CodegenResult:
        """``source`` (one segment or all of them) with this
        specialisation's tables."""
        return CodegenResult(source=source, edge_keys=self.edge_keys,
                             global_arrays=self.global_arrays,
                             hook_edges=self.hook_edges,
                             num_segments=self.num_segments)


class _FunctionEmitter:
    """Emits segments of one function under one specialisation."""

    def __init__(self, func: Function, module: Module,
                 codegen: SegmentCodegen):
        self.func = func
        self.module = module
        self.spec = codegen.spec
        self.s = func.register_slots.__getitem__
        self.blocks = func.cfg.blocks
        geo = function_geometry(func)
        self.segments = geo.segments
        self.block_entry = geo.block_entry
        self.range_seg = geo.range_seg
        self.edge_index = geo.edge_index
        self.back_keys = geo.back_keys
        self.hook_order = codegen.hook_order
        self.global_order = codegen.global_order

        # Per-segment emission state.
        self.lines: list[str] = []
        self.used_locals: dict[str, None] = {}
        self.budget = 0
        self.start_block = ""
        self.at_block_start = False

    # -- low-level writers ---------------------------------------------

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def reg(self, name: str) -> str:
        """The ``regs[K]`` operand of IR register ``name``."""
        return f"regs[{self.s(name)}]"

    def array_ref(self, name: str) -> tuple[str, int]:
        """(python name, length) for an array operand; records local
        arrays so the segment prologue can hoist them.  IR identifiers
        may shadow Python keywords or each other, so literal array names
        only ever appear as dict-key string constants."""
        if name in self.func.arrays:
            self.used_locals.setdefault(name)
            return self.local_name(name), self.func.arrays[name]
        return (f"_g{self.global_order[name]}",
                self.module.global_arrays[name])

    def local_name(self, name: str) -> str:
        """``_l{i}``: ``i`` is the array's declaration index."""
        return f"_l{list(self.func.arrays).index(name)}"

    # -- instruction and edge emission ---------------------------------

    def emit_instr(self, instr, indent: int) -> None:
        w, r = self.w, self.reg
        if isinstance(instr, Const):
            w(indent, f"{r(instr.dst)} = {instr.value!r}")
        elif isinstance(instr, Mov):
            w(indent, f"{r(instr.dst)} = {r(instr.src)}")
        elif isinstance(instr, BinOp):
            w(indent, _BIN_TEMPLATES[instr.op].format(
                d=r(instr.dst), a=r(instr.a), b=r(instr.b)))
        elif isinstance(instr, UnOp):
            w(indent, _UN_TEMPLATES[instr.op].format(
                d=r(instr.dst), a=r(instr.a)))
        elif isinstance(instr, Select):
            w(indent, f"{r(instr.dst)} = {r(instr.a)} "
                      f"if {r(instr.cond)} else {r(instr.b)}")
        elif isinstance(instr, Load):
            name, length = self.array_ref(instr.array)
            w(indent, f"{r(instr.dst)} = "
                      f"{name}[int({r(instr.idx)}) % {length}]")
        elif isinstance(instr, Store):
            name, length = self.array_ref(instr.array)
            w(indent, f"{name}[int({r(instr.idx)}) % {length}] = "
                      f"{r(instr.src)}")
        elif isinstance(instr, GlobalLoad):
            w(indent, f"{r(instr.dst)} = _gs[{instr.name!r}]")
        elif isinstance(instr, GlobalStore):
            w(indent, f"_gs[{instr.name!r}] = {r(instr.src)}")
        else:  # pragma: no cover - terminators/calls handled by caller
            raise TypeError(f"cannot generate code for {instr!r}")

    def emit_edge(self, key: tuple[str, str], indent: int) -> None:
        """The fused block-exit work for traversing one CFG edge, in the
        tuple interpreter's order: profile count, hook, tracer."""
        spec, w = self.spec, self.w
        if spec.profile and (spec.probes is None or key in spec.probes):
            w(indent, f"_ec[{self.edge_index[key]}] += 1")
        if key in self.hook_order:
            w(indent, f"_h{self.hook_order[key]}(frame)")
        if spec.trace:
            target = key[1]
            if key in self.back_keys:
                w(indent, "_p = tuple(frame.path_blocks)")
                w(indent, "_pc[_p] = _pc.get(_p, 0) + 1")
                if spec.listener:
                    w(indent, f"_pl({self.func.name!r}, _p)")
                w(indent, f"frame.path_blocks = [{target!r}]")
            else:
                w(indent, f"frame.path_blocks.append({target!r})")

    def emit_cost(self, cost: int, indent: int) -> None:
        """Bill ``cost`` executed instructions and re-check the limit
        (the tuple interpreter checks once per block execution)."""
        self.w(indent, f"_ic[0] += {cost}")
        self.w(indent, _LIMIT_CHECK)

    # -- control flow --------------------------------------------------

    def emit_range(self, bname: str, start: int, cost: int, indent: int,
                   chain: frozenset) -> None:
        """Emit instructions from ``(bname, start)`` to the next call or
        the terminator, then chase the control transfer."""
        instrs = self.blocks[bname].instructions
        last = len(instrs) - 1
        i = start
        while i < last and not isinstance(instrs[i], Call):
            self.emit_instr(instrs[i], indent)
            i += 1
        instr = instrs[i]
        cost += i - start + 1
        self.budget -= i - start + 1
        if isinstance(instr, Call):
            args = "".join(f"{self.reg(a)}, " for a in instr.args)
            dst = self.s(instr.dst) if instr.dst is not None else None
            self.emit_cost(cost, indent)
            self.w(indent, f"return ({instr.func!r}, ({args}), {dst}, "
                           f"{self.range_seg[(bname, i + 1)]})")
        elif isinstance(instr, Ret):
            self.emit_ret(instr, cost, indent)
        elif isinstance(instr, Jump):
            self.emit_edge((bname, instr.target), indent)
            self.emit_goto(instr.target, cost, indent, chain)
        elif isinstance(instr, Branch):
            then_t, else_t = instr.then_target, instr.else_target
            self.w(indent, f"if {self.reg(instr.cond)}:")
            self.emit_edge((bname, then_t), indent + 1)
            self.emit_goto(then_t, cost, indent + 1, chain)
            self.emit_edge((bname, else_t), indent)
            self.emit_goto(else_t, cost, indent, chain)
        else:  # pragma: no cover - sealed IR always terminates blocks
            raise TypeError(f"block {bname!r} ends with {instr!r}")

    def emit_goto(self, target: str, cost: int, indent: int,
                  chain: frozenset) -> None:
        """Transfer to ``target``: native loop continue, trampoline
        bounce, or inline the target block."""
        if target == self.start_block and self.at_block_start:
            # Back to this segment's own top: spin natively.
            self.emit_cost(cost, indent)
            self.w(indent, "continue")
        elif target in chain or self.budget <= 0:
            # Cycle or budget exhausted: hand the transfer back to the
            # trampoline.
            self.emit_cost(cost, indent)
            self.w(indent, f"return {self.block_entry[target]}")
        else:
            self.emit_range(target, 0, cost, indent, chain | {target})

    def emit_ret(self, instr: Ret, cost: int, indent: int) -> None:
        value = self.reg(instr.src) if instr.src is not None else "0"
        self.emit_cost(cost, indent)
        if self.spec.trace:
            # Read the return value before the flush: a path listener
            # runs during the flush and must observe the same state the
            # tuple interpreter shows it.
            self.w(indent, f"_rv = {value}")
            self.w(indent, "_p = tuple(frame.path_blocks)")
            self.w(indent, "_pc[_p] = _pc.get(_p, 0) + 1")
            if self.spec.listener:
                self.w(indent, f"_pl({self.func.name!r}, _p)")
            self.w(indent, "return (_rv,)")
        else:
            self.w(indent, f"return ({value},)")

    # -- assembly ------------------------------------------------------

    def emit_segment(self, seg_id: int) -> list[str]:
        bname, start = self.segments[seg_id]
        self.lines = []
        self.used_locals = {}
        self.budget = INLINE_BUDGET
        self.start_block = bname
        self.at_block_start = (start == 0)
        self.emit_range(bname, start, 0, 3, frozenset({bname}))
        out = [f"    def _seg_{seg_id}(frame, regs):"]
        out.extend(
            f"        {self.local_name(name)} = "
            f"frame.arrays[{name!r}]" for name in self.used_locals)
        out.append("        while True:")
        out.extend(self.lines)
        return out


def generate_source(func: Function, module: Module,
                    spec: ModeSpec) -> CodegenResult:
    """Every segment of one sealed function, joined into one module
    whose ``_make`` returns the tuple of segment closures (the form the
    translation validator and the mutation gate check whole)."""
    codegen = SegmentCodegen(func, module, spec)
    emitter = _FunctionEmitter(func, module, codegen)
    body: list[str] = []
    for seg_id in range(codegen.num_segments):
        body.extend(emitter.emit_segment(seg_id))
    footer = "    return ({})".format(
        "".join(f"_seg_{i}, " for i in range(codegen.num_segments)))
    return codegen.result("\n".join([codegen.header, *body, footer, ""]))
