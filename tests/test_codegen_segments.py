"""Segment geometry of the compiled backend's code generator.

The emitter splits every block at call boundaries into *segments* (the
trampoline's goto targets); the segment table, dense edge index, and
back-edge keys depend only on the sealed IR, so they are computed once
per function (:func:`repro.interp.codegen.function_geometry`) and shared
by every mode specialization.  These tests pin the boundary
rules and the memoisation contract, and the lazy contract: only the
segments the trampoline enters are generated and compiled, once per
process.
"""

import functools
import gc
import weakref

import pytest

from repro.interp import Machine, MachineError
from repro.interp.codegen import (_segment_ranges, function_geometry)
from repro.interp.compiled import _CODE_CACHE, codegen_stats
from repro.lang import compile_source


def _func(source: str, name: str = "main"):
    return compile_source(source).functions[name]


class TestSegmentRanges:
    def test_callless_function_one_segment_per_block(self):
        func = _func("func main() { return 7; }")
        segments, entry = _segment_ranges(func)
        assert segments == [(b, 0) for b, _ in segments]
        assert len(segments) == len(func.cfg.blocks)
        assert entry[func.cfg.entry] == 0

    def test_entry_block_is_segment_zero(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) { s = s + i; }
                return s; }""")
        segments, entry = _segment_ranges(func)
        assert entry[func.cfg.entry] == 0
        assert segments[0] == (func.cfg.entry, 0)

    def test_every_block_opens_a_segment(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) {
                    if (s < 10) { s = s + i; } else { s = s - 1; } }
                return s; }""")
        segments, entry = _segment_ranges(func)
        for bname in func.cfg.blocks:
            assert entry[bname] < len(segments)
            assert segments[entry[bname]] == (bname, 0)

    def test_call_splits_block_at_resume_point(self):
        module = compile_source("""
            func inc(x) { return x + 1; }
            func main() { a = inc(1); b = inc(a); return b; }""")
        func = module.functions["main"]
        segments, _entry = _segment_ranges(func)
        # One entry segment per block plus one resume segment per call.
        from repro.ir.instructions import Call
        calls = sum(isinstance(i, Call) for b in func.cfg.blocks.values()
                    for i in b.instructions)
        assert calls == 2
        starts = [start for _b, start in segments]
        assert starts.count(0) == len(func.cfg.blocks)
        assert len(segments) == len(func.cfg.blocks) + calls
        # Resume segments start right after their call instruction.
        for bname, start in segments:
            if start:
                instrs = func.cfg.blocks[bname].instructions
                assert isinstance(instrs[start - 1], Call)
                assert start < len(instrs)  # never empty: blocks don't
                #                              end with a bare call


class TestFunctionGeometry:
    def test_memoised_per_function(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 5; i = i + 1) { s = s + i; }
                return s; }""")
        geo = function_geometry(func)
        assert function_geometry(func) is geo

    def test_geometry_matches_segment_ranges(self):
        module = compile_source("""
            func inc(x) { return x + 1; }
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) { s = inc(s); }
                return s; }""")
        func = module.functions["main"]
        geo = function_geometry(func)
        segments, entry = _segment_ranges(func)
        assert geo.segments == segments
        assert geo.block_entry == entry
        assert geo.range_seg == {key: i for i, key in enumerate(segments)}

    def test_edge_index_is_dense_and_deterministic(self):
        func = _func("""
            func main() { s = 0;
                for (i = 0; i < 3; i = i + 1) {
                    if (s < 10) { s = s + i; } else { s = s - 1; } }
                return s; }""")
        geo = function_geometry(func)
        indexes = sorted(geo.edge_index.values())
        assert indexes == list(range(len(geo.edge_index)))
        # Back edges are a subset of the indexed edges, and the loop
        # latch edge is among them.
        assert geo.back_keys <= set(geo.edge_index)
        assert geo.back_keys

    def test_shared_across_mode_specializations(self):
        from repro.interp.codegen import ModeSpec, generate_source

        module = compile_source("""
            func main() { s = 0;
                for (i = 0; i < 50; i = i + 1) { s = s + i; }
                return s; }""")
        func = module.functions["main"]
        geo = function_geometry(func)
        plain = ModeSpec(profile=False, trace=False, listener=False,
                         hook_edges=frozenset())
        prof = ModeSpec(profile=True, trace=True, listener=False,
                        hook_edges=frozenset())
        generate_source(func, module, plain)
        generate_source(func, module, prof)
        # Emission reused (not rebuilt) the memoised geometry.
        assert function_geometry(func) is geo


# A branch that is never taken: its block has a segment of its own,
# which the trampoline never enters (segment 0 inlines the taken arm).
NEVER_TAKEN = """
    func main() { s = 0;
        for (i = 0; i < 20; i = i + 1) {
            if (i > 100) { s = s * 3 - 1; } else { s = s + i; } }
        return s; }"""


def _compiled_segments(machine, name="main"):
    """Ids of ``name``'s segments that have replaced their stub."""
    gf = machine._backend_impl.functions[name]
    return [i for i, fn in enumerate(gf.seg_fns)
            if not isinstance(fn, functools.partial)]


class TestLazySegments:
    def test_only_entered_segments_compile(self):
        module = compile_source(NEVER_TAKEN)
        machine = Machine(module, backend="compiled")
        assert machine.run().return_value == sum(range(20))
        func = module.functions["main"]
        never = next(name for name, block in func.cfg.blocks.items()
                     if any(getattr(i, "op", None) == "*"
                            for i in block.instructions))
        entered = _compiled_segments(machine)
        assert entered[0] == 0
        assert function_geometry(func).block_entry[never] not in entered
        (lazy,) = _CODE_CACHE[func].values()
        assert lazy.codegen.num_segments == len(func.cfg.blocks)
        assert [i for i, make in enumerate(lazy.makers)
                if make is not None] == entered
        segments, source_bytes = codegen_stats(module)
        assert segments == len(entered) < lazy.codegen.num_segments
        assert source_bytes == sum(
            len(lazy.codegen.segment_source(func, module, i))
            for i in entered)

    def test_second_machine_compiles_nothing_new(self, monkeypatch):
        from repro.interp import compiled
        from repro.workloads import get_workload

        module = get_workload("mcf").compile(1)
        first = Machine(module, collect_edge_profile=True,
                        backend="compiled").run()
        stats = codegen_stats(module)

        def no_compile(*args, **kwargs):
            raise AssertionError("segment recompiled")

        monkeypatch.setattr(compiled, "compile", no_compile,
                            raising=False)
        second = Machine(module, collect_edge_profile=True,
                         backend="compiled").run()
        assert codegen_stats(module) == stats
        assert second.return_value == first.return_value
        assert second.edge_counts == first.edge_counts

    def test_hook_reattach_after_partial_compilation(self):
        def drive(backend):
            module = compile_source(NEVER_TAKEN)
            func = module.functions["main"]
            machine = Machine(module, collect_edge_profile=True,
                              trace_paths=True, backend=backend)
            first = machine.run()
            hits = []
            for uid in sorted(e.uid for e in func.cfg.edges()):
                machine.set_edge_hook(
                    "main", uid, lambda frame, uid=uid: hits.append(uid))
            second = machine.run()
            return (first.return_value, second.return_value,
                    second.instructions_executed, second.edge_counts,
                    second.path_counts, hits)

        compiled, reference = drive("compiled"), drive("tuple")
        assert compiled == reference
        assert compiled[-1]  # the re-specialised code calls the hooks

    def test_limit_in_first_entry_matches_tuple_loop(self):
        # The limit trips inside the loop segment's first call (its
        # stub's call into the freshly built closure); the stub must let
        # the MachineError through, not treat it as a codegen defect.
        messages = []
        for backend in ("tuple", "compiled"):
            module = compile_source(NEVER_TAKEN)
            machine = Machine(module, max_instructions=50,
                              backend=backend)
            with pytest.raises(MachineError) as excinfo:
                machine.run()
            messages.append(str(excinfo.value))
            assert machine.degradations == []
        assert messages == ["instruction limit exceeded (50)"] * 2

    def test_each_segment_alone_matches_the_joined_module(self):
        # Emitting one segment on its own yields the same def as the
        # whole-function join that validation and the mutation gate see.
        from repro.analysis.equiv import standard_modes
        from repro.interp.codegen import SegmentCodegen, generate_source
        from repro.workloads import get_workload

        module = get_workload("vpr").compile(1)
        for func in module.functions.values():
            for spec in standard_modes(func):
                joined = generate_source(func, module, spec).source
                codegen = SegmentCodegen(func, module, spec)
                header, *defs = joined.split("\n    def ")
                assert header == codegen.header
                defs[-1] = defs[-1].rsplit("\n    return (", 1)[0]
                for seg_id, body in enumerate(defs):
                    alone = codegen.segment_source(func, module, seg_id)
                    assert alone == (f"{header}\n    def {body}\n"
                                     f"    return _seg_{seg_id}\n")

    def test_cache_entry_dies_with_the_module(self):
        module = compile_source(NEVER_TAKEN)
        Machine(module, collect_edge_profile=True,
                backend="compiled").run()
        func_ref = weakref.ref(module.functions["main"])
        assert func_ref() in _CODE_CACHE
        del module
        gc.collect()
        assert func_ref() is None
