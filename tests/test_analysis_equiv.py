"""Translation-validation tests: codegen client, pass client, and the
mutation gate.

The contract mirrors the plan verifier's: zero errors on everything the
real pipeline produces (pristine generated code, pristine pass output),
and every seeded corruption from ``analysis.mutate`` detected.
"""

import dataclasses

import pytest

from repro.analysis import Severity
from repro.analysis.diagnostics import Report
from repro.analysis.equiv import (PASS_NAMES, CodegenValidationError,
                                  _CodegenChecker, apply_pass,
                                  check_function_codegen, check_generated,
                                  check_module_codegen, check_pass,
                                  equiv_module, equiv_suite,
                                  standard_modes)
from repro.analysis.mutate import (CODEGEN_MUTATIONS, PASS_MUTATIONS,
                                   mutate_module, mutate_source)
from repro.engine import ArtifactCache, ProfilingSession
from repro.engine.stages import ground_truth
from repro.interp.codegen import generate_source
from repro.interp.machine import Machine
from repro.lang import compile_source
from repro.workloads import get_workload

from test_irreducible import irreducible_module


@pytest.fixture(scope="module")
def vpr_module():
    return get_workload("vpr").compile(scale=1)


@pytest.fixture(scope="module")
def vpr_profiles(vpr_module):
    path_profile, edge_profile, _rv = ground_truth(vpr_module,
                                                   backend="tuple")
    return path_profile, edge_profile


@pytest.fixture(scope="module")
def vpr_pass_outputs(vpr_module, vpr_profiles):
    path_profile, edge_profile = vpr_profiles
    return {name: apply_pass(name, vpr_module, edge_profile, path_profile)
            for name in PASS_NAMES}


# ----------------------------------------------------------------------
# Pristine acceptance: zero false positives
# ----------------------------------------------------------------------

class TestPristine:
    def test_codegen_clean_on_workload(self, vpr_module):
        report = check_module_codegen(vpr_module)
        assert report.ok, report.format()
        assert not report.errors() and not report.warnings()

    def test_every_pass_clean_on_workload(self, vpr_module,
                                          vpr_pass_outputs):
        for name, post in vpr_pass_outputs.items():
            report = check_pass(name, vpr_module, post)
            assert report.ok, (name, report.format())

    def test_equiv_module_driver(self, vpr_module):
        results = equiv_module(vpr_module, passes=("cleanup",))
        labels = [label for label, _ in results]
        assert labels == ["codegen", "pass:cleanup"]
        assert all(report.ok for _, report in results)


# ----------------------------------------------------------------------
# The mutation gate
# ----------------------------------------------------------------------

def _detect_codegen(module, kind):
    """(applied, detected, codes) searching func x mode for a site."""
    for func in module.functions.values():
        if not func.sealed:
            continue
        for spec in standard_modes(func):
            result = generate_source(func, module, spec)
            mutated = mutate_source(result.source, kind)
            if mutated is None:
                continue
            report = Report(title=f"mutated:{kind}")
            _CodegenChecker(func, module, spec,
                            dataclasses.replace(result, source=mutated),
                            report).run()
            return True, not report.ok, [d.code for d in report.errors()]
    return False, False, []


class TestCodegenMutations:
    @pytest.mark.parametrize("kind", CODEGEN_MUTATIONS)
    def test_detected(self, vpr_module, kind):
        applied, detected, codes = _detect_codegen(vpr_module, kind)
        assert applied, f"{kind}: no site in any function x mode"
        assert detected, f"{kind}: corruption not detected"

    def test_specific_codes(self, vpr_module):
        # Spot-check that corruption families land in their namespaces.
        assert "E107" in _detect_codegen(vpr_module, "cg-drop-cost")[2]
        # An inverted test (``if not ...``) parses but decides the
        # branch on the wrong polarity.
        assert "E103" in _detect_codegen(vpr_module, "cg-flip-branch")[2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown codegen mutation"):
            mutate_source("", "cg-bogus")


class TestPassMutations:
    @pytest.mark.parametrize("kind", PASS_MUTATIONS)
    def test_detected(self, vpr_module, vpr_pass_outputs, kind):
        applied = detected = False
        for name in PASS_NAMES:
            mutated = mutate_module(vpr_pass_outputs[name], kind)
            if mutated is None:
                continue
            applied = True
            report = check_pass(name, vpr_module, mutated)
            if not report.ok:
                detected = True
                break
        assert applied, f"{kind}: no site in any pass output"
        assert detected, f"{kind}: corruption not detected"

    def test_mutation_copies_the_module(self, vpr_module, vpr_profiles):
        # Optimizer passes share Instr objects between the pre- and
        # post-module; mutating in place would corrupt both sides
        # identically and hide the corruption from the checker.
        path_profile, edge_profile = vpr_profiles
        post = apply_pass("cleanup", vpr_module, edge_profile,
                          path_profile)
        mutated = mutate_module(post, "opt-const-nudge")
        assert mutated is not None and mutated is not post
        assert check_pass("cleanup", vpr_module, post).ok

    def test_unknown_kind_rejected(self, vpr_module):
        with pytest.raises(ValueError, match="unknown pass mutation"):
            mutate_module(vpr_module, "opt-bogus")


# ----------------------------------------------------------------------
# Degenerate CFGs: skip with INFO, never crash or false-positive
# ----------------------------------------------------------------------

class TestDegenerateShapes:
    def test_irreducible_codegen_skips_with_info(self):
        module = irreducible_module()
        report = check_function_codegen(module.functions["main"], module)
        assert report.ok
        infos = [d for d in report if d.code == "E001"]
        assert infos and infos[0].severity == Severity.INFO

    def test_irreducible_pass_skips_with_info(self):
        module = irreducible_module()
        post = apply_pass("cleanup", module, None, None)
        report = check_pass("cleanup", module, post)
        assert report.ok, report.format()
        assert any(d.code == "E001" for d in report)

    def test_irreducible_runtime_validation_does_not_raise(self):
        module = irreducible_module()
        machine = Machine(module, collect_edge_profile=True,
                          validate_codegen=True, backend="compiled")
        machine.run()

    def test_single_block_codegen_validates(self):
        module = compile_source("func main() { return 42; }")
        report = check_module_codegen(module)
        assert report.ok and not list(report)

    def test_single_block_pass_validates(self):
        module = compile_source("func main() { return 42; }")
        for name in ("cleanup", "licm"):
            post = apply_pass(name, module, None, None)
            report = check_pass(name, module, post)
            assert report.ok, (name, report.format())
            assert not report.errors()


# ----------------------------------------------------------------------
# Runtime fail-fast wiring
# ----------------------------------------------------------------------

class TestRuntimeHook:
    def test_clean_module_runs_validated(self):
        module = compile_source("""
            func f(n) { s = 0;
                while (n > 0) { s = s + n; n = n - 1; } return s; }
            func main() { return f(10); }""")
        machine = Machine(module, collect_edge_profile=True,
                          trace_paths=True, validate_codegen=True,
                          backend="compiled")
        assert machine.run().return_value == 55

    def test_env_resolution(self, monkeypatch):
        module = compile_source("func main() { return 1; }")
        monkeypatch.setenv("REPRO_EQUIV", "1")
        assert Machine(module).validate_codegen
        monkeypatch.setenv("REPRO_EQUIV", "0")
        assert not Machine(module).validate_codegen
        monkeypatch.delenv("REPRO_EQUIV")
        assert not Machine(module).validate_codegen
        assert Machine(module, validate_codegen=True).validate_codegen

    def test_corrupt_generation_raises(self, monkeypatch):
        # Corrupt each segment's source as it is emitted and watch the
        # fail-fast hook reject it before it first executes.
        from repro.interp.codegen import SegmentCodegen

        module = compile_source("""
            func main() { s = 0; s = s + 1; s = s + 2;
                return s; }""")
        real = SegmentCodegen.segment_source

        def corrupting(self, func, mod, seg_id):
            source = real(self, func, mod, seg_id)
            return mutate_source(source, "cg-swap-arith") or source

        monkeypatch.setattr(SegmentCodegen, "segment_source", corrupting)
        machine = Machine(module, validate_codegen=True,
                          backend="compiled")
        with pytest.raises(CodegenValidationError) as excinfo:
            machine.run()
        assert not excinfo.value.report.ok

    def test_segments_compiled_unvalidated_are_proven_later(self,
                                                           monkeypatch):
        # A validating machine proves each segment before its first
        # entry even when another machine already compiled it: the
        # checker re-emits the source, so a corrupted emitter is caught
        # (the re-emitted text no longer matches the compiled digest).
        from repro.interp.codegen import SegmentCodegen

        module = compile_source("""
            func main() { s = 0; s = s + 1; s = s + 2;
                return s; }""")
        Machine(module, backend="compiled").run()
        real = SegmentCodegen.segment_source

        def corrupting(self, func, mod, seg_id):
            source = real(self, func, mod, seg_id)
            return mutate_source(source, "cg-swap-arith") or source

        monkeypatch.setattr(SegmentCodegen, "segment_source", corrupting)
        with pytest.raises(CodegenValidationError):
            Machine(module, validate_codegen=True,
                    backend="compiled").run()

    def test_proof_must_cover_the_compiled_text(self, monkeypatch):
        # Re-emission that still proves equivalent, but is not the text
        # an unvalidating machine compiled, fails on the digest alone.
        from repro.interp.codegen import SegmentCodegen

        module = compile_source("""
            func main() { s = 0; s = s + 1; return s; }""")
        Machine(module, backend="compiled").run()
        real = SegmentCodegen.segment_source

        def drifting(self, func, mod, seg_id):
            return real(self, func, mod, seg_id) + "# drift\n"

        monkeypatch.setattr(SegmentCodegen, "segment_source", drifting)
        with pytest.raises(CodegenValidationError) as excinfo:
            Machine(module, validate_codegen=True,
                    backend="compiled").run()
        assert [d.code for d in excinfo.value.report.errors()] == ["E109"]

    def test_check_generated_caches_verdict(self):
        from repro.interp.codegen import SegmentCodegen

        module = compile_source("func main() { return 3; }")
        func = module.functions["main"]
        codegen = SegmentCodegen(func, module, standard_modes(func)[0])
        check_generated(func, module, codegen, 0,
                        codegen.segment_source(func, module, 0))
        # Second call is served from the verdict cache: even a now-
        # corrupted segment is not re-examined (per-process fail-fast
        # only pays once per function x mode x segment).
        check_generated(func, module, codegen, 0, "this is not python ((")

    def test_each_segment_proven_before_first_entry(self):
        from repro.interp.codegen import SegmentCodegen

        module = compile_source("""
            func main() { s = 0; if (s > 5) { s = 7; } return s; }""")
        func = module.functions["main"]
        codegen = SegmentCodegen(func, module, standard_modes(func)[0])
        assert codegen.num_segments > 1
        # Segment 1 is proven on its own, so a corrupted segment 1 is
        # still caught after segment 0's verdict was cached.
        check_generated(func, module, codegen, 0)
        bad = mutate_source(codegen.segment_source(func, module, 1),
                            "cg-drop-cost")
        assert bad is not None
        with pytest.raises(CodegenValidationError):
            check_generated(func, module, codegen, 1, bad)


# ----------------------------------------------------------------------
# Suite driver and caching
# ----------------------------------------------------------------------

class TestSuiteDriver:
    def test_equiv_suite_caches(self, tmp_path):
        session = ProfilingSession(
            cache=ArtifactCache(disk_dir=tmp_path))
        workloads = [get_workload("mcf")]
        first = equiv_suite(session, workloads, passes=("cleanup",))
        assert all(report.ok for _w, _l, report in first)
        assert session.cache.stats.of("equiv").stores == 1
        second = equiv_suite(session, workloads, passes=("cleanup",))
        assert session.cache.stats.of("equiv").hits == 1
        assert [(w, label) for w, label, _ in second] == \
               [(w, label) for w, label, _ in first]

    def test_verify_reports_cached_on_disk(self, tmp_path):
        from repro.analysis import verify_suite
        session = ProfilingSession(
            cache=ArtifactCache(disk_dir=tmp_path))
        workloads = [get_workload("mcf")]
        first = verify_suite(session, workloads, techniques=("ppp",))
        assert all(r.ok for r in first)
        # A fresh session over the same disk directory must serve the
        # verdict without re-verifying (the <2s warm-run satellite).
        warm = ProfilingSession(cache=ArtifactCache(disk_dir=tmp_path))
        again = verify_suite(warm, workloads, techniques=("ppp",))
        assert [r.title for r in again] == [r.title for r in first]
        assert warm.cache.stats.of("verifyreport").disk_hits == 1
        assert warm.cache.stats.of("plan").misses == 0
