"""Content fingerprints for cache keying.

Every :class:`~repro.engine.cache.ArtifactCache` key is derived from the
*content* of a stage's inputs, never from object identity or compile
order: MiniC source text, the canonical IR rendering of a module, the
JSON form of an edge profile, and the repr of a frozen
:class:`~repro.core.ProfilerConfig`.  Two sessions (or two processes)
that profile the same program under the same configuration therefore
produce the same keys, which is what makes the on-disk cache layer warm
across CLI and benchmark runs.  Keying by content rather than compile
identity follows the stale-profile-matching argument of Ayupov et al.:
an artifact stays valid for as long as the text it was derived from does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from ..ir.function import Module
from ..ir.printer import format_module
from ..profiles.edge_profile import EdgeProfile
from ..profiles.serialize import edge_profile_to_dict

# Bump whenever the meaning of any cached artifact changes (planner
# semantics, result dataclass layout, ...); it salts every key, so old
# on-disk entries simply stop matching instead of being misread.
# 2: execution-stage keys carry the interpreter backend.
# 3: synthetic-block tags threaded through optimizer rebuilds.
# 4: cached verifier/equivalence Reports (verifyreport/equiv kinds).
# 5: checksummed disk envelope; WorkloadResult carries an ExecutionRecord.
# 6: profiler plugin framework -- execution-stage keys carry the session's
#    profiler selection; ProfileRun/WorkloadResult carry profiles;
#    disk envelope v2 embeds this schema version.
# 7: tiered codegen -- execution-stage keys carry the session's layout
#    selection (tier-2 layout fingerprints); new "layout" stage kind.
# 8: sparse edge probing -- conservation placements change edge-count
#    codegen (the edges-sparse profiler reconstructs dense counts from
#    cotree probes); new "conservereport" stage kind.
# 9: stale-profile matching -- stale cached profiles are remapped onto
#    the recompiled module instead of discarded; new "remap" and
#    "matchreport" stage kinds.
# 10: single compiled tier -- the "layout" stage kind is gone, and
#    execution-stage and equiv keys no longer carry a layout selection.
CACHE_SCHEMA_VERSION = 10

_SEP = "\x1f"  # unit separator: cannot appear in the joined parts


def fingerprint_text(*parts: str) -> str:
    """SHA-256 over the joined parts (with an unambiguous separator)."""
    material = _SEP.join([str(CACHE_SCHEMA_VERSION), *parts])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def fingerprint_module(module: Module) -> str:
    """Hash of the canonical IR text (plus the entry point's name).

    :func:`~repro.ir.printer.format_module` renders blocks in reverse
    postorder with globals sorted, so structurally identical modules hash
    identically regardless of construction order.
    """
    return fingerprint_text("module", module.name, module.main,
                            format_module(module))


def fingerprint_edge_profile(profile: Optional[EdgeProfile]) -> str:
    """Hash of the name-keyed serialized form (uid-independent)."""
    if profile is None:
        return "no-profile"
    payload = json.dumps(edge_profile_to_dict(profile), sort_keys=True)
    return fingerprint_text("edge-profile", payload)


def fingerprint_config(config: object) -> str:
    """Hash of a frozen config dataclass's repr (covers every field)."""
    return fingerprint_text("config", repr(config))
