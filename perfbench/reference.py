"""Expected outputs of every suite program, from the tuple backend.

The tuple backend is the program's reference interpreter, independent of
the generated-code backend every workload runs on, so its outputs are the
oracle each operation is checked against.  Regenerate with::

    python3 perfbench/run.py --make-reference
"""

from __future__ import annotations

import json

from common import (EDIT_SEED, REFERENCE_PATH, TECHNIQUES, digest,
                    suite_programs)


def stale_profile_doc(name: str, backend: str) -> dict:
    """A saved edge profile of an edited build of ``name``, with the
    matching sketch that lets the service remap it onto the real build."""
    from repro.engine.stages import ground_truth
    from repro.harness.matching_study import seeded_edit
    from repro.profiles import edge_profile_to_dict
    from repro.workloads import get_workload

    edited = seeded_edit(get_workload(name).compile(), seed=EDIT_SEED)
    _paths, profile, _rv = ground_truth(edited, backend=backend)
    return edge_profile_to_dict(profile, embed_sketch=True)


def _job(name: str, **request):
    from repro.service.api import ProfileJob, ProfileRequest

    return ProfileJob(ProfileRequest(tenant="reference", workload=name,
                                     **request),
                      ordinal=0, backend="tuple").run(None)


def program_reference(name: str) -> dict:
    from repro.engine.session import ProfilingSession
    from repro.interp.machine import Machine
    from repro.profiles import edge_profile_to_dict
    from repro.workloads import get_workload

    result = ProfilingSession(backend="tuple").run_workload(
        get_workload(name))
    plain = Machine(result.expanded, backend="tuple").run()
    suite = {
        "return_value": result.return_value,
        "edge_digest": digest(edge_profile_to_dict(result.edge_profile)),
        "plain_instructions": plain.instructions_executed,
        "techniques": {t: {"overhead": result.techniques[t].overhead,
                           "accuracy": result.techniques[t].accuracy,
                           "static_ops": result.techniques[t].static_ops}
                       for t in TECHNIQUES},
    }
    jobs = {t: _job(name, technique=t) for t in TECHNIQUES}
    service = {
        "return_value": jobs["pp"].return_value,
        "edge_digest": digest(jobs["pp"].payload),
        "techniques": {t: {"overhead": job.overhead,
                           "accuracy": job.accuracy}
                       for t, job in jobs.items()},
    }
    remap = _job(name, kind="remap",
                 stale_profile=stale_profile_doc(name, "tuple"))
    return {"suite": suite, "service": service,
            "remap": {"edit_seed": EDIT_SEED,
                      "digest": digest(remap.payload)}}


def make_reference() -> None:
    programs = {}
    for name, category in suite_programs():
        print(f"  {name} ...", flush=True)
        programs[name] = {"category": category, **program_reference(name)}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"backend": "tuple", "programs": programs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
