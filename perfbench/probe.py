"""One set-up in a fresh interpreter: everything before the first call can be issued.

    python3 perfbench/probe.py <workload> <seed>

Imports the package, loads the template registry, checks the manifest and
builds the spec and backend; for the live workload it also starts the stub
and makes the first round trip.  It then prints ``ready <import seconds>``
and tears down.  The parent times from starting this process to reading
that line.
"""

from __future__ import annotations

import sys

import workloads


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    import_s = workloads.import_program()

    from cotbench.backends import make_backend
    from cotbench.prompts import all_templates, get_template, render_prompt, verify_manifest
    from cotbench.runner import ExperimentSpec
    from cotbench.tasks import generate_instance

    all_templates()
    drifted = verify_manifest()
    if drifted:
        print(f"templates drifted from the manifest: {drifted}", file=sys.stderr)
        return 1

    def build(base_url=None):
        spec = ExperimentSpec.from_json(workload.spec_json(seed, base_url))
        spec.validate()
        return spec, spec.cells(), make_backend(spec.backend)

    if not workload.live:
        build()
        print(f"ready {import_s!r}", flush=True)
        return 0

    # slot 0 would rate-limit the very first request; keep the round trip to one attempt
    with workloads.Stub(rate_limit_slot=1 + seed % (workloads.RATE_LIMIT_EVERY - 1)) as stub:
        spec, cells, backend = build(stub.base_url)
        cell = cells[0]
        instance = generate_instance(cell.task, cell.length, seed_path=f"probe/{seed}")
        prompt = render_prompt(get_template(cell.task, cell.kind), instance, cell.rendering)
        backend.complete(prompt.text, spec.completion)
        print(f"ready {import_s!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
