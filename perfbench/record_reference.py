"""Record perfbench/reference.json: output fingerprints on the reference seed.

Run from the root of a checkout of the commit whose outputs are the
reference (the commit that introduced the benchmark):

    python3 perfbench/record_reference.py [workload ...]

Only operations with an array output get a fingerprint; the gradient check
and the op-walk are checked against their fixed limits instead.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402


def record(spec) -> dict:
    state = wl.build(spec, run.REFERENCE_SEED)
    entries = {}
    for name, fn in wl.operations(state).items():
        out = fn()
        problem = wl.check_output(name, out)
        if problem:
            raise SystemExit(f"{spec.name} {name}: {problem}")
        vec = wl.as_vector(name, out)
        if vec is not None:
            entries[name] = {"size": int(vec.size), "fp": wl.fingerprint(vec)}
    return entries


def main(argv: list[str]) -> int:
    names = argv or list(wl.SPECS)
    reference = json.loads(run.REFERENCE_FILE.read_text()) if run.REFERENCE_FILE.is_file() else {}
    for name in names:
        reference[name] = record(wl.SPECS[name])
        print(f"{name}: {len(reference[name])} fingerprints")
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
