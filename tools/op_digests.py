"""SHA-256 of every perfbench operation's output, one line per operation.

Usage, from the root of a checkout:

    python3 tools/op_digests.py --workload desk|image336|video_long --seed S [--cpus N]

Builds the workload of perfbench/workloads.py at the seed, runs each of its
timed operations once, and prints `name sha256` per operation, in the
benchmark's order. The digest covers every number of the output with its
dtype and shape, so two checkouts whose lines match compute the same bits;
`diff` of two runs is a byte-identity check. --cpus N makes the package see
N usable CPUs (its thread pool sizes itself by them) instead of the
process's affinity mask. BLAS runs on one thread, as in perfbench, since
OpenBLAS's own threads change the bits of some products.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def feed(digest, out) -> None:
    """Add the numbers of out, and the shape they come in, to digest."""
    if isinstance(out, np.ndarray):
        digest.update(f"{out.dtype.str}{out.shape}".encode())
        digest.update(np.ascontiguousarray(out).tobytes())
    elif dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            feed(digest, getattr(out, f.name))
    elif isinstance(out, dict):
        for key in sorted(out):
            digest.update(str(key).encode())
            feed(digest, out[key])
    elif isinstance(out, (list, tuple)):
        digest.update(f"[{len(out)}]".encode())
        for item in out:
            feed(digest, item)
    elif isinstance(out, (int, float, np.number)):
        digest.update(np.float64(out).tobytes())
    elif isinstance(out, str):
        digest.update(out.encode())
    else:
        raise TypeError(f"no digest for a {type(out).__name__}")


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl
    from featmod import tensors

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpus", type=int, default=None, help="usable CPUs the package sees")
    args = parser.parse_args(argv)
    if args.cpus is not None:
        if args.cpus < 1:
            parser.error(f"--cpus must be >= 1, got {args.cpus}")
        tensors._usable_cpus = lambda: args.cpus
    state = wl.build(wl.SPECS[args.workload], args.seed)
    for name, op in wl.operations(state).items():
        digest = hashlib.sha256()
        feed(digest, op())
        print(f"{name} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
