"""featmod benchmark: one process, one closed-loop caller, one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk|image336|video_long \
        --seed N --seconds S --trace 0|1

Each operation is issued after the previous one finishes. With --trace 0 the
run reports the end-to-end metrics named in BENCHMARK.json: medians of each
timed operation, drift-normalised by calibration kernels that do not use
featmod and run after every sample. With --trace 1 it alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones.
Either way every sample is checked, and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full record with
raw medians, sample counts, tail percentiles and provenance goes to
.perfbench_out/ in the checkout.

Exit codes: 0 with a result, 2 when the checkout holds no featmod sources or
the arguments are invalid.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one closed-loop caller; single-threaded BLAS varies least when cores are shared
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0  # the first set-up of every run uses it and is checked against REFERENCE_FILE


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def _small_kernel(spec):
    """Small-op numpy/Python work, like one desk-scale block."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((8, 32))
    b = rng.standard_normal((32, 32)) / np.sqrt(32)

    def kernel():
        x = a
        for _ in range(40):
            x = np.tanh(x @ b)
            x = x - x.mean(axis=1, keepdims=True)
        return x

    return kernel


def _blas_kernel(spec):
    """One BLAS matmul the size of the workload's FFN input projection."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((spec.T + spec.visual_tokens, spec.C))
    b = rng.standard_normal((spec.C, spec.d_ff))
    return lambda: a @ b


def _stream_kernel(spec):
    """Elementwise passes over arrays the size of a conditioner's [t_i; v]
    stack: bound by cache and memory bandwidth."""
    import numpy as np

    x = np.random.default_rng(12345).standard_normal(spec.T * spec.C * (spec.visual_tokens + 1))
    y = np.empty_like(x)

    def kernel():
        np.multiply(x, 1.0001, out=y)
        return np.add(y, x, out=y)

    return kernel


KERNELS = {"small": _small_kernel, "blas": _blas_kernel, "stream": _stream_kernel}


class Drift:
    """Calibration kernels that do not use featmod, run after every timed
    sample, the small-op one first so the others do not evict its working
    set. A sample is normalised by the median of its kernel's times around
    it, so the box's speed drifting over seconds cancels out; the result is
    expressed at the kernel's fixed reference time."""

    # Calibration samples on each side of a timed sample: the 0.3 ms small-op
    # kernel jitters most from sample to sample, so it is averaged widest.
    WINDOW = {"small": 8, "blas": 2, "stream": 4}

    def __init__(self, spec) -> None:
        self.spec = spec
        self.kernels = {kind: KERNELS[kind](spec) for kind in spec.ref_cal_ms}
        self.times: dict[str, list[float]] = {kind: [] for kind in self.kernels}
        self.count = 0

    def after(self) -> int:
        """Run every kernel once; returns the index of their times."""
        for kind, kernel in self.kernels.items():
            t0 = time.perf_counter()
            kernel()
            self.times[kind].append(time.perf_counter() - t0)
        self.count += 1
        return self.count - 1

    def normalised(self, name: str, samples: list[tuple[float, int]]) -> float:
        kind = self.spec.calibrate.get(name, self.spec.default_kernel)
        times, width = self.times[kind], self.WINDOW[kind]
        ratios = []
        for elapsed, idx in samples:
            window = times[max(0, idx - width): idx + width + 1]
            ratios.append(elapsed / statistics.median(window))
        return statistics.median(ratios) * self.spec.ref_cal_ms[kind] / 1e3


def run_sample(fn):
    """One closed-loop call: (seconds, output or None, error or None)."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def checked(check) -> list[str]:
    """Problems a check reports, or the error it raised."""
    _, problems, error = run_sample(check)
    return [error] if error else problems


def run_batch(fn, count: int, check):
    """count back-to-back calls timed as one sample; returns seconds per call."""
    outputs = []
    t0 = time.perf_counter()
    for _ in range(count):
        _, out, error = run_sample(fn)
        outputs.append((out, error))
    elapsed = (time.perf_counter() - t0) / count
    for out, error in outputs:
        check(out, error)
    return elapsed


class Checker:
    """Per-sample checks; the first sample of each op is the run's reference."""

    def __init__(self, wl, state, tally: Tally) -> None:
        self.wl = wl
        self.state = state
        self.tally = tally
        self.first: dict[str, object] = {}
        self.live_checked = False

    def __call__(self, name: str, out, error: str | None) -> None:
        problems = [error] if error else []
        if out is not None:
            problem = self.wl.check_output(name, out)
            vec = self.wl.as_vector(name, out)
            if problem is None and vec is not None:
                if name in self.first:
                    problem = self.wl.check_repeat(self.wl.as_vector(name, self.first[name]), vec)
                else:
                    self.first[name] = out
            if problem:
                problems.append(problem)
        self.tally.record(name, problems)

    def check_live(self) -> None:
        if not self.live_checked:
            self.live_checked = True
            outputs = {k: v for k, v in self.first.items() if k.startswith("fwd_")}
            self.tally.record("live injection weights", checked(lambda: self.wl.live_failures(self.state, outputs)))


def reference_pass(wl, spec, state, reference: dict, tally: Tally) -> None:
    """Run every operation once on the reference seed's set-up and compare
    with the fingerprints recorded from the seed commit. Also warms up."""
    refs = reference.get(spec.name, {})
    for name, fn in wl.operations(state).items():
        _, out, error = run_sample(fn)
        problems = [error] if error else []
        if out is not None:
            problem = wl.check_output(name, out)
            vec = wl.as_vector(name, out)
            if problem is None and vec is not None:
                problem = "no reference fingerprint" if name not in refs else wl.fingerprint_mismatch(vec, refs[name])
            if problem:
                problems.append(problem)
        tally.record(f"reference {name}", problems)


def setup_phase(wl, spec, seed: int, reference: dict, tally: Tally, drift: Drift):
    """Set up spec.setup_reps times, the first on the reference seed."""
    setup_times = []
    state = None
    for rep in range(spec.setup_reps):
        state = None  # drop the previous models before building again
        elapsed, state, error = run_sample(lambda: wl.build(spec, REFERENCE_SEED if rep == 0 else seed))
        setup_times.append((elapsed, drift.after()))
        tally.record("setup", [error] if error else [])
        if state is None:
            return None, setup_times
        if rep == 0:
            reference_pass(wl, spec, state, reference, tally)
    tally.record("zero-init twins", checked(lambda: wl.zero_init_failures(spec, seed)))
    return state, setup_times


def tail(samples: list, scale: float) -> dict:
    """Sample count, median and the highest percentile with >= 10 samples
    beyond it; samples are times or (time, calibration index) pairs."""
    samples = [s[0] if isinstance(s, tuple) else s for s in samples]
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) * scale}
    for p in (99.9, 99, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(samples)
            out[f"p{p:g}"] = ordered[min(n - 1, int(round(p / 100 * (n - 1))))] * scale
            break
    return out


def measure(wl, spec, state, seconds: float, checker: Checker, drift: Drift):
    """Round-robin closed loop until the time is up; whole rounds only."""
    ops = wl.operations(state)
    samples: dict[str, list[tuple[float, int]]] = {name: [] for name in ops}
    deadline = time.perf_counter() + seconds
    while True:
        for name, fn in ops.items():
            for _ in range(spec.reps.get(name, 1)):
                elapsed = run_batch(fn, spec.batch.get(name, 1), lambda out, error: checker(name, out, error))
                samples[name].append((elapsed, drift.after()))
        checker.check_live()
        if time.perf_counter() >= deadline:
            return samples


def measure_traced(wl, spec, state, seconds: float, checker: Checker, tracer_mod):
    """Alternate an untraced and a traced round until the time is up."""
    from featmod.tensors import count_macs

    ops = wl.operations(state)
    analytic = {
        name: wl.analytic_breakdown(spec, name[len("fwd_"):-len("_ms")])
        for name in ops if name.startswith("fwd_")
    }
    tracer = tracer_mod.Tracer()
    untraced: dict[str, list[float]] = {name: [] for name in ops}
    traced: dict[str, list[float]] = {name: [] for name in ops}
    rounds: list[dict[str, float]] = []
    first_spans = None
    deadline = time.perf_counter() + seconds
    while True:
        for name, fn in ops.items():
            for _ in range(spec.reps.get(name, 1)):
                elapsed, out, error = run_sample(fn)
                untraced[name].append(elapsed)
                checker(name, out, error)
        checker.check_live()
        tracer.reset()
        tracer.install()
        try:
            for name, fn in ops.items():
                for _ in range(spec.reps.get(name, 1)):
                    root = tracer.open_root(name)
                    if name in analytic:
                        with count_macs() as counter:
                            elapsed, out, error = run_sample(fn)
                        tracer.close_root(root, counter.macs, incontext=name == "fwd_incontext_ms")
                    else:
                        elapsed, out, error = run_sample(fn)
                        tracer.close_root(root)
                    traced[name].append(elapsed)
                    checker(name, out, error)
        finally:
            tracer.uninstall()
        metrics, failures = tracer.round_metrics()
        checker.tally.record("component MACs sum to count_macs", failures)
        for comp in tracer_mod.COMPONENTS:
            metrics[f"component.{comp}.analytic_macs"] = sum(
                spec.reps.get(name, 1) * breakdown[comp] for name, breakdown in analytic.items()
            )
        rounds.append(metrics)
        if first_spans is None:
            first_spans = tracer.spans()
        tracer.reset()
        if time.perf_counter() >= deadline:
            break
    per_layer = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    untraced_total = sum(statistics.median(v) for v in untraced.values())
    traced_total = sum(statistics.median(v) for v in traced.values())
    per_layer["trace.overhead_pct"] = 100.0 * (traced_total - untraced_total) / untraced_total
    detail = {
        "traced_rounds": len(rounds),
        "untraced_ms": {k: tail(v, 1e3) for k, v in untraced.items()},
        "traced_ms": {k: tail(v, 1e3) for k, v in traced.items()},
        "unwrapped_functions": tracer.missing,
        "note": "per-layer values are per round: one pass over every operation with its repetitions; "
                "tensors.out_mb is computed from output array sizes, not measured traffic",
    }
    return per_layer, detail, first_spans


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl, spec, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy releases
        blas_version = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "featmod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sizes = {k: v for k, v in asdict(spec).items() if k not in ("reps", "batch", "ref_cal_ms", "calibrate", "index")}
    sizes["V"] = spec.visual_tokens
    return {
        "git_commit": git_commit(),
        "featmod_sources_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "reference_seed": REFERENCE_SEED,
        "workload_seeds": asdict(wl.derive_seeds(spec, seed)),
        "sizes": sizes,
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    return args


def main(argv=None) -> int:
    if not (SRC / "featmod" / "__init__.py").is_file():
        print(f"perfbench: no featmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracer_mod
    import workloads as wl

    args = parse_args(argv, wl.SPECS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = wl.SPECS[args.workload]
    reference = json.loads(REFERENCE_FILE.read_text())
    tally = Tally()

    drift = Drift(spec)
    state, setup_times = setup_phase(wl, spec, args.seed, reference, tally, drift)
    if state is None:
        print(f"perfbench: set-up failed: {tally.reasons}", file=sys.stderr)
        return 1
    checker = Checker(wl, state, tally)
    why = next((w["why"] for w in declared["workloads"] if w["name"] == spec.name), None)
    record: dict = {"workload": spec.name, "why": why, "provenance": provenance(wl, spec, args.seed)}

    if args.trace:
        values, detail, spans = measure_traced(wl, spec, state, args.seconds, checker, tracer_mod)
        wanted = declared["per_layer"]
        record["trace"] = detail
        OUT_DIR.mkdir(exist_ok=True)
        with (OUT_DIR / f"{spec.name}-seed{args.seed}-spans.csv").open("w") as fh:
            fh.write("span,parent,name,start_ns,end_ns,macs,out_bytes\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in spans)
    else:
        samples = {"setup_s": setup_times, **measure(wl, spec, state, args.seconds, checker, drift)}
        values, timings = {}, {}
        for name, series in samples.items():
            scale = 1e3 if name.endswith("_ms") else 1.0
            values[name] = drift.normalised(name, series) * scale
            timings[name] = tail(series, scale)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = declared["end_to_end"]
        record["calibration"] = {
            kind: {"reference_ms": spec.ref_cal_ms[kind], **tail(times, 1e3)} for kind, times in drift.times.items()
        }
        record["raw"] = timings
        record["samples_s"] = samples  # (seconds, calibration index) per sample
        record["calibration_s"] = drift.times
    state = None

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: workload {spec.name} produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.reasons, metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        extra = ""
        if not args.trace and name in record["raw"]:
            t = record["raw"][name]
            tail_key = next((k for k in t if k.startswith("p")), None)
            extra = f"  raw median {t['median']:.6g}, n={t['n']}" + (f", {tail_key} {t[tail_key]:.6g}" if tail_key else "")
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
