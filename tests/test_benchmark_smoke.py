"""The benchmark runs end to end on the desk workload and its outputs check.

The tracer wraps featmod functions by name and reads their arguments, so a
renamed function or a changed signature shows up here as a failed or
incorrect run. The run works on a copy, since it writes its record into the
checkout it runs from.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_desk_run_is_correct(trace, tmp_path):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "desk", "--seed", "1", "--seconds", "0.5", "--trace", trace]
    run = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"), *argv],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    if trace == "1":
        # names the tracer wraps but featmod no longer has; a renamed
        # conditioner would join this list and its spans would go missing
        record = json.loads((tmp_path / ".perfbench_out" / "desk-seed1-trace1.json").read_text())
        stale = {"norm.central_difference", "model.block_forward_base", "model.block_forward_fmi"}
        assert set(record["trace"]["unwrapped_functions"]) <= stale


def test_op_digests_print_one_line_per_desk_operation():
    """tools/op_digests.py prints `name sha256` for each timed operation, in
    the benchmark's order. The lines do not depend on the simulated CPU
    count, and every one but the op-walk's, whose configs are fixed, depends
    on the seed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] if m["name"] not in ("setup_s", "peak_rss_mb")]
    outs = []
    for argv in (["--seed", "1"], ["--seed", "1", "--cpus", "3"], ["--seed", "2"]):
        run = subprocess.run([sys.executable, str(ROOT / "tools" / "op_digests.py"), "--workload", "desk", *argv],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    lines = [line.split(" ") for line in outs[0].splitlines()]
    assert [name for name, _ in lines] == names
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    assert outs[1] == outs[0]
    changed = [a.split(" ")[0] for a, b in zip(outs[0].splitlines(), outs[2].splitlines()) if a != b]
    assert changed == names[:-1]
