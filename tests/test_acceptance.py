"""Acceptance suite: every release criterion at its stated tolerance.

Criteria 1-11 are the entries of `featmod.criteria.CRITERIA`, each run at its
own seed and held to its time budget; criterion 12 checks that
`featmod selftest` runs that same table and writes byte-identical artifacts.
Each test prints one line with its measured runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import time

from featmod import criteria
from featmod.cli import main as cli_main
from featmod.criteria import CRITERIA


def _gate(number):
    """Test for criterion `number`: its check passes inside its budget."""
    entry = CRITERIA[number - 1]

    def test():
        start = time.perf_counter()
        ok, detail = entry.run(entry.seed)
        elapsed = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'} criterion {number} {entry.name} ({elapsed:.2f}s): {detail}")
        assert ok, detail
        assert elapsed < entry.budget_s, f"criterion {number} took {elapsed:.2f}s, over {entry.budget_s}s"

    return test


# One named test per criterion, so each gate keeps its id in the suite.
test_criterion_01_zero_init_equivalence = _gate(1)
test_criterion_02_layer_norm_contract = _gate(2)
test_criterion_03_gradient_verification = _gate(3)
test_criterion_04_attention_oracle = _gate(4)
test_criterion_05_conditioner_loop_equivalence = _gate(5)
test_criterion_06_layer_selection = _gate(6)
test_criterion_07_cost_model_oracle = _gate(7)
test_criterion_08_reference_flops_ratios = _gate(8)
test_criterion_09_video_scaling = _gate(9)
test_criterion_10_diagnostics_soundness = _gate(10)
test_criterion_11_vision_front_contracts = _gate(11)


def test_release_table_is_pinned():
    """The release gates' names, order, seeds, budgets and tolerances."""
    assert [(c.name, c.seed, c.budget_s) for c in CRITERIA] == [
        ("zero_init_equivalence", 101, 1.0),
        ("norm_contract", 103, 1.0),
        ("gradcheck", 104, 30.0),
        ("attention_oracle", 105, 5.0),
        ("conditioner_loop_equivalence", 106, 5.0),
        ("layer_selection", 0, 1.0),
        ("cost_oracle", 0, 10.0),
        ("reference_flops_ratios", 0, 1.0),
        ("video_scaling", 0, 1.0),
        ("diagnostics_soundness", 107, 5.0),
        ("vision_contracts", 109, 1.0),
    ]
    assert (
        criteria.ZERO_INIT_FLOAT64_TOL,
        criteria.ZERO_INIT_FLOAT32_TOL,
        criteria.NORM_MEAN_TOL,
        criteria.NORM_STD_TOL,
        criteria.NORM_SCALE_TOL,
        criteria.GRADCHECK_TOL,
        criteria.ATTN_ORACLE_TOL,
        criteria.LOOP_ORACLE_TOL,
        criteria.COST_ORACLE_TOL,
        criteria.RATIO_REL_TOL,
        criteria.MIN_FLOPS_REDUCTION,
        criteria.MIN_VIDEO_FLOPS_SAVING,
        criteria.MIN_VIDEO_MEMORY_SAVING,
    ) == (0.0, 1e-6, 1e-10, 1e-8, 1e-10, 1e-4, 1e-10, 1e-12, 0.01, 0.3, 0.90, 0.85, 0.50)


def test_criterion_12_selftest_determinism(tmp_path, capsys):
    start = time.perf_counter()
    expected = [f"pass - {c.name}" for c in CRITERIA]
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli_main(["selftest", "--out", str(out), "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        verdicts = [line.split(":")[0] for line in lines if line.startswith(("pass - ", "FAIL - "))]
        assert verdicts == expected
    for name in ("cost.csv", "influence.csv", "drift.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 12 ({elapsed:.2f}s): two selftest runs, one pass line per criterion, "
          "byte-identical CSV artifacts")
    assert elapsed < 60.0, "criterion 12 exceeded 60.0s"
