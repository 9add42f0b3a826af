import csv
import warnings

import numpy as np
import pytest

from featmod.cli import main
from featmod.configfile import read_kv, write_kv
from featmod.model import ModelConfig, config_to_kv, init_model, save_model
from featmod.tensors import load_tensors


def write_config(tmp_path, **overrides):
    kwargs = dict(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=3)
    kwargs.update(overrides)
    cfg = ModelConfig(**kwargs)
    path = tmp_path / "model.cfg"
    write_kv(path, config_to_kv(cfg))
    return cfg, path


class TestEquivalence:
    def test_fresh_model_exits_zero(self, capsys):
        assert main(["equivalence", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "max abs diff 0.000e+00" in out

    def test_with_config_file(self, tmp_path, capsys):
        _, path = write_config(tmp_path)
        assert main(["equivalence", "--config", str(path)]) == 0


class TestGradcheck:
    def test_default_seed_passes(self, capsys):
        assert main(["gradcheck", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        value = float(out.strip().split()[-1])
        assert value <= 1e-4


class TestForward:
    def test_dumps_hidden_states(self, tmp_path, capsys):
        _, cfg_path = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main([
            "forward", "--config", str(cfg_path), "--out", str(out_dir),
            "--tokens", "5", "--image-size", "28", "--patch", "14",
        ]) == 0
        dumped = load_tensors(out_dir / "hidden.manifest")
        assert dumped["final"].shape == (5, 32)
        assert {f"layer{i}" for i in range(4)} <= set(dumped)
        meta = read_kv(out_dir / "run.meta")
        assert meta["subcommand"] == "forward"
        assert meta["visual_tokens"] == "4"

    def test_incontext_grows_sequence(self, tmp_path):
        _, cfg_path = write_config(tmp_path, paradigm="incontext")
        out_dir = tmp_path / "run"
        assert main([
            "forward", "--config", str(cfg_path), "--out", str(out_dir),
            "--tokens", "5", "--image-size", "28", "--patch", "14",
        ]) == 0
        dumped = load_tensors(out_dir / "hidden.manifest")
        assert dumped["final"].shape == (9, 32)

    def test_video_frames_input(self, tmp_path):
        _, cfg_path = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main([
            "forward", "--config", str(cfg_path), "--out", str(out_dir),
            "--tokens", "4", "--image-size", "28", "--patch", "14", "--frames", "3",
        ]) == 0
        meta = read_kv(out_dir / "run.meta")
        assert meta["visual_tokens"] == "3"  # 2x2 grid pools to 1 token per frame

    def test_saved_weights_round_trip(self, tmp_path):
        cfg, cfg_path = write_config(tmp_path)
        model = init_model(cfg)
        save_model(model, cfg_path, tmp_path / "model.manifest")
        out_dir = tmp_path / "run"
        assert main([
            "forward", "--config", str(cfg_path), "--weights", str(tmp_path / "model.manifest"),
            "--out", str(out_dir), "--tokens", "4", "--image-size", "28", "--patch", "14",
        ]) == 0


class TestCost:
    def test_writes_csv_with_savings(self, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["cost", "--out", str(out_dir), "--frames", "8,128"]) == 0
        with (out_dir / "cost.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # three paradigms x two frame counts
        by_key = {(r["paradigm"], r["k"]): r for r in rows}
        fmi = int(by_key[("fmi", "128")]["flops_total"])
        ctx = int(by_key[("incontext", "128")]["flops_total"])
        assert 1.0 - fmi / ctx >= 0.85

    def test_single_paradigm(self, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["cost", "--out", str(out_dir), "--paradigm", "fmi", "--frames", "8,16"]) == 0
        with (out_dir / "cost.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["paradigm"] for r in rows] == ["fmi", "fmi"]

    def test_bad_frames_list_is_usage_error(self, tmp_path):
        assert main(["cost", "--out", str(tmp_path), "--frames", "a,b"]) == 2


class TestDiagnose:
    def test_writes_both_csvs(self, tmp_path):
        _, cfg_path = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main([
            "diagnose", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "5",
        ]) == 0
        assert (out_dir / "influence.csv").exists()
        assert (out_dir / "drift.csv").exists()
        with (out_dir / "influence.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["distance"]) > 0.0 for r in rows)


class TestSelftest:
    def test_passes_and_is_byte_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["selftest", "--out", str(out_a), "--seed", "0"]) == 0
        assert main(["selftest", "--out", str(out_b), "--seed", "0"]) == 0
        for name in ("cost.csv", "influence.csv", "drift.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestErrors:
    def test_unknown_config_key_exits_two(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("L=4\nmystery=1\n")
        assert main(["equivalence", "--config", str(path)]) == 2

    def test_malformed_config_line_exits_two(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not a kv line\n")
        assert main(["equivalence", "--config", str(path)]) == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["forward", "--tokens", "0"],
        ["forward", "--tokens", "-1"],
        ["equivalence", "--visual-tokens", "0"],
        ["diagnose", "--visual-tokens", "-2"],
        ["cost", "--tokens", "0"],
        ["gradcheck", "--points", "0"],
        ["gradcheck", "--points", "-3"],
    ])
    def test_non_positive_count_exits_two_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be >= 1" in err

    @pytest.mark.parametrize("argv, config", [
        (["forward", "--seed", "-1", "--out", "{tmp}"], None),
        (["equivalence", "--seed", "-1"], None),
        (["equivalence", "--config", "{cfg}"], "seed=1.5"),
        (["equivalence", "--config", "{cfg}"], "frequency=abc"),
        (["equivalence", "--config", "{cfg}"], "eps=nan"),
        (["forward", "--config", "{cfg}", "--out", "{tmp}"], "eps=inf"),
        (["diagnose", "--config", "{cfg}", "--out", "{tmp}"], "seed=-2"),
        (["forward", "--image-size", "0", "--out", "{tmp}"], None),
        (["forward", "--patch", "0", "--out", "{tmp}"], None),
        (["forward", "--frames", "-1", "--out", "{tmp}"], None),
    ])
    def test_bad_input_exits_two_with_one_line(self, argv, config, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        if config is not None:
            cfg.write_text(config + "\n")
        argv = [arg.format(tmp=tmp_path / "run", cfg=cfg) for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_weights_without_config_exits_two(self, tmp_path):
        assert main([
            "forward", "--weights", str(tmp_path / "missing.manifest"), "--out", str(tmp_path)
        ]) == 2
