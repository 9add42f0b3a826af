import argparse
import contextlib
import csv
import io
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmod import criteria
from featmod.cli import build_parser, main
from featmod.configfile import read_kv, write_kv
from featmod.criteria import CRITERIA
from featmod.conditioning import VisualContext
from featmod.model import ModelConfig, base_twin, config_from_kv, config_to_kv, forward, init_model, save_model
from featmod.tensors import count_macs, load_tensors, make_rng


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

    @pytest.mark.parametrize("kind, key, sizes", [
        ("conv", "cond_kernel", (3, 7)),
        ("mlp", "cond_token_exp", (2, 4)),
        ("mlp", "cond_channel_exp", (2, 4)),
    ])
    def test_config_sets_conditioner_sizes(self, kind, key, sizes, tmp_path):
        flops = []
        for size in sizes:
            _, cfg_path = write_config(tmp_path, cond_kind=kind, cond_visual_tokens=5, **{key: size})
            out_dir = tmp_path / f"run{size}"
            assert main([
                "cost", "--config", str(cfg_path), "--out", str(out_dir), "--paradigm", "fmi", "--frames", "8",
            ]) == 0
            with (out_dir / "cost.csv").open() as fh:
                flops.append(next(csv.DictReader(fh))["flops_conditioner"])
        assert flops[0] != flops[1]

    @pytest.mark.parametrize("config, flags, paradigms", [
        ("paradigm=base\nL=4\nC=32\nh=4\nd_ff=64", [], ["base"]),
        ("paradigm=crossattn\nL=4\nC=32\nh=4\nd_ff=64", ["--frequency", "0.5"], ["crossattn"]),
        ("paradigm=base\nL=4\nC=32\nh=4\nd_ff=64", ["--paradigm", "fmi"], ["fmi"]),
        ("L=4\nC=32\nh=4\nd_ff=64", [], ["fmi", "incontext", "crossattn"]),
    ])
    def test_config_paradigm_prices_that_paradigm_only(self, config, flags, paradigms, tmp_path):
        """A config's paradigm is priced alone unless --paradigm overrides it;
        a config without one keeps the three-paradigm sweep."""
        cfg_path = tmp_path / "model.cfg"
        cfg_path.write_text(config + "\n")
        out_dir = tmp_path / "run"
        assert main(["cost", "--config", str(cfg_path), "--out", str(out_dir), "--frames", "8", *flags]) == 0
        with (out_dir / "cost.csv").open() as fh:
            assert [r["paradigm"] for r in csv.DictReader(fh)] == paradigms
        assert read_kv(out_dir / "run.meta")["paradigms"] == ",".join(paradigms)


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

    def test_runs_the_fmi_model_once(self, tmp_path):
        """diagnose counts the MACs of one forward of the model and one of its
        base twin, at the sizes it runs (MAC counts depend on shapes only)."""
        cfg, cfg_path = write_config(tmp_path)
        with count_macs() as counted:
            assert main([
                "diagnose", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                "--tokens", "5", "--visual-tokens", "3",
            ]) == 0
        model = init_model(cfg)
        rng = make_rng(0)
        t_emb = rng.normal(size=(5, cfg.C))
        with count_macs() as expected:
            forward(model, t_emb, VisualContext(rng.normal(size=(3, cfg.C)), "synthetic"))
            forward(base_twin(model), t_emb)
        assert counted.macs == expected.macs


_MLP_FOR_5_VISUAL_TOKENS = "paradigm=fmi\ncond_kind=mlp\ncond_visual_tokens=5\nL=2\nC=16\nh=2\nd_ff=32"


class TestErrors:
    @pytest.mark.parametrize("command", ["forward", "equivalence", "cost", "diagnose"])
    def test_unknown_config_key_exits_two(self, command, tmp_path, capsys):
        """A descriptor with keys ModelConfig lacks: the lines, at their old
        defaults, of descriptors saved while ModelConfig still had cond_heads
        and the sublayer, delta and norm-mode switches."""
        _, path = write_config(tmp_path)
        removed = ["cond_heads", "modulate_attn", "modulate_ffn", "norm_mode", "use_delta_alpha", "use_delta_beta"]
        path.write_text(path.read_text() + "cond_heads=none\nmodulate_attn=true\nmodulate_ffn=true\n"
                        "use_delta_alpha=true\nuse_delta_beta=true\nnorm_mode=ln\n")
        argv = [command, "--config", str(path)]
        if command != "equivalence":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"unknown config keys: {removed}" in err
        assert not (tmp_path / "run").exists()

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
        (["equivalence", "--config", "{cfg}"], "frequency=nan"),
        (["forward", "--config", "{cfg}", "--out", "{tmp}"], "frequency=inf"),
        (["diagnose", "--config", "{cfg}", "--out", "{tmp}"], "seed=-2"),
        (["forward", "--image-size", "0", "--out", "{tmp}"], None),
        (["forward", "--patch", "0", "--out", "{tmp}"], None),
        (["forward", "--frames", "-1", "--out", "{tmp}"], None),
        (["forward", "--config", "{cfg}", "--weights", "{weights}", "--paradigm", "incontext", "--out", "{tmp}"], None),
        (["forward", "--config", "{cfg}", "--weights", "{weights}", "--paradigm", "base", "--out", "{tmp}"], None),
        (["forward", "--config", "{cfg}", "--weights", "{weights}", "--frequency", "0.25", "--out", "{tmp}"], None),
        (["forward", "--config", "{cfg}", "--weights", "{weights}", "--location", "deep", "--out", "{tmp}"], None),
        (["diagnose", "--config", "{cfg}", "--weights", "{weights}", "--location", "deep", "--out", "{tmp}"], None),
        pytest.param(["forward", "--config", "{cfg}", "--out", "{tmp}"], _MLP_FOR_5_VISUAL_TOKENS,
                     id="forward-mlp-visual-count"),
        pytest.param(["diagnose", "--config", "{cfg}", "--out", "{tmp}"], _MLP_FOR_5_VISUAL_TOKENS,
                     id="diagnose-mlp-visual-count"),
        pytest.param(["cost", "--config", "{cfg}", "--out", "{tmp}"], "L=none", id="config-none-for-int"),
        pytest.param(["forward", "--config", "{cfg}", "--out", "{tmp}"], "cond_kind=conv\ncond_kernel=-1",
                     id="config-negative-kernel"),
        pytest.param(["cost", "--frames", "0", "--out", "{tmp}"], None, id="cost-frames-zero"),
        pytest.param(["cost", "--frames", "a,b", "--out", "{tmp}"], None, id="cost-frames-junk"),
        # number spellings str() never writes, which int() and float() accept
        pytest.param(["equivalence", "--config", "{cfg}"], "L=+2", id="config-int-plus-sign"),
        pytest.param(["equivalence", "--config", "{cfg}"], "L=1_0", id="config-int-underscore"),
        pytest.param(["equivalence", "--config", "{cfg}"], "L=\u0663", id="config-int-arabic-indic-digit"),
        pytest.param(["equivalence", "--config", "{cfg}"], "frequency=1_0e-1", id="config-float-underscore"),
        pytest.param(["forward", "--tokens", "1_6", "--out", "{tmp}"], None, id="forward-tokens-underscore"),
        pytest.param(["forward", "--tokens", "\u0661\u0666", "--out", "{tmp}"], None,
                     id="forward-tokens-arabic-indic-digits"),
        pytest.param(["cost", "--frames", "8,1_6", "--out", "{tmp}"], None, id="cost-frames-underscore"),
        pytest.param(["cost", "--frequency", "0", "--out", "{tmp}"], None, id="cost-frequency-zero"),
        pytest.param(["cost", "--frequency", "nan", "--out", "{tmp}"], None, id="cost-frequency-nan"),
        pytest.param(["equivalence", "--weights", "{weights}"], None, id="equivalence-weights"),
        pytest.param(["equivalence", "--paradigm", "base"], None, id="equivalence-base"),
        pytest.param(["equivalence", "--config", "{cfg}"], "paradigm=incontext", id="equivalence-incontext-config"),
        pytest.param(["diagnose", "--paradigm", "incontext", "--out", "{tmp}"], None, id="diagnose-paradigm-flag"),
        pytest.param(["diagnose", "--config", "{cfg}", "--out", "{tmp}"], "paradigm=crossattn",
                     id="diagnose-crossattn-config"),
        pytest.param(["forward", "--frames", "4", "--tile", "28", "--out", "{tmp}"], None, id="forward-frames-tile"),
        pytest.param(["forward", "--paradigm", "base", "--frames", "3", "--out", "{tmp}"], None,
                     id="forward-base-frames"),
        pytest.param(["forward", "--config", "{cfg}", "--image-size", "56", "--out", "{tmp}"], "paradigm=base",
                     id="forward-base-config-image-size"),
        pytest.param(["forward", "--paradigm", "base", "--patch", "7", "--out", "{tmp}"], None,
                     id="forward-base-patch"),
        pytest.param(["forward", "--paradigm", "base", "--tile", "28", "--out", "{tmp}"], None,
                     id="forward-base-tile"),
        pytest.param(["forward", "--config", "{cfg}", "--video-len", "8", "--out", "{tmp}"], "paradigm=base",
                     id="forward-base-config-video-len"),
        pytest.param(["forward", "--video-len", "8", "--out", "{tmp}"], None, id="forward-video-len-without-frames"),
        pytest.param(["forward", "--frames", "1", "--out", "{tmp}"], None, id="forward-one-frame"),
        pytest.param(["forward", "--frames", "3", "--video-len", "2", "--out", "{tmp}"], None,
                     id="forward-video-shorter-than-frames"),
        pytest.param(["forward", "--config", "{cfg}", "--weights", "{weights}", "--image-size", "56", "--out", "{tmp}"],
                     "paradigm=base\nL=2\nC=16\nh=2\nd_ff=32", id="forward-stored-base-image-size"),
        pytest.param(["cost", "--config", "{cfg}", "--out", "{tmp}"], "cond_kind=conv\ncond_kernel=4",
                     id="cost-config-even-kernel"),
        pytest.param(["cost", "--frequency", "0.01", "--out", "{tmp}"], None, id="cost-frequency-selects-no-block"),
        pytest.param(["cost", "--paradigm", "crossattn", "--frequency", "0.01", "--out", "{tmp}"], None,
                     id="cost-crossattn-frequency-selects-no-block"),
        pytest.param(["cost", "--paradigm", "incontext", "--frequency", "0", "--out", "{tmp}"], None,
                     id="cost-incontext-frequency-zero"),
        pytest.param(["cost", "--paradigm", "incontext", "--frequency", "0.5", "--out", "{tmp}"], None,
                     id="cost-incontext-frequency"),
        pytest.param(["cost", "--config", "{cfg}", "--frequency", "0.5", "--out", "{tmp}"], "paradigm=incontext",
                     id="cost-incontext-config-frequency"),
        pytest.param(["cost", "--config", "{cfg}", "--frequency", "0.5", "--out", "{tmp}"], "paradigm=base",
                     id="cost-base-config-frequency"),
        pytest.param(["forward", "--paradigm", "incontext", "--frequency", "5", "--image-size", "28",
                      "--out", "{tmp}"], None, id="forward-incontext-frequency"),
        pytest.param(["forward", "--paradigm", "base", "--location", "deep", "--out", "{tmp}"], None,
                     id="forward-base-location"),
        pytest.param(["forward", "--paradigm", "base", "--frequency", "0", "--location", "deep", "--out", "{tmp}"],
                     None, id="forward-base-frequency-location"),
        pytest.param(["forward", "--config", "{cfg}", "--frequency", "0.5", "--out", "{tmp}"], "paradigm=incontext",
                     id="forward-incontext-config-frequency"),
        pytest.param(["forward", "--config", "{cfg}", "--weights", "{weights}", "--location", "uniform",
                      "--out", "{tmp}"], "paradigm=incontext\nL=2\nC=16\nh=2\nd_ff=32",
                     id="forward-stored-incontext-location"),
        pytest.param(["forward", "--config", "{cfg}", "--weights", "{weights}", "--frequency", "0.25",
                      "--out", "{tmp}"], "paradigm=base\nL=2\nC=16\nh=2\nd_ff=32",
                     id="forward-stored-base-frequency"),
        pytest.param(["cost", "--config", "{cfg}", "--out", "{tmp}"],
                     "paradigm=crossattn\nL=4\nC=100\nh=4\nd_ff=64\nfrequency=0.5", id="cost-crossattn-heads-do-not-divide"),
    ])
    def test_bad_input_exits_two_with_one_line(self, argv, config, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        if config is not None:
            cfg.write_text(config + "\n")
        weights = tmp_path / "model.manifest"
        if "{weights}" in argv:  # a stored model of the given config, else of write_config's
            stored = config_from_kv(read_kv(cfg)) if config is not None else write_config(tmp_path)[0]
            save_model(init_model(stored), cfg, weights)
        argv = [arg.format(tmp=tmp_path / "run", cfg=cfg, weights=weights) for arg in argv]
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

    @pytest.mark.parametrize("command", ["forward", "equivalence", "diagnose", "cost"])
    @pytest.mark.parametrize("raw", [" 0.5 ", "٠.٥", "2_5e-1", "+0.5"],
                             ids=["whitespace", "arabic-indic-digits", "underscore", "plus-sign"])
    def test_frequency_spelling_str_never_writes_exits_two_naming_it(self, command, raw, tmp_path, capsys):
        """float() reads each of these as 0.5 or 2.5; the flag takes only
        what str() writes, as the descriptor's frequency key does."""
        argv = [command, "--frequency", raw] + ([] if command == "equivalence" else ["--out", str(tmp_path / "run")])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and repr(raw) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, config, manifest, message", [
        pytest.param("forward", b"L=2\xff\n", None, "can't decode", id="forward-config-not-utf8"),
        pytest.param("cost", b"L=2\xff\n", None, "can't decode", id="cost-config-not-utf8"),
        pytest.param("forward", None, b"x shape=2 dtype=f64\xff\n", "can't decode", id="manifest-not-utf8"),
        pytest.param("forward", None, b"x shape=-1x-2 dtype=f64\n", "malformed manifest line",
                     id="manifest-negative-dims"),
        pytest.param("forward", None, b"x shape=-2 dtype=f64\n", "malformed manifest line",
                     id="manifest-negative-dim"),
        pytest.param("forward", None, b"x shape=4294967296x4294967296 dtype=f64\n", "too short",
                     id="manifest-shape-past-int64"),
    ])
    def test_unreadable_file_exits_two_with_one_line(self, command, config, manifest, message, tmp_path, capsys):
        """A config or manifest whose bytes do not decode, or a manifest with
        a negative or an int64-overflowing shape (over a 16-byte binary)."""
        if config is None:
            cfg_path = write_config(tmp_path)[1]
        else:
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_bytes(config)
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "run")]
        if manifest is not None:
            weights = tmp_path / "model.manifest"
            weights.write_bytes(manifest)
            weights.with_suffix(".bin").write_bytes(bytes(16))
            argv += ["--weights", str(weights)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, config", [
        pytest.param(["forward", "--config", "{cfg}", "--out", "{tmp}"],
                     "L=1\nC=1099511627776\nh=1\nd_ff=4\nparadigm=base", id="forward-config-width"),
        pytest.param(["forward", "--paradigm", "base", "--tokens", "99999999999999", "--out", "{tmp}"], None,
                     id="forward-tokens"),
        pytest.param(["equivalence", "--tokens", "99999999999999"], None, id="equivalence-tokens"),
        pytest.param(["forward", "--patch", "10000000000", "--out", "{tmp}"], None, id="forward-patch"),
        pytest.param(["forward", "--tile", "100000000000000000000000", "--out", "{tmp}"], None, id="forward-tile"),
        pytest.param(["forward", "--patch", "9" * 300, "--out", "{tmp}"], None, id="forward-patch-300-digits"),
        pytest.param(["forward", "--tile", "9" * 300, "--out", "{tmp}"], None, id="forward-tile-300-digits"),
    ])
    def test_sizes_too_large_to_allocate_exit_one_with_one_line(self, argv, config, tmp_path, capsys):
        """numpy refuses each of these arrays before allocating anything."""
        cfg = tmp_path / "huge.cfg"
        if config is not None:
            cfg.write_text(config + "\n")
        assert main([arg.format(tmp=tmp_path / "run", cfg=cfg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_stored_model_accepts_agreeing_flags_and_seed(self, tmp_path):
        cfg, cfg_path = write_config(tmp_path)
        save_model(init_model(cfg), cfg_path, tmp_path / "model.manifest")
        out_dir = tmp_path / "run"
        assert main([
            "forward", "--config", str(cfg_path), "--weights", str(tmp_path / "model.manifest"),
            "--paradigm", "fmi", "--frequency", "0.5", "--location", "uniform", "--seed", "9",
            "--out", str(out_dir), "--tokens", "4", "--image-size", "28", "--patch", "14",
        ]) == 0
        assert read_kv(out_dir / "run.meta")["seed"] == "9"

    @pytest.mark.parametrize("command", ["forward", "diagnose"])
    def test_stored_mlp_model_rejects_other_visual_count(self, command, tmp_path, capsys):
        cfg, cfg_path = write_config(tmp_path, L=2, C=16, h=2, d_ff=32, cond_kind="mlp", cond_visual_tokens=5)
        save_model(init_model(cfg), cfg_path, tmp_path / "model.manifest")
        assert main([
            command, "--config", str(cfg_path), "--weights", str(tmp_path / "model.manifest"),
            "--out", str(tmp_path / "run"),
        ]) == 2
        assert "cond_visual_tokens 5 disagrees" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_diagnose_rejects_stored_crossattn_model(self, tmp_path, capsys):
        cfg, cfg_path = write_config(tmp_path, paradigm="crossattn")
        save_model(init_model(cfg), cfg_path, tmp_path / "model.manifest")
        assert main([
            "diagnose", "--config", str(cfg_path), "--weights", str(tmp_path / "model.manifest"),
            "--out", str(tmp_path / "run"),
        ]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_weights_without_config_exits_two(self, tmp_path):
        assert main([
            "forward", "--weights", str(tmp_path / "missing.manifest"), "--out", str(tmp_path)
        ]) == 2

    @pytest.mark.parametrize("remove", ["manifest", "bin"])
    def test_missing_weights_file_is_named(self, remove, tmp_path, capsys):
        """The file that is missing, manifest or binary, is the one the error names."""
        cfg, cfg_path = write_config(tmp_path)
        weights = tmp_path / "model.manifest"
        save_model(init_model(cfg), cfg_path, weights)
        missing = weights.with_suffix("." + remove)
        missing.unlink()
        assert main([
            "forward", "--config", str(cfg_path), "--weights", str(weights), "--out", str(tmp_path / "run"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_failing_gradcheck_exits_one_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "GRADCHECK_TOL", 0.0)
        assert main(["gradcheck", "--points", "1"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_failing_criterion_exits_one(self, tmp_path, capsys, monkeypatch):
        failing = replace(CRITERIA[0], run=lambda seed: (False, "forced failure"))
        passing = [replace(c, run=lambda seed: (True, "stub")) for c in CRITERIA[1:]]
        monkeypatch.setattr(criteria, "CRITERIA", (failing, *passing))
        assert main(["selftest", "--out", str(tmp_path / "run")]) == 1
        captured = capsys.readouterr()
        assert f"FAIL - {CRITERIA[0].name}: forced failure" in captured.out.splitlines()
        assert captured.err.count("\n") == 1 and CRITERIA[0].name in captured.err


def _values(*valid):
    """Some valid values of a flag plus zero, negatives, nan, inf and junk."""
    return st.sampled_from([*valid, "0", "-1", "nan", "inf", "-inf", "1e309", "abc", ""])


# Sizes stay small: --image-size <= 56 with --patch/--tile >= 7 keeps a forward
# under 129 visual tokens, and --tokens <= 8.
_COUNT = _values("1", "3", "8")
_SEED = _values("7", "12345678901234567890")
_PARADIGM = _values("fmi", "incontext", "crossattn", "base")
_FREQUENCY = _values("0.25", "1", "1.5")
_COMMON = {"--config": st.just("{cfg}"), "--seed": _SEED, "--frequency": _FREQUENCY,
           "--location": _values("shallow", "middle", "deep", "uniform")}
_WEIGHTS = st.just("{missing}")
# a side past int64 for --patch and --tile only: numpy rejects it before allocating,
# while as many --frames or --video-len would build that many frames first
_PAST_INT64 = "100000000000000000000000"
_FLAGS = {
    "forward": {**_COMMON, "--weights": _WEIGHTS, "--paradigm": _PARADIGM, "--tokens": _COUNT,
                "--image-size": _values("1", "28", "56"), "--patch": _values("7", "14", _PAST_INT64),
                "--tile": _values("7", "28", _PAST_INT64), "--frames": _COUNT, "--video-len": _COUNT},
    "equivalence": {**_COMMON, "--paradigm": _PARADIGM, "--tokens": _COUNT, "--visual-tokens": _COUNT},
    "gradcheck": {"--seed": _SEED, "--points": _COUNT},
    "cost": {"--config": st.just("{cfg}"), "--frames": st.lists(_values("1", "8", "128"), max_size=3).map(",".join),
             "--paradigm": _PARADIGM, "--frequency": _FREQUENCY, "--tokens": _COUNT},
    "diagnose": {**_COMMON, "--weights": _WEIGHTS, "--tokens": _COUNT, "--visual-tokens": _COUNT},
    "selftest": {"--seed": _SEED},
}
_BAD_CONFIG = st.dictionaries(st.sampled_from([f.name for f in fields(ModelConfig)]), _values("true"), max_size=2)


def test_fuzz_flag_table_matches_parser():
    """Every flag of every subcommand is fuzzed, and no removed flag is."""
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: sorted(flag for action in sub._actions for flag in action.option_strings
                     if flag not in ("-h", "--help", "--out"))  # the fuzz always passes --out
        for name, sub in subcommands.choices.items()
    }
    assert parsed == {name: sorted(flags) for name, flags in _FLAGS.items()}


# One test per subcommand: a single test over all six left some never drawn.
@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=10)
@given(data=st.data(), config=_BAD_CONFIG)
def test_fuzzed_argv_exit_code_stderr_and_out_dir(command, data, config):
    flags = data.draw(st.lists(st.sampled_from(sorted(_FLAGS[command])), unique=True, max_size=4))
    stub = tuple(replace(c, run=lambda seed: (True, "stub")) for c in CRITERIA)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "CRITERIA", stub)  # selftest's table is fuzzed for its flags only
        tmp = Path(tmp)
        write_kv(tmp / "model.cfg", {"L": "2", "C": "16", "h": "2", "d_ff": "32", **config})
        argv = [command]
        for flag in flags:
            argv += [flag, data.draw(_FLAGS[command][flag]).format(cfg=tmp / "model.cfg", missing=tmp / "none")]
        if command in ("forward", "cost", "diagnose", "selftest"):
            argv += ["--out", str(tmp / "run")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        if code == 2:
            assert not (tmp / "run").exists(), argv
