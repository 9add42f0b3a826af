"""Command-line surface.

Subcommands:

* forward     - run one paradigm on synthetic inputs, dump hidden states
* equivalence - zero-init check: fresh modulated stack vs base stack
* gradcheck   - finite-difference verification of all analytic gradients
* cost        - analytic cost sweep to cost.csv
* diagnose    - modulation influence and feature drift to CSV
* selftest    - condensed property suite plus deterministic CSV artifacts

Exit codes: 0 success, 1 failed check or runtime error (one-line reason on
stderr), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import costs, diagnostics, vision
from .conditioning import (
    AttnCondParams,
    ConvCondParams,
    MlpCondParams,
    VisualContext,
    attn_oracle,
    cond_attn,
    cond_conv,
    cond_conv_pertoken,
    cond_mlp,
    cond_mlp_pertoken,
    gradcheck_conditioner,
)
from .configfile import read_kv, write_kv
from .model import (
    ForwardCapture,
    Model,
    ModelConfig,
    base_twin,
    config_from_kv,
    forward,
    init_model,
    load_model,
    randomize_modulation,
    select_layers,
)
from .norm import LNParams, gradcheck_viln, layer_norm, random_viln_point
from .tensors import ConfigError, NumericError, ShapeError, make_rng, save_tensors

_GRADCHECK_TOL = 1e-4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _int_at_least(minimum: int):
    """argparse type for integers that must be at least `minimum`."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _parse_frames(raw: str) -> list[int]:
    try:
        frames = [int(part) for part in raw.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"bad --frames list {raw!r}") from exc
    if not frames:
        raise ConfigError("--frames list is empty")
    return frames


def _load_config(args) -> ModelConfig:
    if args.config:
        cfg = config_from_kv(read_kv(args.config))
    else:
        cfg = ModelConfig()
    overrides = {}
    if getattr(args, "paradigm", None):
        overrides["paradigm"] = args.paradigm
    if getattr(args, "frequency", None) is not None:
        overrides["frequency"] = args.frequency
    if getattr(args, "location", None):
        overrides["location"] = args.location
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _synthetic_visual(cfg: ModelConfig, args) -> VisualContext:
    proj = vision.make_patch_projection(cfg.seed, args.patch, 3, cfg.C)
    if args.frames and args.frames > 1:
        k = args.frames
        picks = vision.sample_frames(max(k, args.video_len), k)
        frames = vision.FrameSet(
            frames=[
                vision.ImageGrid(vision.gradient_image(args.image_size, args.image_size).data * (1.0 + idx))
                for idx in picks
            ],
            timestamps=picks,
        )
        return vision.video_context(frames, args.patch, proj)
    img = vision.gradient_image(args.image_size, args.image_size)
    tile = args.tile if args.tile else None
    return vision.image_context(img, args.patch, proj, tile)


def _build_model(args, cfg: ModelConfig, visual: VisualContext | None) -> Model:
    if args.weights:
        if not args.config:
            raise ConfigError("--weights requires --config")
        return load_model(args.config, args.weights)
    if (
        cfg.paradigm == "fmi"
        and cfg.cond_kind == "mlp"
        and cfg.cond_visual_tokens is None
        and visual is not None
    ):
        cfg = replace(cfg, cond_visual_tokens=visual.count)
    return init_model(cfg)


def _write_meta(out_dir: Path, entries: dict[str, str]) -> None:
    write_kv(out_dir / "run.meta", entries)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_forward(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    visual = None if cfg.paradigm == "base" else _synthetic_visual(cfg, args)
    model = _build_model(args, cfg, visual)
    rng = make_rng(args.seed if args.seed is not None else cfg.seed)
    t_emb = rng.normal(size=(args.tokens, cfg.C))
    capture = ForwardCapture()
    out = forward(model, t_emb, visual, capture)
    dump = {f"layer{i}": h for i, h in enumerate(capture.hidden)}
    dump["final"] = out
    save_tensors(out_dir / "hidden.manifest", dump)
    _write_meta(out_dir, {
        "subcommand": "forward",
        "paradigm": model.cfg.paradigm,
        "tokens": str(args.tokens),
        "visual_tokens": str(visual.count if visual is not None else 0),
        "seed": str(args.seed if args.seed is not None else cfg.seed),
        "artifacts": "hidden.manifest,hidden.bin",
    })
    print(f"forward: {model.cfg.paradigm} sequence {out.shape[0]}x{out.shape[1]} -> {out_dir}")
    return 0


def cmd_equivalence(args) -> int:
    cfg = _load_config(args)
    if cfg.paradigm not in ("fmi", "crossattn"):
        cfg = replace(cfg, paradigm="fmi")
    model = init_model(cfg)
    base = base_twin(model)
    rng = make_rng(cfg.seed + 1)
    t_emb = rng.normal(size=(args.tokens, cfg.C))
    visual = VisualContext(rng.normal(size=(args.visual_tokens, cfg.C)), "synthetic")
    out = forward(model, t_emb, visual)
    ref = forward(base, t_emb)
    diff = float(np.max(np.abs(out - ref)))
    print(f"equivalence: max abs diff {diff:.3e}")
    return 0 if diff == 0.0 else 1


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(args.points):
        worst = max(worst, gradcheck_viln(random_viln_point(rng)))
    t = rng.normal(size=(3, 8))
    visual = VisualContext(rng.normal(size=(3, 8)), "synthetic")
    checks = (
        ("attn", AttnCondParams.init(rng, 8, heads=2, std=0.2)),
        ("conv", ConvCondParams.init(rng, 8, kernel=3, std=0.2)),
        ("mlp", MlpCondParams.init(rng, 8, 3, token_exp=2, channel_exp=2, std=0.2)),
    )
    for kind, params in checks:
        worst = max(worst, gradcheck_conditioner(kind, t, visual, params))
    print(f"gradcheck: max relative error {worst:.3e}")
    return 0 if worst <= _GRADCHECK_TOL else 1


def cmd_cost(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = _parse_frames(args.frames)
    base = costs.VIDEO_SWEEP_BASE
    if args.config:
        cfg = config_from_kv(read_kv(args.config))
        base = replace(
            base, L=cfg.L, C=cfg.C, h=cfg.h, d_ff=cfg.d_ff,
            frequency=cfg.frequency, cond_kind=cfg.cond_kind,
        )
    if args.frequency is not None:
        base = replace(base, frequency=args.frequency)
    if args.tokens is not None:
        base = replace(base, T=args.tokens)
    paradigms = [args.paradigm] if args.paradigm else ["fmi", "incontext", "crossattn"]
    reports = []
    for paradigm in paradigms:
        reports.extend(costs.sweep_frames(replace(base, paradigm=paradigm), frames))
    path = out_dir / "cost.csv"
    costs.write_cost_csv(path, reports)
    _write_meta(out_dir, {
        "subcommand": "cost",
        "frames": ",".join(str(k) for k in frames),
        "paradigms": ",".join(paradigms),
        "artifacts": "cost.csv",
    })
    print(f"cost: wrote {len(reports)} rows -> {path}")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    if cfg.paradigm != "fmi":
        cfg = replace(cfg, paradigm="fmi")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.seed
    rng = make_rng(seed + 2)
    visual = VisualContext(rng.normal(size=(args.visual_tokens, cfg.C)), "synthetic")
    model = _build_model(args, cfg, visual)
    if not args.weights:
        randomize_modulation(model, make_rng(seed + 3))
    t_emb = rng.normal(size=(args.tokens, cfg.C))
    influence = diagnostics.modulation_influence(model, t_emb, visual)
    drift = diagnostics.feature_drift(model, base_twin(model), t_emb, visual)
    diagnostics.write_trace_csv(out_dir / "influence.csv", influence)
    diagnostics.write_trace_csv(out_dir / "drift.csv", drift)
    _write_meta(out_dir, {
        "subcommand": "diagnose",
        "seed": str(seed),
        "modulated_layers": ",".join(str(l) for l in influence.layers),
        "artifacts": "influence.csv,drift.csv",
    })
    print(f"diagnose: {len(influence.layers)} modulated layers -> {out_dir}")
    return 0


def _selftest_checks(seed: int) -> list[tuple[str, bool, str]]:
    results = []
    rng = make_rng(seed)

    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=seed)
    model = init_model(cfg)
    base = base_twin(model)
    t_emb = rng.normal(size=(8, cfg.C))
    visual = VisualContext(rng.normal(size=(6, cfg.C)), "synthetic")
    diff = float(np.max(np.abs(forward(model, t_emb, visual) - forward(base, t_emb))))
    results.append(("zero_init_equivalence", diff == 0.0, f"max abs diff {diff:.3e}"))

    x = rng.normal(size=(64, 16))
    _, xhat = layer_norm(x, LNParams(np.ones(16), np.zeros(16), eps=1e-300))
    mean_err = float(np.max(np.abs(xhat.mean(axis=1))))
    std_err = float(np.max(np.abs(xhat.std(axis=1) - 1.0)))
    results.append(("norm_contract", mean_err < 1e-10 and std_err < 1e-8,
                    f"mean {mean_err:.2e} std {std_err:.2e}"))

    worst = 0.0
    for _ in range(5):
        worst = max(worst, gradcheck_viln(random_viln_point(rng)))
    t_small = rng.normal(size=(2, 8))
    vis_small = VisualContext(rng.normal(size=(3, 8)), "synthetic")
    worst = max(worst, gradcheck_conditioner("attn", t_small, vis_small,
                                             AttnCondParams.init(rng, 8, heads=2, std=0.2)))
    worst = max(worst, gradcheck_conditioner("conv", t_small, vis_small,
                                             ConvCondParams.init(rng, 8, kernel=3, std=0.2)))
    worst = max(worst, gradcheck_conditioner("mlp", t_small, vis_small,
                                             MlpCondParams.init(rng, 8, 3, 2, 2, std=0.2)))
    results.append(("gradcheck", worst <= _GRADCHECK_TOL, f"max rel err {worst:.3e}"))

    attn_err = 0.0
    for _ in range(5):
        tt = rng.normal(size=(3, 8))
        vv = VisualContext(rng.normal(size=(4, 8)), "synthetic")
        pp = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        attn_err = max(attn_err, float(np.max(np.abs(cond_attn(tt, vv, pp) - attn_oracle(tt, vv, pp)))))
    results.append(("attention_oracle", attn_err <= 1e-10, f"max abs err {attn_err:.3e}"))

    loop_err = 0.0
    for _ in range(3):
        tt = rng.normal(size=(3, 6))
        vv = VisualContext(rng.normal(size=(4, 6)), "synthetic")
        pm = MlpCondParams.init(rng, 6, 4, 2, 2, std=0.3)
        pc = ConvCondParams.init(rng, 6, kernel=3, std=0.3)
        loop_err = max(loop_err, float(np.max(np.abs(cond_mlp(tt, vv, pm) - cond_mlp_pertoken(tt, vv, pm)))))
        loop_err = max(loop_err, float(np.max(np.abs(cond_conv(tt, vv, pc) - cond_conv_pertoken(tt, vv, pc)))))
    results.append(("conditioner_loop_equivalence", loop_err <= 1e-12, f"max abs err {loop_err:.3e}"))

    plan = select_layers(32, 0.25, "uniform").modulated
    results.append(("layer_selection", plan == tuple(range(0, 32, 4)), f"{plan}"))

    oracle_ok = True
    detail = []
    for paradigm in ("fmi", "incontext", "crossattn"):
        cc = costs.CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm=paradigm, frequency=0.5)
        analytic = costs.cost_paradigm(cc).total_flops
        measured = costs.measured_flops(cc, seed=seed)
        rel = abs(analytic - measured) / measured
        oracle_ok = oracle_ok and rel <= 0.01
        detail.append(f"{paradigm} {rel:.2%}")
    results.append(("cost_oracle", oracle_ok, "; ".join(detail)))

    ratio_ok = True
    detail = []
    for case in costs.FLOPS_RATIO_CASES:
        ratio = costs.flops_reduction_ratio(case)
        ok = abs(ratio - case.target_ratio) <= 0.3 * case.target_ratio
        ratio_ok = ratio_ok and ok
        detail.append(f"{case.name} {ratio:.1f}x")
    results.append(("reference_flops_ratios", ratio_ok, "; ".join(detail)))

    fmi_reports = costs.sweep_frames(replace(costs.VIDEO_SWEEP_BASE, paradigm="fmi"), [8, 128])
    ctx_reports = costs.sweep_frames(replace(costs.VIDEO_SWEEP_BASE, paradigm="incontext"), [8, 128])
    flops_saving = 1.0 - fmi_reports[1].total_flops / ctx_reports[1].total_flops
    mem_saving = 1.0 - fmi_reports[1].memory_total_bytes / ctx_reports[1].memory_total_bytes
    kv_const = fmi_reports[0].kv_cache_bytes == fmi_reports[1].kv_cache_bytes
    results.append(("video_scaling", flops_saving >= 0.85 and mem_saving >= 0.50 and kv_const,
                    f"flops saving {flops_saving:.1%} memory saving {mem_saving:.1%}"))

    influence = diagnostics.modulation_influence(model, t_emb, visual)
    drift = diagnostics.feature_drift(base, base_twin(base), t_emb, None)
    diag_ok = float(np.max(influence.per_token)) == 0.0 and float(np.max(drift.per_token)) == 0.0
    results.append(("diagnostics_soundness", diag_ok, "zero-init influence and base drift are zero"))

    img = vision.gradient_image(20, 14)
    tiles = vision.tile_image(img, 8)
    pooled = vision.pool_adaptive_2x2(np.arange(16, dtype=np.float64).reshape(4, 4, 1) + 1)
    proj = vision.make_patch_projection(seed, 14, 3, 8)
    n_tokens = vision.encode_stub(vision.gradient_image(336, 336), 14, proj).shape[0]
    vision_ok = (
        len(tiles) == 6
        and np.array_equal(pooled[:, :, 0], [[3.5, 5.5], [11.5, 13.5]])
        and vision.sample_frames(100, 4) == [0, 33, 66, 99]
        and n_tokens == 576
    )
    results.append(("vision_contracts", vision_ok, f"336px/14 tokens {n_tokens}"))
    return results


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _selftest_checks(seed)

    reports = []
    for paradigm in ("fmi", "incontext", "crossattn"):
        reports.extend(
            costs.sweep_frames(replace(costs.VIDEO_SWEEP_BASE, paradigm=paradigm), [8, 16, 32, 64, 128])
        )
    costs.write_cost_csv(out_dir / "cost.csv", reports)

    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=seed)
    model = init_model(cfg)
    randomize_modulation(model, make_rng(seed + 3))
    rng = make_rng(seed + 2)
    t_emb = rng.normal(size=(8, cfg.C))
    visual = VisualContext(rng.normal(size=(6, cfg.C)), "synthetic")
    diagnostics.write_trace_csv(out_dir / "influence.csv", diagnostics.modulation_influence(model, t_emb, visual))
    diagnostics.write_trace_csv(out_dir / "drift.csv", diagnostics.feature_drift(model, base_twin(model), t_emb, visual))
    _write_meta(out_dir, {
        "subcommand": "selftest",
        "seed": str(seed),
        "checks": str(len(results)),
        "artifacts": "cost.csv,influence.csv,drift.csv",
    })

    failed = 0
    for name, ok, detail in results:
        print(f"{'pass' if ok else 'FAIL'} - {name}: {detail}")
        failed += 0 if ok else 1
    print(f"selftest: {len(results) - failed}/{len(results)} checks passed -> {out_dir}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="featmod", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_weights=True):
        p.add_argument("--config", help="model descriptor (key=value lines)")
        if with_weights:
            p.add_argument("--weights", help="tensor manifest with model weights")
        p.add_argument("--seed", type=_non_negative_int, default=None)
        p.add_argument("--paradigm", choices=["fmi", "incontext", "crossattn", "base"])

    p = sub.add_parser("forward", help="run a paradigm on synthetic inputs")
    common(p)
    p.add_argument("--out", default="out")
    p.add_argument("--tokens", type=_positive_int, default=16)
    p.add_argument("--image-size", type=_positive_int, default=336, dest="image_size")
    p.add_argument("--patch", type=_positive_int, default=14)
    p.add_argument("--tile", type=_non_negative_int, default=0)
    p.add_argument("--frames", type=_non_negative_int, default=0)
    p.add_argument("--video-len", type=_positive_int, default=64, dest="video_len")
    p.add_argument("--frequency", type=float, default=None)
    p.add_argument("--location", choices=["shallow", "middle", "deep", "uniform"])
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("equivalence", help="zero-init forward equality check")
    common(p)
    p.add_argument("--tokens", type=_positive_int, default=16)
    p.add_argument("--visual-tokens", type=_positive_int, default=8, dest="visual_tokens")
    p.add_argument("--frequency", type=float, default=None)
    p.add_argument("--location", choices=["shallow", "middle", "deep", "uniform"])
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--points", type=_positive_int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("cost", help="analytic cost sweep to CSV")
    p.add_argument("--config", help="model descriptor supplying the architecture")
    p.add_argument("--out", default="out")
    p.add_argument("--paradigm", choices=["fmi", "incontext", "crossattn"])
    p.add_argument("--frames", default="8,16,32,64,128")
    p.add_argument("--frequency", type=float, default=None)
    p.add_argument("--tokens", type=_positive_int, default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("diagnose", help="modulation influence and drift to CSV")
    common(p)
    p.add_argument("--out", default="out")
    p.add_argument("--tokens", type=_positive_int, default=16)
    p.add_argument("--visual-tokens", type=_positive_int, default=8, dest="visual_tokens")
    p.add_argument("--frequency", type=float, default=None)
    p.add_argument("--location", choices=["shallow", "middle", "deep", "uniform"])
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("selftest", help="condensed property suite")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, NumericError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
