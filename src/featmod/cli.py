"""Command-line surface.

Subcommands:

* forward     - run one paradigm on synthetic inputs, dump hidden states
* equivalence - criterion 1's zero-init check at the given sizes: a fresh
                fmi or crossattn model against its base twin
* gradcheck   - criterion 3's finite-difference checks of every analytic
                gradient, at --points N random points per path
* cost        - analytic cost sweep to cost.csv: the paradigm of --paradigm,
                else that of a --config that sets one, else fmi, incontext
                and crossattn
* diagnose    - modulation influence and feature drift of an fmi model to
                CSV, from one captured pass of the model and one of its base
                twin
* selftest    - the 11 release criteria (featmod.criteria) plus deterministic
                CSV artifacts; --seed s runs each criterion at its release
                seed + s, so --seed 0 runs exactly the release gates

Exit codes: 0 success, 1 failed check or runtime error, such as sizes too
large to allocate (one-line reason on stderr), 2 usage or config errors,
written before any output: these include equivalence of a base or incontext
model, diagnose of a non-fmi model, forward --tile with --frames K, forward
--video-len without --frames K or shorter than K, a flag that the paradigm
cannot apply (forward's visual flags on base; --frequency or --location on
base and incontext; cost --frequency on a base or incontext paradigm), and
a --config with a key that ModelConfig does not have.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import costs, criteria, diagnostics, vision
from .conditioning import VisualContext
from .configfile import read_kv, write_kv
from .model import (
    LOCATIONS,
    PARADIGMS,
    ForwardCapture,
    Model,
    ModelConfig,
    config_from_kv,
    forward,
    init_model,
    load_model,
    randomize_modulation,
)
from .tensors import ConfigError, make_rng, parse_number, save_tensors


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _int_at_least(minimum: int):
    """argparse type for integers that must be at least `minimum`."""

    def parse(raw: str) -> int:
        try:
            value = parse_number(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _float(raw: str) -> float:
    """argparse type for a float spelled as str() writes it (see parse_number)."""
    try:
        return parse_number(raw, float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_frames(raw: str) -> list[int]:
    try:
        frames = [parse_number(part) for part in raw.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"bad --frames list {raw!r}") from exc
    if not frames:
        raise ConfigError("--frames list is empty")
    return frames


# Flags that override the config field of the same name; a stored model
# (--weights) keeps its own value of each, so they must agree with it.
_ARCH_FLAGS = ("paradigm", "frequency", "location")


def _load_config(args) -> ModelConfig:
    cfg = config_from_kv(read_kv(args.config)) if args.config else ModelConfig()
    flags = {name: getattr(args, name, None) for name in (*_ARCH_FLAGS, "seed")}
    cfg = replace(cfg, **{name: value for name, value in flags.items() if value is not None})
    cfg.validate()
    return cfg


def _synthetic_visual(cfg: ModelConfig, args) -> VisualContext:
    proj = vision.make_patch_projection(cfg.seed, args.patch, 3, cfg.C)
    if args.frames > 1:
        k = args.frames
        picks = vision.sample_frames(args.video_len, k)
        frames = vision.FrameSet(
            frames=[
                vision.ImageGrid(vision.gradient_image(args.image_size, args.image_size).data * (1.0 + idx))
                for idx in picks
            ],
            timestamps=picks,
        )
        return vision.video_context(frames, args.patch, proj)
    img = vision.gradient_image(args.image_size, args.image_size)
    return vision.image_context(img, args.patch, proj, args.tile or None)


def _build_model(args, cfg: ModelConfig, visual: VisualContext | None) -> Model:
    if args.weights:
        if not args.config:
            raise ConfigError("--weights requires --config")
        model = load_model(args.config, args.weights)
        for name in _ARCH_FLAGS:
            flag = getattr(args, name, None)
            if flag is not None and flag != getattr(model.cfg, name):
                raise ConfigError(
                    f"--{name} {flag} disagrees with the stored {name} "
                    f"{getattr(model.cfg, name)} of --weights"
                )
        cfg = model.cfg
    mlp = cfg.paradigm == "fmi" and cfg.cond_kind == "mlp" and visual is not None
    if mlp and cfg.cond_visual_tokens != visual.count:
        raise ConfigError(
            f"cond_visual_tokens {cfg.cond_visual_tokens} disagrees with the "
            f"{visual.count} visual tokens of the input"
        )
    return model if args.weights else init_model(cfg)


def _write_meta(out_dir: Path, entries: dict[str, str]) -> None:
    write_kv(out_dir / "run.meta", entries)


def _write_cost(out_dir: Path, base: costs.CostConfig, paradigms, frames) -> int:
    """cost.csv of each paradigm's frame sweep, made once every row is priced; returns the row count."""
    reports = []
    for paradigm in paradigms:
        reports.extend(costs.sweep_frames(replace(base, paradigm=paradigm), frames))
    out_dir.mkdir(parents=True, exist_ok=True)
    costs.write_cost_csv(out_dir / "cost.csv", reports)
    return len(reports)


def _write_diagnosis(out_dir: Path, model: Model, t_emb: np.ndarray, visual: VisualContext):
    """influence.csv and drift.csv of one diagnosis; returns the influence trace."""
    influence, drift = diagnostics.diagnose(model, t_emb, visual)
    diagnostics.write_trace_csv(out_dir / "influence.csv", influence)
    diagnostics.write_trace_csv(out_dir / "drift.csv", drift)
    return influence


# ---------------------------------------------------------------------------
# Subcommands

# forward's visual-input flags and their defaults; a base model takes none of them.
_VISUAL_FLAGS = {"image_size": 336, "patch": 14, "tile": 0, "frames": 0, "video_len": 64}
# forward's flags that cannot apply to a paradigm, and why.
_INAPPLICABLE = {
    "base": ((*_VISUAL_FLAGS, "frequency", "location"), "takes no visual input"),
    "incontext": (("frequency", "location"), "selects no blocks for vision"),
}


def cmd_forward(args) -> int:
    cfg = _load_config(args)
    names, reason = _INAPPLICABLE.get(cfg.paradigm, ((), ""))
    given = [name for name in names if getattr(args, name) is not None]
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ConfigError(f"the {cfg.paradigm} paradigm {reason}, so {flags} cannot apply")
    if args.video_len is not None and args.frames is None:
        raise ConfigError("--video-len is the length of the video that --frames K samples, so it needs --frames")
    for name, default in _VISUAL_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.frames > 1 and args.tile:
        raise ConfigError("--tile splits one still image and cannot apply to --frames K > 1")
    visual = None if cfg.paradigm == "base" else _synthetic_visual(cfg, args)
    model = _build_model(args, cfg, visual)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = make_rng(cfg.seed)
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
        "seed": str(cfg.seed),
        "artifacts": "hidden.manifest,hidden.bin",
    })
    print(f"forward: {model.cfg.paradigm} sequence {out.shape[0]}x{out.shape[1]} -> {out_dir}")
    return 0


def cmd_equivalence(args) -> int:
    cfg = _load_config(args)
    if cfg.paradigm not in ("fmi", "crossattn"):
        raise ConfigError(f"equivalence checks a zero-init fmi or crossattn model, not {cfg.paradigm}")
    gap = criteria.zero_init_gap(cfg, args.tokens, args.visual_tokens, np.float64)
    print(f"equivalence: max abs diff {gap:.3e}")
    if gap <= criteria.ZERO_INIT_FLOAT64_TOL:
        return 0
    return _fail(f"zero-init model differs from its base twin by {gap:.3e}")


def cmd_gradcheck(args) -> int:
    worst = max(criteria.gradient_errors(args.seed, args.points).values())
    print(f"gradcheck: max relative error {worst:.3e}")
    if worst > criteria.GRADCHECK_TOL:
        return _fail(f"max relative error {worst:.3e} exceeds {criteria.GRADCHECK_TOL:.0e}")
    return 0


def cmd_cost(args) -> int:
    frames = _parse_frames(args.frames)
    base = costs.VIDEO_SWEEP_BASE
    paradigms = costs.SWEEP_PARADIGMS
    if args.config:
        kv = read_kv(args.config)
        cfg = config_from_kv(kv)
        base = replace(base, **{name: getattr(cfg, name) for name in costs.MODEL_FIELDS})
        if "paradigm" in kv:
            paradigms = (cfg.paradigm,)
    if args.paradigm:
        paradigms = (args.paradigm,)
    if args.frequency is not None:
        if len(paradigms) == 1 and paradigms[0] in ("base", "incontext"):
            raise ConfigError(
                f"the {paradigms[0]} paradigm selects no blocks for vision, so --frequency cannot apply"
            )
        base = replace(base, frequency=args.frequency)
    if args.tokens is not None:
        base = replace(base, T=args.tokens)
    out_dir = Path(args.out)
    rows = _write_cost(out_dir, base, paradigms, frames)
    _write_meta(out_dir, {
        "subcommand": "cost",
        "frames": ",".join(str(k) for k in frames),
        "paradigms": ",".join(paradigms),
        "artifacts": "cost.csv",
    })
    print(f"cost: wrote {rows} rows -> {out_dir / 'cost.csv'}")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    if cfg.paradigm != "fmi":
        raise ConfigError(f"diagnose measures an fmi model, not {cfg.paradigm}")
    rng = make_rng(cfg.seed + 2)
    visual = VisualContext(rng.normal(size=(args.visual_tokens, cfg.C)), "synthetic")
    model = _build_model(args, cfg, visual)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.weights:
        randomize_modulation(model, make_rng(cfg.seed + 3))
    influence = _write_diagnosis(out_dir, model, rng.normal(size=(args.tokens, cfg.C)), visual)
    _write_meta(out_dir, {
        "subcommand": "diagnose",
        "seed": str(cfg.seed),
        "modulated_layers": ",".join(str(l) for l in influence.layers),
        "artifacts": "influence.csv,drift.csv",
    })
    print(f"diagnose: {len(influence.layers)} modulated layers -> {out_dir}")
    return 0


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for entry in criteria.CRITERIA:
        ok, detail = entry.run(entry.seed + seed)
        print(f"{'pass' if ok else 'FAIL'} - {entry.name}: {detail}")
        if not ok:
            failed.append(entry.name)

    _write_cost(out_dir, costs.VIDEO_SWEEP_BASE, costs.SWEEP_PARADIGMS, costs.SWEEP_FRAMES)

    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=seed)
    model = init_model(cfg)
    randomize_modulation(model, make_rng(seed + 3))
    rng = make_rng(seed + 2)
    t_emb = rng.normal(size=(8, cfg.C))
    _write_diagnosis(out_dir, model, t_emb, VisualContext(rng.normal(size=(6, cfg.C)), "synthetic"))
    _write_meta(out_dir, {
        "subcommand": "selftest",
        "seed": str(seed),
        "checks": str(len(criteria.CRITERIA)),
        "artifacts": "cost.csv,influence.csv,drift.csv",
    })

    total = len(criteria.CRITERIA)
    print(f"selftest: {total - len(failed)}/{total} checks passed -> {out_dir}")
    if failed:
        return _fail(f"{len(failed)} of {total} release criteria failed: {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------------------
# Parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="featmod", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def model_flags(p, weights: bool, paradigm_help: str | None):
        p.add_argument("--config", help="model descriptor (key=value lines)")
        if weights:
            p.add_argument("--weights", help="tensor manifest with model weights; needs --config")
        p.add_argument("--seed", type=_non_negative_int, default=None, help="overrides the config's seed")
        if paradigm_help:
            p.add_argument("--paradigm", choices=PARADIGMS, help=paradigm_help)
        p.add_argument("--frequency", type=_float, default=None, help="share of blocks given vision, (0, 1]")
        p.add_argument("--location", choices=LOCATIONS, help="where the selected blocks sit in the stack")

    p = sub.add_parser("forward", help="run a paradigm on synthetic inputs")
    model_flags(p, weights=True, paradigm_help="overrides the config's paradigm")
    p.add_argument("--out", default="out")
    p.add_argument("--tokens", type=_positive_int, default=16)
    # visual-input flags default to None so a base model can reject them; see _VISUAL_FLAGS
    p.add_argument("--image-size", type=_positive_int, dest="image_size", help="default 336")
    p.add_argument("--patch", type=_positive_int, help="default 14")
    p.add_argument("--tile", type=_non_negative_int, help="N px image tiles; not with --frames")
    p.add_argument("--frames", type=_int_at_least(2), help="encode K > 1 pooled video frames")
    p.add_argument("--video-len", type=_positive_int, dest="video_len", help="frames in the video; default 64")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("equivalence", help="zero-init forward equality check (criterion 1)")
    model_flags(p, weights=False, paradigm_help="fmi or crossattn; base and incontext have no zero-init twin")
    p.add_argument("--tokens", type=_positive_int, default=16)
    p.add_argument("--visual-tokens", type=_positive_int, default=8, dest="visual_tokens")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification (criterion 3)")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="criterion 3 runs seed 104")
    p.add_argument("--points", type=_positive_int, default=20, help="points per path; criterion 3 runs 100")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("cost", help="analytic cost sweep to CSV")
    p.add_argument("--config", help="model descriptor supplying the architecture and conditioner sizes")
    p.add_argument("--out", default="out")
    p.add_argument("--paradigm", choices=costs.SWEEP_PARADIGMS, help="overrides the config's paradigm")
    p.add_argument("--frames", default=",".join(str(k) for k in costs.SWEEP_FRAMES))
    p.add_argument("--frequency", type=_float, default=None)
    p.add_argument("--tokens", type=_positive_int, default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("diagnose", help="modulation influence and drift of an fmi model to CSV")
    model_flags(p, weights=True, paradigm_help=None)
    p.add_argument("--out", default="out")
    p.add_argument("--tokens", type=_positive_int, default=16)
    p.add_argument("--visual-tokens", type=_positive_int, default=8, dest="visual_tokens")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("selftest", help="release criteria plus deterministic CSV artifacts")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # a ValueError, like ShapeError and NumericError, so it goes first
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
