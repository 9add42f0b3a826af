"""Workloads of the featmod benchmark: shapes, set-up, timed operations, checks.

Each workload builds six models (``base``, ``fmi`` with the attn, conv and mlp
conditioners, ``incontext`` and ``crossattn``) plus synthetic inputs from the
workload seed, and defines the operations the benchmark times. Every
operation returns its output so the benchmark can check it.

featmod is driven only through its public Python API; nothing here edits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Module attributes, not imported names, so the tracer's wrappers are seen.
from featmod import conditioning, costs, diagnostics, model, norm, vision
from featmod.conditioning import AttnCondParams, ConvCondParams, MlpCondParams, VisualContext
from featmod.tensors import make_rng

VARIANTS = ("base", "fmi_attn", "fmi_conv", "fmi_mlp", "incontext", "crossattn")

# Criterion 7's nine tiny op-walk configurations.
OPWALK_CONFIGS = (
    dict(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="fmi", frequency=0.5),
    dict(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="fmi", cond_kind="mlp",
         frequency=0.34, cond_token_exp=2, cond_channel_exp=2),
    dict(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="fmi", cond_kind="conv",
         frequency=0.25, cond_kernel=5),
    dict(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="incontext"),
    dict(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=3, paradigm="incontext"),
    dict(L=1, C=16, h=4, d_ff=64, T=9, V=7, paradigm="incontext"),
    dict(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="crossattn", frequency=0.5),
    dict(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="crossattn", frequency=1.0),
    dict(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="crossattn", frequency=0.25),
)

GRADCHECK_POINTS = 2      # random points per gradient path in one verification pass
GRADCHECK_LIMIT = 1e-4    # criterion 3's worst relative error
OPWALK_LIMIT = 0.01       # criterion 7's worst analytic/op-walk gap
FINGERPRINT_RTOL = 1e-9   # reference fingerprints: loose enough for last-bit changes
REPEAT_RTOL = 1e-12       # repeated samples of one operation on one input


@dataclass(frozen=True)
class Spec:
    """Shape and schedule of one workload.

    image_px is the synthetic image (height, width); with frames > 0 the
    workload samples that many frames of video_len square frames of
    image_px[0] pixels instead. cond_T is the prompt length given to the conv
    and mlp variants. reps says how many timed samples each operation
    gives per round and batch how many back-to-back calls one sample times
    (for ops near the timer's resolution); ops not named get one of each.
    ref_cal_ms holds the fixed reference time of each calibration kernel the
    workload runs, in running order; timings are normalised by
    default_kernel, or by the kernel calibrate names for an op.
    """

    name: str
    index: int
    L: int
    C: int
    h: int
    d_ff: int
    frequency: float
    T: int
    image_px: tuple[int, int]
    ref_cal_ms: dict
    default_kernel: str
    setup_reps: int
    frames: int = 0
    video_len: int = 0
    patch: int = 14
    cond_T: int | None = None
    reps: dict = field(default_factory=dict)
    batch: dict = field(default_factory=dict)
    calibrate: dict = field(default_factory=dict)

    @property
    def visual_tokens(self) -> int:
        side = vision.grid_side(self.image_px[0], self.patch)
        if self.frames:
            return self.frames * ((side + 1) // 2) ** 2
        return side * vision.grid_side(self.image_px[1], self.patch)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="desk", index=0,
            L=4, C=32, h=4, d_ff=64, frequency=0.5, T=8, image_px=(28, 42),
            ref_cal_ms={"small": 0.3}, default_kernel="small", setup_reps=30,
            reps={"encode_ms": 20, "diagnose_ms": 8, **{f"fwd_{v}_ms": 12 for v in VARIANTS}},
            batch={"encode_ms": 10},
        ),
        Spec(
            name="image336", index=1,
            L=8, C=256, h=8, d_ff=1024, frequency=0.25, T=16, image_px=(336, 336),
            ref_cal_ms={"small": 0.3, "blas": 5.0, "stream": 5.0}, default_kernel="blas", setup_reps=3,
            reps={"encode_ms": 4, "fwd_base_ms": 4, "fwd_fmi_attn_ms": 3, "fwd_fmi_conv_ms": 2,
                  "fwd_crossattn_ms": 3, "gradcheck_s": 2, "opwalk_ms": 4},
            calibrate={"fwd_fmi_conv_ms": "stream", "fwd_fmi_mlp_ms": "stream", "fwd_incontext_ms": "stream",
                       "gradcheck_s": "small", "opwalk_ms": "small"},
        ),
        Spec(
            name="video_long", index=2,
            L=8, C=256, h=8, d_ff=1024, frequency=0.25, T=128, image_px=(336, 336),
            frames=4, video_len=16, cond_T=1,
            ref_cal_ms={"small": 0.3, "blas": 6.0}, default_kernel="blas", setup_reps=3,
            reps={"encode_ms": 2, "fwd_fmi_conv_ms": 3, "gradcheck_s": 2, "opwalk_ms": 4},
            calibrate={"gradcheck_s": "small", "opwalk_ms": "small"},
        ),
    )
}


@dataclass(frozen=True)
class Seeds:
    """Seeds derived from (workload, --seed); each feeds one generator."""

    model: int
    inputs: int
    encoder: int
    modulation: int
    insert: int
    gradcheck: int
    opwalk: int


def derive_seeds(spec: Spec, seed: int) -> Seeds:
    state = np.random.SeedSequence([spec.index, int(seed)]).generate_state(7)
    return Seeds(*(int(s) & 0x7FFFFFFF for s in state))


def model_config(spec: Spec, variant: str, seed: int) -> model.ModelConfig:
    paradigm, _, kind = variant.partition("_")
    return model.ModelConfig(
        L=spec.L, C=spec.C, h=spec.h, d_ff=spec.d_ff,
        paradigm=paradigm, cond_kind=kind or "attn", frequency=spec.frequency, seed=seed,
        cond_visual_tokens=spec.visual_tokens if kind == "mlp" else None,
    )


def prompt_len(spec: Spec, variant: str) -> int:
    if variant in ("fmi_conv", "fmi_mlp") and spec.cond_T is not None:
        return spec.cond_T
    return spec.T


@dataclass
class State:
    """Everything one workload's operations read: models and inputs."""

    spec: Spec
    seeds: Seeds
    models: dict[str, model.Model]
    text: np.ndarray
    encode: Callable[[], VisualContext]
    visual: VisualContext


def build(spec: Spec, seed: int, variants: tuple[str, ...] = VARIANTS, randomize: bool = True) -> State:
    """Set-up: every model of the workload and its inputs, from the seed."""
    seeds = derive_seeds(spec, seed)
    rng = make_rng(seeds.inputs)
    proj = vision.make_patch_projection(seeds.encoder, spec.patch, 3, spec.C)
    height, width = spec.image_px
    if spec.frames:
        picks = vision.sample_frames(spec.video_len, spec.frames)
        frames = vision.FrameSet(
            [vision.ImageGrid(rng.random((height, width, 3))) for _ in picks], picks
        )
        encode = lambda: vision.video_context(frames, spec.patch, proj)  # noqa: E731
    else:
        image = vision.ImageGrid(rng.random((height, width, 3)))
        encode = lambda: vision.image_context(image, spec.patch, proj)  # noqa: E731
    text = rng.normal(size=(spec.T, spec.C))
    visual = encode()
    models = {}
    for variant in variants:
        m = model.init_model(model_config(spec, variant, seeds.model))
        if randomize:
            model.randomize_modulation(m, make_rng(seeds.modulation))
            model.randomize_insert(m, make_rng(seeds.insert))
        models[variant] = m
    return State(spec, seeds, models, text, encode, visual)


# ---------------------------------------------------------------------------
# Operations

def forward_op(state: State, variant: str) -> Callable[[], np.ndarray]:
    m = state.models[variant]
    text = state.text[: prompt_len(state.spec, variant)]
    visual = None if variant == "base" else state.visual
    return lambda: model.forward(m, text, visual)


def diagnose(m: model.Model, text: np.ndarray, visual: VisualContext):
    """Influence and drift traces with their CSV aggregates, as `featmod diagnose`."""
    influence = diagnostics.modulation_influence(m, text, visual)
    drift = diagnostics.feature_drift(m, model.base_twin(m), text, visual)
    return influence, drift, influence.per_layer, drift.per_layer


# (kind, channels, parameter draw) of criterion 3's conditioner points
_CONDITIONER_POINTS = (
    ("attn", 8, lambda rng: AttnCondParams.init(rng, 8, heads=2, std=0.3)),
    ("conv", 8, lambda rng: ConvCondParams.init(rng, 8, kernel=3, std=0.3)),
    ("mlp", 6, lambda rng: MlpCondParams.init(rng, 6, 3, token_exp=2, channel_exp=2, std=0.3)),
)


def gradcheck_pass(seed: int) -> dict[str, float]:
    """One verification pass in the style of criterion 3, fewer points."""
    rng = make_rng(seed)
    worst = {"viln": max(norm.gradcheck_viln(norm.random_viln_point(rng)) for _ in range(GRADCHECK_POINTS))}
    for kind, channels, draw in _CONDITIONER_POINTS:
        worst[kind] = 0.0
        for _ in range(GRADCHECK_POINTS):
            t = rng.normal(size=(3, channels))
            visual = VisualContext(rng.normal(size=(3, channels)), "synthetic")
            worst[kind] = max(worst[kind], conditioning.gradcheck_conditioner(kind, t, visual, draw(rng)))
    return worst


def opwalk(seed: int) -> list[float]:
    """Relative gap between the analytic cost and the op-walk, per config."""
    gaps = []
    for kwargs in OPWALK_CONFIGS:
        cfg = costs.CostConfig(**kwargs)
        measured = costs.measured_flops(cfg, seed)
        gaps.append(abs(costs.cost_paradigm(cfg).total_flops - measured) / measured)
    return gaps


def operations(state: State) -> dict[str, Callable[[], object]]:
    """Timed operations by metric name, in round-robin order."""
    ops: dict[str, Callable[[], object]] = {"encode_ms": state.encode}
    for variant in VARIANTS:
        ops[f"fwd_{variant}_ms"] = forward_op(state, variant)
    fmi = state.models["fmi_attn"]
    ops["diagnose_ms"] = lambda: diagnose(fmi, state.text, state.visual)
    ops["gradcheck_s"] = lambda: gradcheck_pass(state.seeds.gradcheck)
    ops["opwalk_ms"] = lambda: opwalk(state.seeds.opwalk)
    return ops


def analytic_breakdown(spec: Spec, variant: str) -> dict[str, int]:
    """Cost-model MACs per component for one forward of a variant."""
    paradigm, _, kind = variant.partition("_")
    cfg = costs.CostConfig(
        L=spec.L, C=spec.C, h=spec.h, d_ff=spec.d_ff,
        T=prompt_len(spec, variant), V=spec.visual_tokens,
        paradigm=paradigm, cond_kind=kind or "attn", frequency=spec.frequency,
    )
    return {key: flops // 2 for key, flops in costs.cost_paradigm(cfg).breakdown.items()}


# ---------------------------------------------------------------------------
# Checks

def as_vector(name: str, out) -> np.ndarray | None:
    """The numbers of an output that fingerprints and repeat checks compare."""
    if isinstance(out, np.ndarray):
        return out.ravel()
    if isinstance(out, VisualContext):
        return out.v.ravel()
    if name == "diagnose_ms":
        return np.concatenate([out[0].per_token.ravel(), out[1].per_token.ravel()])
    return None


def fingerprint(vec: np.ndarray) -> list[float]:
    """Four fixed random projections and the RMS: robust to last-bit changes."""
    rng = make_rng(vec.size)
    weights = rng.standard_normal((4, vec.size))
    return [float(x) for x in weights @ vec] + [float(np.sqrt(np.mean(vec * vec)))]


def fingerprint_mismatch(vec: np.ndarray, ref: dict) -> str | None:
    if vec.size != ref["size"]:
        return f"output size {vec.size}, reference {ref['size']}"
    got = fingerprint(vec)
    scale = np.sqrt(vec.size) * ref["fp"][-1]
    for g, r in zip(got, ref["fp"]):
        if not abs(g - r) <= FINGERPRINT_RTOL * (scale + abs(r)):
            return f"fingerprint {g!r} differs from reference {r!r}"
    return None


def check_output(name: str, out) -> str | None:
    """Checks that need no reference: finite values, verification limits."""
    if name == "gradcheck_s":
        bad = {k: v for k, v in out.items() if not v <= GRADCHECK_LIMIT}
        return f"gradient errors above {GRADCHECK_LIMIT}: {bad}" if bad else None
    if name == "opwalk_ms":
        worst = max(out)
        return None if worst <= OPWALK_LIMIT else f"op-walk gap {worst:.3%} above 1%"
    vec = as_vector(name, out)
    if vec is None or vec.size == 0 or not np.all(np.isfinite(vec)):
        return "missing, empty or non-finite output"
    if name == "diagnose_ms" and not np.any(out[0].per_token > 0):
        return "modulation influence is zero: injection weights are not live"
    return None


def check_repeat(first: np.ndarray, vec: np.ndarray) -> str | None:
    if first.shape != vec.shape:
        return f"shape changed between samples: {first.shape} -> {vec.shape}"
    if np.array_equal(first, vec):
        return None
    gap = float(np.max(np.abs(first - vec)))
    limit = REPEAT_RTOL * float(np.max(np.abs(first)))
    return None if gap <= limit else f"output changed between samples by {gap:.3e}"


def zero_init_failures(spec: Spec, seed: int) -> list[str]:
    """A zero-initialised fmi and crossattn twin must equal base bit for bit."""
    state = build(spec, seed, ("base", "fmi_attn", "crossattn"), randomize=False)
    base = model.forward(state.models["base"], state.text)
    failures = []
    for variant in ("fmi_attn", "crossattn"):
        out = model.forward(state.models[variant], state.text, state.visual)
        if not np.array_equal(out, base):
            failures.append(f"zero-init {variant} differs from base by {np.max(np.abs(out - base)):.3e}")
    return failures


def live_failures(state: State, outputs: dict[str, np.ndarray]) -> list[str]:
    """Randomised injection weights must move fmi and crossattn away from base."""
    failures = []
    for variant in ("fmi_attn", "fmi_conv", "fmi_mlp", "crossattn"):
        out = outputs.get(f"fwd_{variant}_ms")
        if out is None:
            continue
        text = state.text[: prompt_len(state.spec, variant)]
        base = outputs["fwd_base_ms"] if len(text) == state.spec.T else model.forward(state.models["base"], text)
        if np.array_equal(out, base):
            failures.append(f"{variant} equals base: the injection path is not live")
    return failures
