"""Release criteria: one table of named checks.

`CRITERIA` lists the eleven release gates in order. Each entry's `run(seed)`
returns `(ok, detail)`. The acceptance suite runs every entry at its own
seed and holds it to its time budget; `featmod selftest --seed s` runs every
entry at `entry.seed + s`, so `--seed 0` runs exactly the release gates.

Verdicts are plain booleans, never `assert`: `python -O` strips asserts, and
a check that cannot fail checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import costs
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
from .diagnostics import diagnose
from .model import LOCATIONS, ModelConfig, base_twin, cast_model, forward, init_model, select_layers
from .norm import LNParams, gradcheck_viln, layer_norm, random_viln_point
from .tensors import make_rng
from .vision import (
    encode_stub,
    gradient_image,
    make_patch_projection,
    pool_adaptive_2x2,
    sample_frames,
    tile_image,
)

# Tolerances; tests/test_acceptance.py pins every value.
ZERO_INIT_FLOAT64_TOL = 0.0  # exact: zero-init deltas must not move a single bit
ZERO_INIT_FLOAT32_TOL = 1e-6
NORM_MEAN_TOL = 1e-10
NORM_STD_TOL = 1e-8
NORM_SCALE_TOL = 1e-10
GRADCHECK_TOL = 1e-4  # also the verdict of `featmod gradcheck`
ATTN_ORACLE_TOL = 1e-10
LOOP_ORACLE_TOL = 1e-12
COST_ORACLE_TOL = 0.01
RATIO_REL_TOL = 0.3
MIN_FLOPS_REDUCTION = 0.90
MIN_VIDEO_FLOPS_SAVING = 0.85
MIN_VIDEO_MEMORY_SAVING = 0.50


@dataclass(frozen=True)
class Criterion:
    """One release gate: its name, release seed, time budget and check."""

    name: str
    seed: int
    budget_s: float
    run: Callable[[int], tuple[bool, str]]


def zero_init_gap(cfg: ModelConfig, tokens: int, visual_tokens: int, dtype) -> float:
    """Max abs difference between a fresh model of cfg and its base twin, both
    run in dtype on text and visual tokens drawn from seed cfg.seed + 1."""
    model = init_model(cfg)
    base = base_twin(model)
    rng = make_rng(cfg.seed + 1)
    t_emb = rng.normal(size=(tokens, cfg.C)).astype(dtype)
    visual = VisualContext(rng.normal(size=(visual_tokens, cfg.C)).astype(dtype), "synthetic")
    out = forward(cast_model(model, dtype), t_emb, visual)
    return float(np.max(np.abs(out - forward(cast_model(base, dtype), t_emb))))


def zero_init_equivalence(seed: int) -> tuple[bool, str]:
    cfg = ModelConfig(L=6, C=64, h=8, d_ff=256, paradigm="fmi", frequency=0.25, seed=seed)
    double_diff = zero_init_gap(cfg, 16, 8, np.float64)
    single_diff = zero_init_gap(cfg, 16, 8, np.float32)
    ok = double_diff <= ZERO_INIT_FLOAT64_TOL and single_diff <= ZERO_INIT_FLOAT32_TOL
    return ok, f"double diff {double_diff}, single diff {single_diff:.2e}"


def norm_contract(seed: int) -> tuple[bool, str]:
    rng = make_rng(seed)
    x = rng.normal(size=(1000, 24))
    params = LNParams(np.ones(24), np.zeros(24), eps=1e-300)  # below double resolution: eps = 0
    base_out, xhat = layer_norm(x, params)
    mean_err = float(np.max(np.abs(xhat.mean(axis=1))))
    std_err = float(np.max(np.abs(xhat.std(axis=1) - 1.0)))
    scale_err = max(
        float(np.max(np.abs(layer_norm(c * x, params)[0] - base_out))) for c in (1e-4, 0.3, 2.0, 1e5)
    )
    ok = mean_err <= NORM_MEAN_TOL and std_err <= NORM_STD_TOL and scale_err <= NORM_SCALE_TOL
    return ok, f"mean err {mean_err:.2e}, std err {std_err:.2e}, scale err {scale_err:.2e}"


def gradient_errors(seed: int, points: int) -> dict[str, float]:
    """Worst relative gradient error of each path (viln, then each conditioner)
    over `points` random points, all drawn from one generator seeded `seed`."""
    rng = make_rng(seed)
    worst = {"viln": max(gradcheck_viln(random_viln_point(rng)) for _ in range(points))}
    conditioners = (
        ("attn", 8, lambda c: AttnCondParams.init(rng, c, heads=2, std=0.3)),
        ("conv", 8, lambda c: ConvCondParams.init(rng, c, kernel=3, std=0.3)),
        ("mlp", 6, lambda c: MlpCondParams.init(rng, c, 3, token_exp=2, channel_exp=2, std=0.3)),
    )
    for kind, channels, init in conditioners:
        worst[kind] = 0.0
        for _ in range(points):
            t = rng.normal(size=(3, channels))
            visual = VisualContext(rng.normal(size=(3, channels)), "synthetic")
            worst[kind] = max(worst[kind], gradcheck_conditioner(kind, t, visual, init(channels)))
    return worst


def gradcheck(seed: int) -> tuple[bool, str]:
    worst = gradient_errors(seed, 100)
    ok = all(err <= GRADCHECK_TOL for err in worst.values())
    return ok, "max rel errors: " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())


def attention_oracle(seed: int) -> tuple[bool, str]:
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(50):
        heads = int(rng.choice([1, 2, 4]))
        channels = heads * int(rng.integers(1, 16 // heads + 1))
        t = rng.normal(size=(int(rng.integers(1, 5)), channels))
        v = rng.normal(size=(int(rng.integers(1, 9)), channels))
        p = AttnCondParams.init(rng, channels, heads=heads, std=0.4)
        worst = max(worst, float(np.max(np.abs(cond_attn(t, v, p) - attn_oracle(t, v, p)))))
    return worst <= ATTN_ORACLE_TOL, f"50 cases, max abs err {worst:.2e}"


def conditioner_loop_equivalence(seed: int) -> tuple[bool, str]:
    rng = make_rng(seed)
    mixers = (
        ("mlp", cond_mlp, cond_mlp_pertoken,
         lambda c, vis: MlpCondParams.init(rng, c, vis, token_exp=2, channel_exp=2, std=0.4)),
        ("conv", cond_conv, cond_conv_pertoken,
         lambda c, vis: ConvCondParams.init(rng, c, kernel=int(rng.choice([1, 3, 5])), std=0.4)),
    )
    worst = {}
    for kind, batched, pertoken, init in mixers:
        worst[kind] = 0.0
        for _ in range(20):
            channels = int(rng.integers(2, 9))
            vis = int(rng.integers(1, 7))
            t = rng.normal(size=(int(rng.integers(1, 5)), channels))
            v = rng.normal(size=(vis, channels))
            p = init(channels, vis)
            worst[kind] = max(worst[kind], float(np.max(np.abs(batched(t, v, p) - pertoken(t, v, p)))))
    ok = all(err <= LOOP_ORACLE_TOL for err in worst.values())
    return ok, ", ".join(f"{k} {v:.2e}" for k, v in worst.items())


def layer_selection(_seed: int) -> tuple[bool, str]:
    uniform = select_layers(32, 0.25, "uniform")
    deep = select_layers(8, 0.25, "deep")
    ok = (
        uniform == (0, 4, 8, 12, 16, 20, 24, 28)
        and all(
            select_layers(8, 1.0, location) == tuple(range(8))
            for location in LOCATIONS
        )
        and deep == (6, 7)
    )
    return ok, f"uniform 32@0.25 {uniform}, deep 8@0.25 {deep}, full sets"


# The op-walk configs of criterion 7: every paradigm and conditioner kind, one tile each.
ORACLE_CONFIGS = (
    costs.CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="fmi", frequency=0.5),
    costs.CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="fmi",
                     cond_kind="mlp", frequency=0.34, cond_token_exp=2, cond_channel_exp=2),
    costs.CostConfig(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="fmi",
                     cond_kind="conv", frequency=0.25, cond_kernel=5),
    costs.CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="incontext"),
    costs.CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=3, paradigm="incontext"),
    costs.CostConfig(L=1, C=16, h=4, d_ff=64, T=9, V=7, paradigm="incontext"),
    costs.CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="crossattn", frequency=0.5),
    costs.CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="crossattn", frequency=1.0),
    costs.CostConfig(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="crossattn", frequency=0.25),
)


def cost_oracle(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for cfg in ORACLE_CONFIGS:
        analytic = costs.cost_paradigm(cfg).total_flops
        measured = costs.measured_flops(cfg, seed=seed)
        worst = max(worst, abs(analytic - measured) / measured)
    return worst <= COST_ORACLE_TOL, f"{len(ORACLE_CONFIGS)} configs, worst oracle gap {worst:.2%}"


def reference_flops_ratios(_seed: int) -> tuple[bool, str]:
    ratios = {case.name: costs.flops_reduction_ratio(case) for case in costs.FLOPS_RATIO_CASES}
    # a 16.8x ratio is equivalently a ~94% reduction; check the reciprocal form
    reduction = 1.0 - 1.0 / ratios["qwen2-7b-384px-5tile"]
    ok = (
        all(
            abs(ratios[case.name] - case.target_ratio) <= RATIO_REL_TOL * case.target_ratio
            for case in costs.FLOPS_RATIO_CASES
        )
        and reduction >= MIN_FLOPS_REDUCTION
    )
    detail = ", ".join(f"{name} {ratio:.1f}x" for name, ratio in ratios.items())
    return ok, f"{detail}; reduction form {reduction:.1%}"


def video_scaling(_seed: int) -> tuple[bool, str]:
    base = costs.VIDEO_SWEEP_BASE
    ks = costs.SWEEP_FRAMES
    fmi = costs.sweep_frames(replace(base, paradigm="fmi"), ks)
    ctx = costs.sweep_frames(replace(base, paradigm="incontext"), ks)
    flops_saving = 1.0 - fmi[-1].total_flops / ctx[-1].total_flops
    mem_saving = 1.0 - fmi[-1].memory_total_bytes / ctx[-1].memory_total_bytes
    kv_flat = len({r.kv_cache_bytes for r in fmi}) == 1
    intercept = 2 * base.L * base.T * base.C * base.bytes_per_elem
    kv_linear = len({(r.kv_cache_bytes - intercept) / k for r, k in zip(ctx, ks)}) == 1
    ok = (
        flops_saving >= MIN_VIDEO_FLOPS_SAVING
        and mem_saving >= MIN_VIDEO_MEMORY_SAVING
        and kv_flat
        and kv_linear
    )
    return ok, (
        f"k=128 flops saving {flops_saving:.1%}, memory saving {mem_saving:.1%}, "
        f"fmi kv flat {kv_flat}, incontext kv linear {kv_linear}"
    )


def diagnostics_soundness(seed: int) -> tuple[bool, str]:
    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=seed)
    model = init_model(cfg)
    rng = make_rng(seed + 1)
    t_emb = rng.normal(size=(8, cfg.C))
    visual = VisualContext(rng.normal(size=(6, cfg.C)), "synthetic")
    influence, drift = diagnose(model, t_emb, visual)
    influence_zero = np.array_equal(influence.per_token, np.zeros_like(influence.per_token))
    aggregates_exact = all(
        stats.mean == float(row.mean()) and stats.min == float(row.min()) and stats.max == float(row.max())
        for stats, row in zip(influence.per_layer, influence.per_token)
    )
    drift_zero = np.array_equal(drift.per_token, np.zeros_like(drift.per_token))
    ok = influence_zero and aggregates_exact and drift_zero
    return ok, (
        f"zero-init influence zero {influence_zero}, aggregates exact {aggregates_exact}, "
        f"drift from the base twin zero {drift_zero}"
    )


def vision_contracts(seed: int) -> tuple[bool, str]:
    img = gradient_image(50, 70, 2)
    tile = 16
    tiles = tile_image(img, tile)
    cols = -(-70 // tile)
    rebuilt = np.zeros((-(-50 // tile) * tile, cols * tile, 2))
    for idx, t in enumerate(tiles):
        r, c = divmod(idx, cols)
        rebuilt[r * tile:(r + 1) * tile, c * tile:(c + 1) * tile] = t.data
    lossless = np.array_equal(rebuilt[:50, :70], img.data)

    grid = (np.arange(16, dtype=np.float64) + 1).reshape(4, 4, 1)
    pooled = np.array_equal(pool_adaptive_2x2(grid)[:, :, 0], np.array([[3.5, 5.5], [11.5, 13.5]]))
    picks = sample_frames(100, 4)

    proj = make_patch_projection(seed, 14, 3, 32)
    n_tokens = encode_stub(gradient_image(336, 336), 14, proj).shape[0]
    ok = lossless and pooled and picks == [0, 33, 66, 99] and n_tokens == 576
    return ok, (
        f"tiling lossless {lossless}, pooling exact {pooled}, frame picks {picks}, "
        f"{n_tokens} tokens at 336px/14"
    )


CRITERIA: tuple[Criterion, ...] = (
    Criterion("zero_init_equivalence", 101, 1.0, zero_init_equivalence),
    Criterion("norm_contract", 103, 1.0, norm_contract),
    Criterion("gradcheck", 104, 30.0, gradcheck),
    Criterion("attention_oracle", 105, 5.0, attention_oracle),
    Criterion("conditioner_loop_equivalence", 106, 5.0, conditioner_loop_equivalence),
    Criterion("layer_selection", 0, 1.0, layer_selection),
    Criterion("cost_oracle", 0, 10.0, cost_oracle),
    Criterion("reference_flops_ratios", 0, 1.0, reference_flops_ratios),
    Criterion("video_scaling", 0, 1.0, video_scaling),
    Criterion("diagnostics_soundness", 107, 5.0, diagnostics_soundness),
    Criterion("vision_contracts", 109, 1.0, vision_contracts),
)
