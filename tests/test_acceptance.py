"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass line with its measured runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.
"""

import time
from dataclasses import replace

import numpy as np

from featmod.cli import main as cli_main
from featmod.conditioning import (
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
from featmod.costs import (
    FLOPS_RATIO_CASES,
    VIDEO_SWEEP_BASE,
    CostConfig,
    cost_paradigm,
    flops_reduction_ratio,
    measured_flops,
    sweep_frames,
)
from featmod.diagnostics import feature_drift, modulation_influence
from featmod.model import (
    ModelConfig,
    base_twin,
    cast_model,
    forward,
    init_model,
    select_layers,
)
from featmod.norm import LNParams, gradcheck_viln, layer_norm, random_viln_point
from featmod.tensors import make_rng
from featmod.vision import (
    encode_stub,
    gradient_image,
    make_patch_projection,
    pool_adaptive_2x2,
    sample_frames,
    tile_image,
)


class _Clock:
    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def done(self, criterion, detail):
        elapsed = time.perf_counter() - self.start
        print(f"PASS criterion {criterion} ({elapsed:.2f}s): {detail}")
        assert elapsed < self.limit_s, f"criterion {criterion} exceeded {self.limit_s}s"


def test_criterion_01_zero_init_equivalence():
    clock = _Clock(1.0)
    cfg = ModelConfig(L=6, C=64, h=8, d_ff=256, paradigm="fmi", frequency=0.25, seed=101)
    model = init_model(cfg)
    base = base_twin(model)
    rng = make_rng(102)
    t_emb = rng.normal(size=(16, cfg.C))
    visual = VisualContext(rng.normal(size=(8, cfg.C)), "synthetic")
    double_diff = float(np.max(np.abs(forward(model, t_emb, visual) - forward(base, t_emb))))
    assert double_diff == 0.0

    m32 = cast_model(model, np.float32)
    b32 = cast_model(base, np.float32)
    single_diff = float(np.max(np.abs(
        forward(m32, t_emb.astype(np.float32), VisualContext(visual.v.astype(np.float32), "synthetic"))
        - forward(b32, t_emb.astype(np.float32))
    )))
    assert single_diff <= 1e-6
    clock.done(1, f"double diff {double_diff}, single diff {single_diff:.2e}")


def test_criterion_02_layer_norm_contract():
    clock = _Clock(1.0)
    rng = make_rng(103)
    x = rng.normal(size=(1000, 24))
    params = LNParams(np.ones(24), np.zeros(24), eps=1e-300)  # below double resolution: eps = 0
    _, xhat = layer_norm(x, params)
    mean_err = float(np.max(np.abs(xhat.mean(axis=1))))
    std_err = float(np.max(np.abs(xhat.std(axis=1) - 1.0)))
    assert mean_err <= 1e-10
    assert std_err <= 1e-8
    base_out, _ = layer_norm(x, params)
    for c in (1e-4, 0.3, 2.0, 1e5):
        scaled_out, _ = layer_norm(c * x, params)
        assert float(np.max(np.abs(scaled_out - base_out))) <= 1e-10
    clock.done(2, f"mean err {mean_err:.2e}, std err {std_err:.2e}, scale invariant")


def test_criterion_03_gradient_verification():
    clock = _Clock(30.0)
    rng = make_rng(104)
    worst = {"viln": 0.0, "attn": 0.0, "conv": 0.0, "mlp": 0.0}
    for _ in range(100):
        worst["viln"] = max(worst["viln"], gradcheck_viln(random_viln_point(rng)))
    for _ in range(100):
        t = rng.normal(size=(3, 8))
        visual = VisualContext(rng.normal(size=(3, 8)), "synthetic")
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        worst["attn"] = max(worst["attn"], gradcheck_conditioner("attn", t, visual, p))
    for _ in range(100):
        t = rng.normal(size=(3, 8))
        visual = VisualContext(rng.normal(size=(3, 8)), "synthetic")
        p = ConvCondParams.init(rng, 8, kernel=3, std=0.3)
        worst["conv"] = max(worst["conv"], gradcheck_conditioner("conv", t, visual, p))
    for _ in range(100):
        t = rng.normal(size=(3, 6))
        visual = VisualContext(rng.normal(size=(3, 6)), "synthetic")
        p = MlpCondParams.init(rng, 6, 3, token_exp=2, channel_exp=2, std=0.3)
        worst["mlp"] = max(worst["mlp"], gradcheck_conditioner("mlp", t, visual, p))
    assert all(err <= 1e-4 for err in worst.values()), worst
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    clock.done(3, f"max rel errors: {detail}")


def test_criterion_04_attention_oracle():
    clock = _Clock(5.0)
    rng = make_rng(105)
    worst = 0.0
    for _ in range(50):
        heads = int(rng.choice([1, 2, 4]))
        channels = heads * int(rng.integers(1, 16 // heads + 1))
        t = rng.normal(size=(int(rng.integers(1, 5)), channels))
        visual = VisualContext(rng.normal(size=(int(rng.integers(1, 9)), channels)), "synthetic")
        p = AttnCondParams.init(rng, channels, heads=heads, std=0.4)
        worst = max(worst, float(np.max(np.abs(cond_attn(t, visual, p) - attn_oracle(t, visual, p)))))
    assert worst <= 1e-10
    clock.done(4, f"50 cases, max abs err {worst:.2e}")


def test_criterion_05_conditioner_loop_equivalence():
    clock = _Clock(5.0)
    rng = make_rng(106)
    worst_mlp = worst_conv = 0.0
    for _ in range(20):
        channels = int(rng.integers(2, 9))
        vis = int(rng.integers(1, 7))
        t = rng.normal(size=(int(rng.integers(1, 5)), channels))
        visual = VisualContext(rng.normal(size=(vis, channels)), "synthetic")
        pm = MlpCondParams.init(rng, channels, vis, token_exp=2, channel_exp=2, std=0.4)
        worst_mlp = max(worst_mlp, float(np.max(np.abs(
            cond_mlp(t, visual, pm) - cond_mlp_pertoken(t, visual, pm)
        ))))
    for _ in range(20):
        channels = int(rng.integers(2, 9))
        vis = int(rng.integers(1, 7))
        t = rng.normal(size=(int(rng.integers(1, 5)), channels))
        visual = VisualContext(rng.normal(size=(vis, channels)), "synthetic")
        pc = ConvCondParams.init(rng, channels, kernel=int(rng.choice([1, 3, 5])), std=0.4)
        worst_conv = max(worst_conv, float(np.max(np.abs(
            cond_conv(t, visual, pc) - cond_conv_pertoken(t, visual, pc)
        ))))
    assert worst_mlp <= 1e-12 and worst_conv <= 1e-12
    clock.done(5, f"mlp {worst_mlp:.2e}, conv {worst_conv:.2e}")


def test_criterion_06_layer_selection():
    clock = _Clock(1.0)
    assert select_layers(32, 0.25, "uniform").modulated == (0, 4, 8, 12, 16, 20, 24, 28)
    for location in ("shallow", "middle", "deep", "uniform"):
        assert select_layers(8, 1.0, location).modulated == tuple(range(8))
    assert select_layers(8, 0.25, "deep").modulated == (6, 7)
    clock.done(6, "uniform/full/deep index sets exact")


def test_criterion_07_cost_model_oracle():
    clock = _Clock(10.0)
    tiny = {
        "fmi": [
            CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="fmi", frequency=0.5),
            CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="fmi",
                       cond_kind="mlp", frequency=0.34, cond_token_exp=2, cond_channel_exp=2),
            CostConfig(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="fmi",
                       cond_kind="conv", frequency=0.25, cond_kernel=5),
        ],
        "incontext": [
            CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="incontext"),
            CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=3, paradigm="incontext"),
            CostConfig(L=1, C=16, h=4, d_ff=64, T=9, V=7, paradigm="incontext"),
        ],
        "crossattn": [
            CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, paradigm="crossattn", frequency=0.5),
            CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="crossattn", frequency=1.0),
            CostConfig(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="crossattn", frequency=0.25),
        ],
    }
    worst = 0.0
    for configs in tiny.values():
        for cfg in configs:
            analytic = cost_paradigm(cfg).total_flops
            measured = measured_flops(cfg)
            worst = max(worst, abs(analytic - measured) / measured)
    assert worst <= 0.01
    clock.done(7, f"9 configs, worst oracle gap {worst:.2%}")


def test_criterion_08_reference_flops_ratios():
    clock = _Clock(1.0)
    ratios = {}
    for case in FLOPS_RATIO_CASES:
        ratio = flops_reduction_ratio(case)
        assert abs(ratio - case.target_ratio) <= 0.3 * case.target_ratio, (case.name, ratio)
        ratios[case.name] = ratio
    # a 16.8x ratio is equivalently a ~94% reduction; check the reciprocal form
    reduction = 1.0 - 1.0 / ratios["qwen2-7b-384px-5tile"]
    assert reduction >= 0.90
    detail = ", ".join(f"{name} {ratio:.1f}x" for name, ratio in ratios.items())
    clock.done(8, f"{detail}; reduction form {reduction:.1%}")


def test_criterion_09_video_scaling():
    clock = _Clock(1.0)
    ks = [8, 16, 32, 64, 128]
    fmi = sweep_frames(replace(VIDEO_SWEEP_BASE, paradigm="fmi"), ks)
    ctx = sweep_frames(replace(VIDEO_SWEEP_BASE, paradigm="incontext"), ks)
    flops_saving = 1.0 - fmi[-1].total_flops / ctx[-1].total_flops
    mem_saving = 1.0 - fmi[-1].memory_total_bytes / ctx[-1].memory_total_bytes
    assert flops_saving >= 0.85
    assert mem_saving >= 0.50
    assert len({r.kv_cache_bytes for r in fmi}) == 1
    intercept = 2 * VIDEO_SWEEP_BASE.L * VIDEO_SWEEP_BASE.T * VIDEO_SWEEP_BASE.C * VIDEO_SWEEP_BASE.bytes_per_elem
    slopes = {(r.kv_cache_bytes - intercept) / k for r, k in zip(ctx, ks)}
    assert len(slopes) == 1
    clock.done(9, f"k=128 flops saving {flops_saving:.1%}, memory saving {mem_saving:.1%}, kv flat/linear")


def test_criterion_10_diagnostics_soundness():
    clock = _Clock(5.0)
    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=107)
    model = init_model(cfg)
    rng = make_rng(108)
    t_emb = rng.normal(size=(8, cfg.C))
    visual = VisualContext(rng.normal(size=(6, cfg.C)), "synthetic")
    influence = modulation_influence(model, t_emb, visual)
    assert np.array_equal(influence.per_token, np.zeros_like(influence.per_token))
    for stats, row in zip(influence.per_layer, influence.per_token):
        assert stats.mean == float(row.mean())
        assert stats.min == float(row.min())
        assert stats.max == float(row.max())
    base = base_twin(model)
    drift = feature_drift(base, base_twin(base), t_emb, None)
    assert np.array_equal(drift.per_token, np.zeros_like(drift.per_token))
    clock.done(10, "zero-init influence zero, aggregates exact, base drift zero")


def test_criterion_11_vision_front_contracts():
    clock = _Clock(1.0)
    img = gradient_image(50, 70, 2)
    tile = 16
    tiles = tile_image(img, tile)
    cols = -(-70 // tile)
    rebuilt = np.zeros((-(-50 // tile) * tile, cols * tile, 2))
    for idx, t in enumerate(tiles):
        r, c = divmod(idx, cols)
        rebuilt[r * tile:(r + 1) * tile, c * tile:(c + 1) * tile] = t.data
    assert np.array_equal(rebuilt[:50, :70], img.data)

    grid = (np.arange(16, dtype=np.float64) + 1).reshape(4, 4, 1)
    assert np.array_equal(pool_adaptive_2x2(grid)[:, :, 0], np.array([[3.5, 5.5], [11.5, 13.5]]))

    assert sample_frames(100, 4) == [0, 33, 66, 99]

    proj = make_patch_projection(109, 14, 3, 32)
    tokens = encode_stub(gradient_image(336, 336), 14, proj)
    assert tokens.shape[0] == 576
    clock.done(11, "tiling lossless, pooling exact, frame picks exact, 576 tokens at 336px/14")


def test_criterion_12_selftest_determinism(tmp_path):
    clock = _Clock(60.0)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["selftest", "--out", str(out_a), "--seed", "0"]) == 0
    assert cli_main(["selftest", "--out", str(out_b), "--seed", "0"]) == 0
    for name in ("cost.csv", "influence.csv", "drift.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    clock.done(12, "two selftest runs, byte-identical CSV artifacts")
