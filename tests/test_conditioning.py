from dataclasses import replace

import numpy as np
import pytest

from featmod.conditioning import (
    AttnCondParams,
    ConvCondParams,
    MlpCondParams,
    VisualContext,
    apply_conditioner,
    attn_oracle,
    cond_attn,
    cond_conv,
    cond_conv_pertoken,
    cond_mlp,
    cond_mlp_pertoken,
    _FORWARDS,
    _PARAM_FIELDS,
    default_heads,
    gradcheck_conditioner,
)
from featmod.costs import CostConfig, cost_paradigm, measured_flops
from featmod.model import ModelConfig, cast_model, init_model
from featmod.tensors import ConfigError, make_rng, silu


def random_case(seed, tokens=3, vis=4, channels=8):
    rng = make_rng(seed)
    t = rng.normal(size=(tokens, channels))
    visual = VisualContext(rng.normal(size=(vis, channels)), "synthetic")
    return rng, t, visual


class TestMlpConditioner:
    def test_zero_final_weights_zero_output(self):
        rng, t, visual = random_case(0)
        p = MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3)
        p.token_w2[:] = 0.0
        p.channel_w2[:] = 0.0
        assert np.array_equal(cond_mlp(t, visual, p), np.zeros_like(t))

    def test_batched_equals_loop(self):
        rng, t, visual = random_case(1, tokens=2, vis=3, channels=4)
        p = MlpCondParams.init(rng, 4, 3, 2, 2, std=0.3)
        diff = np.abs(cond_mlp(t, visual, p) - cond_mlp_pertoken(t, visual, p))
        assert np.max(diff) < 1e-12

    def test_token_permutation_equivariance(self):
        rng, t, visual = random_case(2, tokens=5)
        p = MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3)
        perm = np.array([3, 1, 4, 0, 2])
        assert np.allclose(cond_mlp(t[perm], visual, p), cond_mlp(t, visual, p)[perm])

    def test_visual_count_mismatch_rejected(self):
        rng, t, visual = random_case(3, vis=4)
        p = MlpCondParams.init(rng, 8, 5, 2, 2)
        with pytest.raises(ConfigError):
            cond_mlp(t, visual, p)


class TestConvConditioner:
    def test_delta_kernel_identity_pipeline(self):
        rng, t, visual = random_case(4)
        p = ConvCondParams(
            depthwise=np.tile(np.array([0.0, 1.0, 0.0]), (8, 1)),
            pointwise=np.eye(8),
        )
        assert np.allclose(cond_conv(t, visual, p), silu(t), atol=1e-12)

    def test_zero_pointwise_zero_output(self):
        rng, t, visual = random_case(5)
        p = ConvCondParams.init(rng, 8, 3, std=0.3)
        p.pointwise[:] = 0.0
        assert np.array_equal(cond_conv(t, visual, p), np.zeros_like(t))

    def test_batched_equals_loop(self):
        for seed in range(3):
            rng, t, visual = random_case(10 + seed, tokens=3, vis=5, channels=6)
            p = ConvCondParams.init(rng, 6, 5, std=0.3)
            diff = np.abs(cond_conv(t, visual, p) - cond_conv_pertoken(t, visual, p))
            assert np.max(diff) < 1e-12

    def test_matches_loop_when_kernel_reaches_past_visual_tokens(self):
        # K=5 reaches two positions beyond slot 0, but V=1 has only one
        rng, t, visual = random_case(19, tokens=3, vis=1, channels=6)
        p = ConvCondParams.init(rng, 6, 5, std=0.3)
        assert np.max(np.abs(cond_conv(t, visual, p) - cond_conv_pertoken(t, visual, p))) < 1e-12
        assert gradcheck_conditioner("conv", t, visual, p) <= 1e-4

    def test_matches_loop_for_single_text_token(self):
        rng, t, visual = random_case(20, tokens=1, vis=5, channels=6)
        p = ConvCondParams.init(rng, 6, 5, std=0.3)
        assert np.max(np.abs(cond_conv(t, visual, p) - cond_conv_pertoken(t, visual, p))) < 1e-12

    def test_even_kernel_rejected(self):
        rng = make_rng(6)
        with pytest.raises(ConfigError):
            ConvCondParams(depthwise=rng.normal(size=(4, 2)), pointwise=np.eye(4))


class TestAttnConditioner:
    def test_single_visual_token_is_value_path(self):
        rng, t, _ = random_case(7, tokens=4)
        visual = VisualContext(make_rng(70).normal(size=(1, 8)), "synthetic")
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        expected = np.tile((visual.v @ p.w_v) @ p.w_o, (4, 1))
        assert np.allclose(cond_attn(t, visual, p), expected, atol=1e-12)

    def test_duplicate_visual_tokens_match_single(self):
        rng, t, _ = random_case(8, tokens=3)
        token = make_rng(80).normal(size=(1, 8))
        single = VisualContext(token, "synthetic")
        double = VisualContext(np.vstack([token, token]), "synthetic")
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        assert np.allclose(cond_attn(t, double, p), cond_attn(t, single, p), atol=1e-12)

    def test_matches_oracle(self):
        rng = make_rng(9)
        for _ in range(50):
            tokens = int(rng.integers(1, 5))
            vis = int(rng.integers(1, 9))
            heads = int(rng.choice([1, 2, 4]))
            channels = int(heads * rng.integers(1, 17 // heads))
            t = rng.normal(size=(tokens, channels))
            visual = VisualContext(rng.normal(size=(vis, channels)), "synthetic")
            p = AttnCondParams.init(rng, channels, heads=heads, std=0.4)
            diff = np.abs(cond_attn(t, visual, p) - attn_oracle(t, visual, p))
            assert np.max(diff) < 1e-10

    def test_zero_query_weights_give_mean_value_path(self):
        rng, t, visual = random_case(10, vis=5)
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        p.w_q[:] = 0.0
        expected = np.tile(visual.v.mean(axis=0) @ p.w_v @ p.w_o, (t.shape[0], 1))
        assert np.allclose(attn_oracle(t, visual, p), expected, atol=1e-12)
        assert np.allclose(cond_attn(t, visual, p), expected, atol=1e-12)

    def test_visual_permutation_invariance(self):
        rng, t, visual = random_case(11, vis=6)
        p = AttnCondParams.init(rng, 8, heads=4, std=0.3)
        perm = np.array([5, 2, 0, 4, 1, 3])
        permuted = VisualContext(visual.v[perm], "synthetic")
        assert np.allclose(cond_attn(t, permuted, p), cond_attn(t, visual, p), atol=1e-12)

    def test_heads_must_divide_channels(self):
        rng = make_rng(12)
        with pytest.raises(ConfigError):
            AttnCondParams.init(rng, 6, heads=4)


class TestSharedContracts:
    def test_output_shape_matches_input(self):
        rng, t, visual = random_case(13, tokens=4)
        cases = {
            "mlp": MlpCondParams.init(rng, 8, 4, 2, 2),
            "conv": ConvCondParams.init(rng, 8, 3),
            "attn": AttnCondParams.init(rng, 8, heads=2),
        }
        for kind, params in cases.items():
            assert apply_conditioner(kind, t, visual, params).shape == t.shape

    def test_per_token_independence(self):
        rng, t, visual = random_case(14, tokens=6)
        cases = {
            "mlp": MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3),
            "conv": ConvCondParams.init(rng, 8, 3, std=0.3),
            "attn": AttnCondParams.init(rng, 8, heads=2, std=0.3),
        }
        perm = np.array([4, 0, 5, 2, 1, 3])
        for kind, params in cases.items():
            full = apply_conditioner(kind, t, visual, params)
            shuffled = apply_conditioner(kind, t[perm], visual, params)
            assert np.allclose(shuffled, full[perm], atol=1e-12)

    @pytest.mark.parametrize("kind", ["mlp", "conv"])
    def test_float32_model_keeps_dtype(self, kind):
        cfg = ModelConfig(L=2, C=8, h=2, d_ff=16, paradigm="fmi", cond_kind=kind,
                          frequency=0.5, cond_visual_tokens=4 if kind == "mlp" else None)
        model = init_model(cfg)
        params = next(b.cond_params for b in model.blocks if b.cond_params is not None)
        params32 = next(b.cond_params for b in cast_model(model, np.float32).blocks
                        if b.cond_params is not None)
        _, t, visual = random_case(22, tokens=3, vis=4, channels=8)
        visual32 = VisualContext(visual.v.astype(np.float32), "synthetic")
        out32 = apply_conditioner(kind, t.astype(np.float32), visual32, params32)
        assert out32.dtype == np.float32
        ref = apply_conditioner(kind, t, visual, params)
        assert np.max(np.abs(out32 - ref)) <= 1e-5 * np.max(np.abs(ref))

    @pytest.mark.parametrize("cfg", [
        CostConfig(L=3, C=12, h=3, d_ff=24, T=4, V=2, k=2, paradigm="fmi",
                   cond_kind="mlp", frequency=0.34, cond_token_exp=2, cond_channel_exp=2),
        CostConfig(L=4, C=8, h=2, d_ff=32, T=6, V=5, paradigm="fmi",
                   cond_kind="conv", frequency=0.25, cond_kernel=5),
    ], ids=["mlp", "conv"])
    def test_cost_model_counts_exactly_what_runs(self, cfg):
        assert cost_paradigm(cfg).total_flops == measured_flops(cfg)

    def test_unknown_kind_rejected(self):
        rng, t, visual = random_case(15)
        with pytest.raises(ConfigError):
            apply_conditioner("rnn", t, visual, None)

    def test_default_heads_rule(self):
        assert default_heads(64) == 8
        assert default_heads(32) == 1


class TestBatchedForwards:
    """The forwards broadcast over a leading axis on any one operand, which
    is what the finite-difference check feeds them."""

    CASES = {
        "mlp": lambda rng: MlpCondParams.init(rng, 6, 4, 2, 2, std=0.3),
        "conv": lambda rng: ConvCondParams.init(rng, 6, kernel=5, std=0.3),
        "attn": lambda rng: AttnCondParams.init(rng, 6, heads=2, std=0.3),
    }

    @pytest.mark.parametrize("kind, operand", [
        (kind, operand) for kind in ("mlp", "conv", "attn") for operand in ("t", "v", *_PARAM_FIELDS[kind])
    ])
    def test_stacked_operand_equals_slices(self, kind, operand):
        rng, t, visual = random_case(40, tokens=3, vis=4, channels=6)
        p = self.CASES[kind](rng)
        operands = {"t": t, "v": visual.v}
        base = operands[operand] if operand in operands else getattr(p, operand)
        stack = base + rng.normal(scale=0.1, size=(3,) + base.shape)

        def run(value):
            args = dict(operands)
            params = p
            if operand in args:
                args[operand] = value
            else:
                params = replace(p, **{operand: value})
            return _FORWARDS[kind](args["t"], args["v"], params)[0]

        batched = run(stack)
        assert batched.shape == (3,) + t.shape
        for i in range(3):
            assert np.max(np.abs(batched[i] - run(stack[i]))) <= 1e-12


class TestGradchecks:
    def test_attn(self):
        rng, t, visual = random_case(16)
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        assert gradcheck_conditioner("attn", t, visual, p) <= 1e-4

    def test_conv(self):
        rng, t, visual = random_case(17)
        p = ConvCondParams.init(rng, 8, 3, std=0.3)
        assert gradcheck_conditioner("conv", t, visual, p) <= 1e-4

    def test_mlp(self):
        rng, t, visual = random_case(18)
        p = MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3)
        assert gradcheck_conditioner("mlp", t, visual, p) <= 1e-4
