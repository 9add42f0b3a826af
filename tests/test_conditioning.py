import itertools
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from featmod import conditioning, tensors
from featmod.conditioning import (
    COND_KINDS,
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
    _mix_tiles,
    default_heads,
    gradcheck_conditioner,
    param_arrays,
)
from featmod.model import ModelConfig, cast_model, init_model
from featmod.tensors import (
    ConfigError, NumericError, ShapeError, checks_at_boundaries, count_macs, make_rng, swish,
)


def random_case(seed, tokens=3, vis=4, channels=8):
    rng = make_rng(seed)
    t = rng.normal(size=(tokens, channels))
    visual = VisualContext(rng.normal(size=(vis, channels)), "synthetic")
    return rng, t, visual


# Parameter draws of the stacked-operand checks, and each kind's array fields.
DRAWS = {
    "mlp": lambda rng: MlpCondParams.init(rng, 6, 4, 2, 2, std=0.3),
    "conv": lambda rng: ConvCondParams.init(rng, 6, kernel=5, std=0.3),
    "attn": lambda rng: AttnCondParams.init(rng, 6, heads=2, std=0.3),
}
FIELDS = {kind: [name for name, _ in param_arrays(draw(make_rng(0)))] for kind, draw in DRAWS.items()}


class TestMlpConditioner:
    def test_zero_final_weights_zero_output(self):
        rng, t, visual = random_case(0)
        p = MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3)
        p.token_w2[:] = 0.0
        p.channel_w2[:] = 0.0
        assert np.array_equal(cond_mlp(t, visual.v, p), np.zeros_like(t))

    def test_batched_equals_loop(self):
        rng, t, visual = random_case(1, tokens=2, vis=3, channels=4)
        p = MlpCondParams.init(rng, 4, 3, 2, 2, std=0.3)
        diff = np.abs(cond_mlp(t, visual.v, p) - cond_mlp_pertoken(t, visual.v, p))
        assert np.max(diff) < 1e-12

    def test_token_permutation_equivariance(self):
        rng, t, visual = random_case(2, tokens=5)
        p = MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3)
        perm = np.array([3, 1, 4, 0, 2])
        assert np.allclose(cond_mlp(t[perm], visual.v, p), cond_mlp(t, visual.v, p)[perm])

    def test_visual_count_mismatch_rejected(self):
        rng, t, visual = random_case(3, vis=4)
        p = MlpCondParams.init(rng, 8, 5, 2, 2)
        with pytest.raises(ConfigError):
            cond_mlp(t, visual.v, p)


class TestConvConditioner:
    def test_delta_kernel_identity_pipeline(self):
        rng, t, visual = random_case(4)
        p = ConvCondParams(
            depthwise=np.tile(np.array([0.0, 1.0, 0.0]), (8, 1)),
            pointwise=np.eye(8),
        )
        assert np.allclose(cond_conv(t, visual.v, p), swish(t), atol=1e-12)

    def test_zero_pointwise_zero_output(self):
        rng, t, visual = random_case(5)
        p = ConvCondParams.init(rng, 8, 3, std=0.3)
        p.pointwise[:] = 0.0
        assert np.array_equal(cond_conv(t, visual.v, p), np.zeros_like(t))

    def test_batched_equals_loop(self):
        for seed in range(3):
            rng, t, visual = random_case(10 + seed, tokens=3, vis=5, channels=6)
            p = ConvCondParams.init(rng, 6, 5, std=0.3)
            diff = np.abs(cond_conv(t, visual.v, p) - cond_conv_pertoken(t, visual.v, p))
            assert np.max(diff) < 1e-12

    def test_matches_loop_when_kernel_reaches_past_visual_tokens(self):
        # K=5 reaches two positions beyond slot 0, but V=1 has only one
        rng, t, visual = random_case(19, tokens=3, vis=1, channels=6)
        p = ConvCondParams.init(rng, 6, 5, std=0.3)
        assert np.max(np.abs(cond_conv(t, visual.v, p) - cond_conv_pertoken(t, visual.v, p))) < 1e-12
        assert gradcheck_conditioner("conv", t, visual, p) <= 1e-4

    def test_matches_loop_for_single_text_token(self):
        rng, t, visual = random_case(20, tokens=1, vis=5, channels=6)
        p = ConvCondParams.init(rng, 6, 5, std=0.3)
        assert np.max(np.abs(cond_conv(t, visual.v, p) - cond_conv_pertoken(t, visual.v, p))) < 1e-12

    def test_even_kernel_rejected(self):
        rng = make_rng(6)
        with pytest.raises(ConfigError):
            ConvCondParams(depthwise=rng.normal(size=(4, 2)), pointwise=np.eye(4))

    @staticmethod
    def cut_signal_slot0(t, v, depthwise):
        """Oracle: the full K-tap conv over the cut signal [t_i; v[:reach]]
        in t's dtype, every output position computed, read at position 0."""
        reach = min(depthwise.shape[-1] // 2, v.shape[-2])
        batch = np.broadcast_shapes(t.shape[:-2], v.shape[:-2])
        signals = np.empty(batch + t.shape[-2:] + (reach + 1,), dtype=t.dtype)
        signals[..., 0] = t
        signals[..., 1:] = v[..., None, :reach, :].swapaxes(-1, -2)
        return tensors.depthwise_conv1d(signals, depthwise[..., None, :, :])[..., 0]

    @pytest.mark.parametrize("vis", [1, 2, 3, 6])
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_slot0_bits_match_the_cut_signal_conv(self, kernel, vis):
        """Bytes equal the full conv over the cut signal, up to the sign of an
        exact zero, for every f32/f64 mix of t, v and the parameters, with a
        stacked leading axis on each of t, v and depthwise in turn."""
        rng = make_rng(62)
        for dtypes in itertools.product(("f8", "f4"), repeat=3):
            for stacked in (None, "t", "v", "depthwise"):
                shapes = {"t": (4, 6), "v": (vis, 6), "depthwise": (6, kernel)}
                if stacked:
                    shapes[stacked] = (3,) + shapes[stacked]
                t, v, depthwise = (rng.normal(size=shapes[name]).astype(dtype)
                                   for name, dtype in zip(("t", "v", "depthwise"), dtypes))
                p = ConvCondParams(depthwise=depthwise, pointwise=np.eye(6, dtype=dtypes[2]))
                got = conditioning._conv_slot0(t, v, p)
                want = self.cut_signal_slot0(t, v, depthwise)
                assert got.dtype == want.dtype == t.dtype and got.shape == want.shape
                # + 0.0 maps -0.0 to +0.0
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (dtypes, stacked)

    def test_kernel_channels_must_match_tokens(self):
        rng, t, visual = random_case(63, tokens=3, vis=4, channels=6)
        p = ConvCondParams.init(rng, 5, 3)
        with pytest.raises(ShapeError):
            cond_conv(t, visual.v, p)

    def test_macs_are_the_taps_slot_0_reads(self):
        """T=8, C=32, K=3, V=6: C*(T + reach) depthwise + T*C^2 pointwise."""
        tokens, vis, channels, kernel = 8, 6, 32, 3
        rng, t, visual = random_case(64, tokens=tokens, vis=vis, channels=channels)
        p = ConvCondParams.init(rng, channels, kernel)
        reach = min(kernel // 2, vis)
        with count_macs() as counter:
            cond_conv(t, visual.v, p)
        assert counter.macs == channels * (tokens + reach) + tokens * channels**2 == 8480


class TestAttnConditioner:
    def test_single_visual_token_is_value_path(self):
        rng, t, _ = random_case(7, tokens=4)
        visual = VisualContext(make_rng(70).normal(size=(1, 8)), "synthetic")
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        expected = np.tile((visual.v @ p.wv) @ p.wo, (4, 1))
        assert np.allclose(cond_attn(t, visual.v, p), expected, atol=1e-12)

    def test_duplicate_visual_tokens_match_single(self):
        rng, t, _ = random_case(8, tokens=3)
        token = make_rng(80).normal(size=(1, 8))
        single = VisualContext(token, "synthetic")
        double = VisualContext(np.vstack([token, token]), "synthetic")
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        assert np.allclose(cond_attn(t, double.v, p), cond_attn(t, single.v, p), atol=1e-12)

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
            diff = np.abs(cond_attn(t, visual.v, p) - attn_oracle(t, visual.v, p))
            assert np.max(diff) < 1e-10

    def test_zero_query_weights_give_mean_value_path(self):
        rng, t, visual = random_case(10, vis=5)
        p = AttnCondParams.init(rng, 8, heads=2, std=0.3)
        p.wq[:] = 0.0
        expected = np.tile(visual.v.mean(axis=0) @ p.wv @ p.wo, (t.shape[0], 1))
        assert np.allclose(attn_oracle(t, visual.v, p), expected, atol=1e-12)
        assert np.allclose(cond_attn(t, visual.v, p), expected, atol=1e-12)

    def test_visual_permutation_invariance(self):
        rng, t, visual = random_case(11, vis=6)
        p = AttnCondParams.init(rng, 8, heads=4, std=0.3)
        perm = np.array([5, 2, 0, 4, 1, 3])
        permuted = VisualContext(visual.v[perm], "synthetic")
        assert np.allclose(cond_attn(t, permuted.v, p), cond_attn(t, visual.v, p), atol=1e-12)

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
            assert apply_conditioner(kind, t, visual.v, params).shape == t.shape

    def test_per_token_independence(self):
        rng, t, visual = random_case(14, tokens=6)
        cases = {
            "mlp": MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3),
            "conv": ConvCondParams.init(rng, 8, 3, std=0.3),
            "attn": AttnCondParams.init(rng, 8, heads=2, std=0.3),
        }
        perm = np.array([4, 0, 5, 2, 1, 3])
        for kind, params in cases.items():
            full = apply_conditioner(kind, t, visual.v, params)
            shuffled = apply_conditioner(kind, t[perm], visual.v, params)
            assert np.allclose(shuffled, full[perm], atol=1e-12)

    @pytest.mark.parametrize("kind", ["mlp", "conv"])
    def test_float32_model_keeps_dtype(self, kind):
        cfg = ModelConfig(L=2, C=8, h=2, d_ff=16, paradigm="fmi", cond_kind=kind,
                          frequency=0.5, cond_visual_tokens=4 if kind == "mlp" else None)
        model = init_model(cfg)
        params = next(b.modulation.cond for b in model.blocks if b.modulation is not None)
        params32 = next(b.modulation.cond for b in cast_model(model, np.float32).blocks
                        if b.modulation is not None)
        _, t, visual = random_case(22, tokens=3, vis=4, channels=8)
        visual32 = VisualContext(visual.v.astype(np.float32), "synthetic")
        out32 = apply_conditioner(kind, t.astype(np.float32), visual32.v, params32)
        assert out32.dtype == np.float32
        ref = apply_conditioner(kind, t, visual.v, params)
        assert np.max(np.abs(out32 - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_unknown_kind_rejected(self):
        rng, t, visual = random_case(15)
        with pytest.raises(ConfigError):
            apply_conditioner("rnn", t, visual.v, None)

    def test_default_heads_rule(self):
        assert default_heads(64) == 8
        assert default_heads(32) == 1

    def test_one_flat_table_of_the_public_forwards(self):
        assert _FORWARDS == {"mlp": cond_mlp, "conv": cond_conv, "attn": cond_attn}
        assert COND_KINDS == tuple(_FORWARDS)

    @pytest.mark.parametrize("kind", ["mlp", "conv", "attn"])
    @pytest.mark.parametrize("t_shape, v_shape", [
        ((3, 6), (0, 6)), ((6,), (4, 6)), ((3, 6), (6,)), ((3, 6), (4, 5)), ((3, 5, 6), (2, 4, 6)),
    ], ids=["no-visual-rows", "t-1d", "v-1d", "channels-differ", "batch-axes-differ"])
    def test_bad_token_shapes_raise_shape_error(self, kind, t_shape, v_shape):
        rng = make_rng(60)
        p = DRAWS[kind](rng)  # C=6; the mlp params are built for V=4
        forward = {"mlp": cond_mlp, "conv": cond_conv, "attn": cond_attn}[kind]
        with pytest.raises(ShapeError):
            forward(rng.normal(size=t_shape), rng.normal(size=v_shape), p)

    @pytest.mark.parametrize("kind", ["attn", "conv", "mlp"])
    def test_backward_recomputes_only_its_stage_products(self, kind):
        """attn recomputes the q, k and val projections, conv the slot-0
        depthwise taps, mlp the visual term and the text term of z1; no
        backward runs its forward."""
        tokens, vis, channels, kernel, token_exp = 3, 4, 8, 5, 2
        rng = make_rng(61)
        t = rng.normal(size=(tokens, channels))
        v = rng.normal(size=(vis, channels))
        p = {
            "attn": lambda: AttnCondParams.init(rng, channels, heads=2),
            "conv": lambda: ConvCondParams.init(rng, channels, kernel),
            "mlp": lambda: MlpCondParams.init(rng, channels, vis, token_exp, 2),
        }[kind]()
        reach = min(kernel // 2, vis)
        mix_width = (vis + 1) * token_exp
        expected = {
            "attn": tokens * channels**2 + 2 * vis * channels**2,
            "conv": channels * (tokens + reach),
            "mlp": channels * vis * mix_width + tokens * channels * mix_width,
        }[kind]
        with count_macs() as counter:
            conditioning._BACKWARDS[kind](t, v, p, np.ones_like(t))
        assert counter.macs == expected


class TestBatchedForwards:
    """The forwards broadcast over a leading axis on any one operand, which
    is what the finite-difference check feeds them."""

    @pytest.mark.parametrize("kind, operand", [
        (kind, operand) for kind in ("mlp", "conv", "attn") for operand in ("t", "v", *FIELDS[kind])
    ])
    def test_stacked_operand_equals_slices(self, kind, operand):
        rng, t, visual = random_case(40, tokens=3, vis=4, channels=6)
        p = DRAWS[kind](rng)
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
            return _FORWARDS[kind](args["t"], args["v"], params)

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

    @pytest.mark.parametrize("kind", ["attn", "conv", "mlp"])
    def test_nan_gradient_in_the_last_field_raises(self, kind, monkeypatch):
        backward = conditioning._BACKWARDS[kind]
        last = FIELDS[kind][-1]  # attn wo, conv pointwise, mlp channel_b2

        def poisoned(*args):
            grads = dict(backward(*args))
            grads[last] = grads[last].copy()
            grads[last].flat[0] = np.nan
            return grads

        monkeypatch.setitem(conditioning._BACKWARDS, kind, poisoned)
        rng, t, visual = random_case(19)
        init = {
            "attn": lambda: AttnCondParams.init(rng, 8, heads=2, std=0.3),
            "conv": lambda: ConvCondParams.init(rng, 8, 3, std=0.3),
            "mlp": lambda: MlpCondParams.init(rng, 8, 4, 2, 2, std=0.3),
        }[kind]
        with pytest.raises(NumericError):
            gradcheck_conditioner(kind, t, visual, init())


class TestAttnHeadGroups:
    """tensors.attend scores heads in groups of at most _BLOCK_BYTES of
    logits; a 1-byte budget runs every head as its own group."""

    @pytest.mark.parametrize("operand", ["t", "v", *FIELDS["attn"]])
    def test_stacked_operand_under_one_byte_budget(self, operand, monkeypatch):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
        TestBatchedForwards().test_stacked_operand_equals_slices("attn", operand)

    def test_gradcheck_under_one_byte_budget(self, monkeypatch):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
        TestGradchecks().test_attn()


class TestMlpTiles:
    """The token mix runs in tiles of tensors._BLOCK_BYTES of z1; shrinking the
    constant makes small shapes run many tiles. T=5, C=20, L*token_exp=10,
    so one z1 row is 80 bytes in float64."""

    TILES = {
        "channel_blocks_of_8": (1, 15),     # 8 + 8 + 4 rows per token
        "14_rows_round_to_8": (14 * 80, 15),
        "channel_blocks_of_16": (16 * 80, 10),
        "two_tokens": (2 * 20 * 80, 3),     # tokens 0-1, 2-3, 4
    }

    @staticmethod
    def case(seed=50):
        rng, t, visual = random_case(seed, tokens=5, vis=4, channels=20)
        return t, visual, MlpCondParams.init(rng, 20, 4, 2, 2, std=0.3)

    @pytest.mark.parametrize("tile", TILES)
    def test_tiles_equal_one_tile_and_loop(self, tile, monkeypatch):
        t, visual, p = self.case()
        one_tile = cond_mlp(t, visual.v, p)
        tile_bytes, count = self.TILES[tile]
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", tile_bytes)
        assert len(_mix_tiles(5, 20, 80)) == count
        tiled = cond_mlp(t, visual.v, p)
        assert np.max(np.abs(tiled - one_tile)) <= 1e-15 * np.max(np.abs(one_tile))
        assert np.max(np.abs(tiled - cond_mlp_pertoken(t, visual.v, p))) <= 1e-12

    @pytest.mark.parametrize("operand", ["t", "v", *FIELDS["mlp"]])
    def test_stacked_operand_under_tiny_tiles(self, operand, monkeypatch):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
        TestBatchedForwards().test_stacked_operand_equals_slices("mlp", operand)

    def test_gradcheck_under_tiny_tiles(self, monkeypatch):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
        t, visual, p = self.case(51)
        assert gradcheck_conditioner("mlp", t, visual, p) <= 1e-4

    def test_float32_keeps_dtype(self, monkeypatch):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
        t, visual, p = self.case(52)
        p32 = replace(p, **{name: arr.astype(np.float32) for name, arr in param_arrays(p)})
        visual32 = VisualContext(visual.v.astype(np.float32), "synthetic")
        out32 = cond_mlp(t.astype(np.float32), visual32.v, p32)
        assert out32.dtype == np.float32
        ref = cond_mlp(t, visual.v, p)
        assert np.max(np.abs(out32 - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_nan_in_last_tile_raises(self, monkeypatch):
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
        t, visual, p = self.case(53)
        t[-1, -1] = np.nan
        with pytest.raises(NumericError):
            cond_mlp(t, visual.v, p)

    def test_mac_count_independent_of_tile_size(self, monkeypatch):
        t, visual, p = self.case(54)
        counts = []
        for tile_bytes, _ in [(tensors._BLOCK_BYTES, 1), *self.TILES.values()]:
            monkeypatch.setattr(tensors, "_BLOCK_BYTES", tile_bytes)
            with count_macs() as counter:
                cond_mlp(t, visual.v, p)
            counts.append(counter.macs)
        assert len(set(counts)) == 1

    def test_peak_memory_holds_no_full_pre_activation(self):
        # the untiled (T, C, L*token_exp) z1 alone is 75.6 MB at this shape
        rng, t, visual = random_case(55, tokens=16, vis=576, channels=256)
        p = MlpCondParams.init(rng, 256, 576)
        tracemalloc.start()
        try:
            cond_mlp(t, visual.v, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_peak_memory_builds_the_visual_term_once(self):
        # the (C, L*token_exp) visual term is 4.7 MB here; adding token_b1
        # into a second copy of it raised the peak to 9.5 MB
        rng, t, visual = random_case(56, tokens=16, vis=576, channels=256)
        p = MlpCondParams.init(rng, 256, 576)
        tracemalloc.start()
        try:
            cond_mlp(t, visual.v, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7e6


class TestMlpWorkers:
    """The token-mix tiles run on the calling thread and on worker threads,
    one thread per usable CPU, each taking the next tile as it finishes one.
    With TestMlpTiles' shape and a 1-byte tensors._BLOCK_BYTES there are fifteen
    tiles of at most 8 rows (640 bytes of z1 in float64); the tiles do not
    depend on the thread count."""

    COUNTS = (1, 2, 3, 7)

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1)
            monkeypatch.setattr(tensors, "_usable_cpus", lambda: n)
            monkeypatch.setattr(tensors, "_pool", None)  # a pool of n - 1 threads on first use
        return set_cpus

    @staticmethod
    def case(seed, dtype=np.float64):
        t, visual, p = TestMlpTiles.case(seed)
        p = replace(p, **{name: arr.astype(dtype) for name, arr in param_arrays(p)})
        return t.astype(dtype), visual.v.astype(dtype), p

    def each_count(self, set_cpus, run):
        """(output, counted MACs) per thread count, thread switches forced
        often so that a lost counter update would show."""
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in self.COUNTS:
                set_cpus(n)
                with count_macs() as counter:
                    results[n] = (run(), counter.macs)
        finally:
            sys.setswitchinterval(interval)
        return results

    def assert_same(self, results):
        out, macs = results[1]
        for n, (got, got_macs) in results.items():
            assert got.dtype == out.dtype and got.tobytes() == out.tobytes(), n
            assert got_macs == macs, n

    def test_z1_peak_is_one_tile_per_thread(self, monkeypatch):
        """At C=256, V=576 the 16 tokens' mix is 176 tiles of 443,136 bytes of
        z1; each thread past the first adds at most one tile of z1, within
        _BLOCK_BYTES, and the GELU buffer of its size to the traced peak."""
        rng, t, visual = random_case(55, tokens=16, vis=576, channels=256)
        p = MlpCondParams.init(rng, 256, 576)
        peaks = {}
        for n in (1, 2, 16):
            monkeypatch.setattr(tensors, "_usable_cpus", lambda: n)
            monkeypatch.setattr(tensors, "_pool", None)
            cond_mlp(t, visual.v, p)  # starts the pool's threads outside the trace
            tracemalloc.start()
            try:
                cond_mlp(t, visual.v, p)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for n in (2, 16):
            assert peaks[n] - peaks[1] <= (n - 1) * 2 * tensors._BLOCK_BYTES, peaks

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_and_macs_equal_for_any_worker_count(self, cpus, dtype):
        t, v, p = self.case(57, dtype)
        results = self.each_count(cpus, lambda: cond_mlp(t, v, p))
        self.assert_same(results)
        assert results[1][0].dtype == dtype

    @pytest.mark.parametrize("operand", ["t", "v", *FIELDS["mlp"]])
    def test_stacked_operand(self, cpus, operand):
        t, v, p = self.case(58)
        operands = {"t": t, "v": v}
        base = operands[operand] if operand in operands else getattr(p, operand)
        stack = base + make_rng(59).normal(scale=0.1, size=(3,) + base.shape)
        if operand in operands:
            operands[operand] = stack
        else:
            p = replace(p, **{operand: stack})
        self.assert_same(self.each_count(cpus, lambda: cond_mlp(operands["t"], operands["v"], p)))

    @staticmethod
    def slow_caller(monkeypatch, caller):
        """Make the caller thread sleep 50 ms per tile, so the workers take
        the other tiles; returns the threads that ran a tile of non-finite t."""
        bad_tile_threads = []
        token_mix = conditioning._token_mix

        def slow(t, visual_term, p, tokens, channels):
            if threading.current_thread() is caller:
                time.sleep(0.05)
            if not np.isfinite(t[tokens, channels]).all():
                bad_tile_threads.append(threading.current_thread())
            return token_mix(t, visual_term, p, tokens, channels)

        monkeypatch.setattr(conditioning, "_token_mix", slow)
        return bad_tile_threads

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_nan_on_a_worker_raises_and_never_warns(self, cpus, n, monkeypatch):
        t, v, p = self.case(60)
        t[-1, -1] = np.nan  # the last tile
        cpus(n)
        errors = []

        def call():
            try:
                cond_mlp(t, v, p)
            except Exception as exc:
                errors.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        bad_tile_threads = self.slow_caller(monkeypatch, caller)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            caller.start()
            caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], NumericError)
        assert bad_tile_threads and caller not in bad_tile_threads

    def test_earliest_failing_tile_raises_once_every_thread_has_stopped(self, cpus, monkeypatch):
        t, v, p = self.case(61)
        cpus(7)
        tiles = _mix_tiles(5, 20, 80)
        started, ended = [], []
        token_mix = conditioning._token_mix

        def failing(t, visual_term, p, tokens, channels):
            tile = tiles.index((tokens, channels))
            started.append(tile)
            try:
                time.sleep({2: 0.2, 3: 0.4}.get(tile, 0.0))  # tile 2 fails after tile 4 does
                if tile in (2, 4, 9):
                    raise ValueError(f"tile {tile}")
                return token_mix(t, visual_term, p, tokens, channels)
            finally:
                ended.append(tile)

        monkeypatch.setattr(conditioning, "_token_mix", failing)
        with pytest.raises(ValueError, match="tile 2"):
            cond_mlp(t, v, p)
        assert sorted(ended) == sorted(started)  # no tile is still running
        assert {0, 1, 2} <= set(ended)

    def test_checks_at_boundaries_reaches_the_workers(self, cpus, monkeypatch):
        t, v, p = self.case(62)
        t[-1, -1] = np.inf  # gelu meets -inf * 0: an invalid-value warning unless silenced
        outs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 3):
                cpus(n)
                with checks_at_boundaries():
                    outs.append(cond_mlp(t, v, p))
                if n == 1:
                    bad_tile_threads = self.slow_caller(monkeypatch, threading.current_thread())
        assert bad_tile_threads and threading.current_thread() not in bad_tile_threads
        assert np.isnan(outs[0][-1]).all() and np.isfinite(outs[0][:-1]).all()
        assert outs[1].tobytes() == outs[0].tobytes()

    def test_one_cpu_or_one_tile_starts_no_pool(self, cpus, monkeypatch):
        t, v, p = self.case(63)
        cpus(1)
        cond_mlp(t, v, p)
        assert tensors._pool is None
        cpus(7)
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 1 << 20)
        cond_mlp(t, v, p)
        assert tensors._pool is None
        cpus(7)
        cond_mlp(t, v, p)
        assert tensors._pool is not None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_the_token_mix(self):
        script = textwrap.dedent("""
            import os, signal, sys
            from featmod import tensors
            from featmod.conditioning import MlpCondParams, cond_mlp
            from featmod.tensors import make_rng

            tensors._BLOCK_BYTES = 1
            tensors._usable_cpus = lambda: 3
            rng = make_rng(64)
            t, v = rng.normal(size=(5, 20)), rng.normal(size=(4, 20))
            p = MlpCondParams.init(rng, 20, 4, 2, 2, std=0.3)
            expected = cond_mlp(t, v, p).tobytes()
            for _ in range(3):  # the pool now counts its threads idle and would start none in the child
                assert cond_mlp(t, v, p).tobytes() == expected
            assert tensors._pool is not None
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)  # a child waiting on the parent's threads dies instead of hanging
                os._exit(0 if cond_mlp(t, v, p).tobytes() == expected else 3)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        src = str(Path(conditioning.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
