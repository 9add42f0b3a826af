import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmod import model as model_module, norm, tensors
from featmod.conditioning import AttnCondParams, VisualContext, apply_conditioner, attn_oracle, cond_attn
from featmod.diagnostics import diagnose, feature_drift, modulation_influence
from featmod.model import (
    LOCATIONS,
    ForwardCapture,
    ModelConfig,
    _causal_self_attention,
    _ffn,
    base_twin,
    block_forward,
    cast_model,
    config_from_kv,
    config_to_kv,
    forward,
    init_model,
    load_model,
    model_tensors,
    randomize_insert,
    randomize_modulation,
    save_model,
    select_layers,
)
from featmod.norm import layer_norm, project_deltas, viln_apply
from featmod.tensors import (
    ConfigError,
    NumericError,
    ShapeError,
    checks_at_boundaries,
    count_macs,
    gelu,
    make_rng,
    matmul,
    merge_heads,
    sinusoid_positions,
    softmax_lastdim,
    split_heads,
)
from featmod.vision import sample_frames


def small_cfg(**overrides):
    base = dict(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=11)
    base.update(overrides)
    return ModelConfig(**base)


def make_inputs(cfg, tokens=8, vis=6, seed=99):
    rng = make_rng(seed)
    t_emb = rng.normal(size=(tokens, cfg.C))
    visual = VisualContext(rng.normal(size=(vis, cfg.C)), "synthetic")
    return t_emb, visual


class TestSelectLayers:
    """Criterion 6 checks uniform 32@0.25, deep 8@0.25 and full coverage."""

    def test_shallow_and_middle(self):
        assert select_layers(8, 0.25, "shallow") == (0, 1)
        assert select_layers(8, 0.25, "middle") == (3, 4)

    def test_uniform_non_divisible(self):
        assert select_layers(10, 0.3, "uniform") == (0, 3, 7)

    def test_uniform_divisible_is_even_steps(self):
        for layers in range(1, 65):
            for k in (k for k in range(1, layers + 1) if layers % k == 0):
                picked = select_layers(layers, k / layers, "uniform")
                assert picked == tuple(j * (layers // k) for j in range(k)), (layers, k)

    def test_zero_selection_rejected(self):
        with pytest.raises(ConfigError):
            select_layers(8, 0.05, "uniform")

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 1024), data=st.data())
    def test_picks_are_distinct_sorted_and_in_range(self, n, data):
        """select_layers(n, frequency, location) at every location and frequency,
        and sample_frames(n, k) at every k <= n, pick k strictly increasing
        indices in [0, n): neither needs a check for duplicates."""
        frequency = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        location = data.draw(st.sampled_from(LOCATIONS))
        k = math.floor(frequency * n + 0.5)
        if k < 1:
            with pytest.raises(ConfigError):
                select_layers(n, frequency, location)
        else:
            picked = select_layers(n, frequency, location)
            assert len(picked) == k and 0 <= picked[0] and picked[-1] < n
            assert all(a < b for a, b in zip(picked, picked[1:]))
        k = data.draw(st.integers(1, n))
        picks = sample_frames(n, k)
        assert len(picks) == k and picks[0] == 0 and picks[-1] == (n - 1 if k > 1 else 0)
        assert all(a < b for a, b in zip(picks, picks[1:]))


class TestConfigValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(L=8, frequency=0.05).validate()

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            small_cfg(C=30, h=4).validate()

    def test_mlp_conditioner_needs_visual_count(self):
        with pytest.raises(ConfigError):
            small_cfg(cond_kind="mlp").validate()
        small_cfg(cond_kind="mlp", cond_visual_tokens=6).validate()


def naive_block_reference(h, p, heads):
    """Per-position causal block, plain loops."""

    def ln(row, params):
        mu = row.mean()
        sd = np.sqrt(((row - mu) ** 2).mean())
        return params.alpha * ((row - mu) / (sd + params.eps)) + params.beta

    s, c = h.shape
    dk = c // heads
    n1 = np.stack([ln(h[i], p.ln1) for i in range(s)])
    q, k, v = n1 @ p.wq, n1 @ p.wk, n1 @ p.wv
    att = np.zeros((s, c))
    for i in range(s):
        for head in range(heads):
            sl = slice(head * dk, (head + 1) * dk)
            logits = [float(q[i, sl] @ k[j, sl]) / np.sqrt(dk) for j in range(i + 1)]
            m = max(logits)
            exps = [np.exp(l - m) for l in logits]
            z = sum(exps)
            att[i, sl] = sum((exps[j] / z) * v[j, sl] for j in range(i + 1))
    h = h + att @ p.wo
    n2 = np.stack([ln(h[i], p.ln2) for i in range(s)])
    return h + (gelu(n2 @ p.w1 + p.b1) @ p.w2 + p.b2)


class TestBaseBlock:
    def test_zero_output_weights_give_identity(self):
        cfg = small_cfg(paradigm="base")
        model = init_model(cfg)
        p = model.blocks[0]
        p.wo[:] = 0.0
        p.w2[:] = 0.0
        rng = make_rng(0)
        h = rng.normal(size=(5, cfg.C))
        assert np.array_equal(block_forward(h, p, cfg), h)

    def test_single_position_is_value_path(self):
        cfg = small_cfg(paradigm="base")
        p = init_model(cfg).blocks[1]
        rng = make_rng(1)
        h = rng.normal(size=(1, cfg.C))
        out = block_forward(h, p, cfg)
        assert np.allclose(out, naive_block_reference(h, p, cfg.h), atol=1e-12)

    def test_matches_naive_reference(self):
        cfg = small_cfg(paradigm="base")
        model = init_model(cfg)
        rng = make_rng(2)
        h = rng.normal(size=(7, cfg.C))
        for p in model.blocks:
            ours = block_forward(h, p, cfg)
            ref = naive_block_reference(h, p, cfg.h)
            assert np.max(np.abs(ours - ref)) < 1e-10
            h = ours


def untiled_attention_reference(h_in, p, heads):
    """Causal self-attention over the full (heads, s, s) logits and s x s mask."""
    s, c = h_in.shape
    q = split_heads(matmul(h_in, p.wq), heads)
    k = split_heads(matmul(h_in, p.wk), heads)
    v = split_heads(matmul(h_in, p.wv), heads)
    mask = np.triu(np.full((s, s), -np.inf, dtype=h_in.dtype), k=1)
    logits = matmul(q, k.swapaxes(-1, -2))
    logits *= float(1.0 / np.sqrt(c // heads))
    logits += mask
    return matmul(merge_heads(matmul(softmax_lastdim(logits), v)), p.wo)


class TestTiledAttention:
    """Self-attention runs in 128-query tiles; s = 293 ends in a partial tile."""

    @pytest.mark.parametrize("s", [127, 128, 129, 293])
    def test_block_matches_naive_reference_across_tile_edges(self, s):
        cfg = small_cfg(paradigm="base")
        p = init_model(cfg).blocks[0]
        h = make_rng(s).normal(size=(s, cfg.C))
        ref = naive_block_reference(h, p, cfg.h)
        assert np.max(np.abs(block_forward(h, p, cfg) - ref)) < 1e-10

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("s", [1, 7, 128])
    def test_one_tile_is_bit_identical_to_untiled(self, s, dtype):
        cfg = small_cfg(paradigm="base")
        p = cast_model(init_model(cfg), dtype).blocks[2]
        h = make_rng(s).normal(size=(s, cfg.C)).astype(dtype)
        out = _causal_self_attention(h, p, cfg.h)
        assert out.dtype == dtype
        assert np.array_equal(out, untiled_attention_reference(h, p, cfg.h))

    def test_float32_keeps_dtype_over_several_tiles(self):
        cfg = small_cfg(paradigm="base")
        model = init_model(cfg)
        t_emb = make_rng(5).normal(size=(293, cfg.C))
        out = forward(cast_model(model, np.float32), t_emb.astype(np.float32))
        assert out.dtype == np.float32
        assert np.max(np.abs(out - forward(model, t_emb))) < 1e-4

    def test_counted_macs_are_the_tiled_macs(self):
        cfg = small_cfg(paradigm="base")
        p = init_model(cfg).blocks[0]
        s, c, dk = 293, cfg.C, cfg.C // cfg.h
        h = make_rng(6).normal(size=(s, c))
        with count_macs() as counter:
            _causal_self_attention(h, p, cfg.h)
        tiles = [(a, min(a + 128, s)) for a in range(0, s, 128)]
        assert tiles == [(0, 128), (128, 256), (256, 293)]
        scores = cfg.h * dk * sum(2 * (b - a) * b for a, b in tiles)
        assert counter.macs == 4 * s * c * c + scores
        assert scores < 2 * s * s * c  # the untiled count


def logits_budget(name, s, itemsize, keys=None):
    """A _BLOCK_BYTES value: "three_heads" fits exactly 3 heads in the first
    tile, so 8 heads run as groups of 3, 3 and a partial 2 there. With keys,
    the budget is for a non-causal call, whose one tile is all s queries."""
    first_tile = (min(s, 128) ** 2 if keys is None else s * keys) * itemsize
    return {"one_byte": 1, "three_heads": 3 * first_tile, "default": tensors._BLOCK_BYTES, "huge": 1 << 62}[name]


def attention_setup(s, heads, dtype, channels=32):
    p = cast_model(init_model(ModelConfig(L=1, C=channels, h=heads, d_ff=32, paradigm="base", seed=s)), dtype).blocks[0]
    return make_rng(s).normal(size=(s, channels)).astype(dtype), p


def cross_attention_setup(tokens, heads, dtype, channels=32, vis=37):
    rng = make_rng(tokens)
    p = AttnCondParams(*(rng.normal(scale=0.3, size=(channels, channels)).astype(dtype) for _ in range(4)), heads)
    visual = VisualContext(rng.normal(size=(vis, channels)).astype(dtype), "synthetic")
    return rng.normal(size=(tokens, channels)).astype(dtype), visual, p


def untiled_cond_attn_reference(t, v, p):
    """The attn conditioner over all heads' (T, V) logits at once."""
    q = split_heads(matmul(t, p.wq), p.heads)
    k = split_heads(matmul(v, p.wk), p.heads)
    val = split_heads(matmul(v, p.wv), p.heads)
    logits = matmul(q, k.swapaxes(-1, -2))
    logits *= float(1.0 / np.sqrt(t.shape[-1] // p.heads))
    return matmul(merge_heads(matmul(softmax_lastdim(logits), val)), p.wo)


class TestHeadGroups:
    """Each tile scores its heads in groups whose logits fit _BLOCK_BYTES."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("heads", [1, 4, 8])
    @pytest.mark.parametrize("s", [1, 127, 128, 129, 293, 704])
    def test_every_budget_is_bit_identical_to_one_group(self, s, heads, dtype, monkeypatch):
        h, p = attention_setup(s, heads, dtype)
        budgets = {name: logits_budget(name, s, np.dtype(dtype).itemsize) for name in ("one_byte", "three_heads", "default")}
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", logits_budget("huge", s, 8))
        with count_macs() as counter:
            one_group = _causal_self_attention(h, p, heads)
        for name, budget in budgets.items():
            monkeypatch.setattr(tensors, "_BLOCK_BYTES", budget)
            with count_macs() as grouped:
                out = _causal_self_attention(h, p, heads)
            assert out.dtype == dtype
            assert out.tobytes() == one_group.tobytes(), name
            assert grouped.macs == counter.macs, name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("heads", [1, 4, 8])
    @pytest.mark.parametrize("tokens", [1, 129, 300])
    def test_cross_attention_budgets_are_bit_identical_to_one_group(self, tokens, heads, dtype, monkeypatch):
        """cond_attn, which the attn conditioner and the crossattn insert run,
        scores all its queries as one tile and groups only the heads."""
        t, visual, p = cross_attention_setup(tokens, heads, dtype)
        itemsize = np.dtype(dtype).itemsize
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", logits_budget("huge", tokens, 8))
        with count_macs() as counter:
            one_group = cond_attn(t, visual.v, p)
        for name in ("one_byte", "three_heads", "default"):
            monkeypatch.setattr(tensors, "_BLOCK_BYTES", logits_budget(name, tokens, itemsize, visual.count))
            with count_macs() as grouped:
                out = cond_attn(t, visual.v, p)
            assert out.dtype == dtype
            assert out.tobytes() == one_group.tobytes(), name
            assert grouped.macs == counter.macs, name

    @pytest.mark.parametrize("tokens", [129, 300])
    def test_cond_attn_is_bit_identical_to_untiled(self, tokens):
        t, visual, p = cross_attention_setup(tokens, 8, np.float64, channels=256, vis=576)
        assert cond_attn(t, visual.v, p).tobytes() == untiled_cond_attn_reference(t, visual.v, p).tobytes()

    @pytest.mark.parametrize("budget, checks", [("one_byte", 3 * 8), ("three_heads", 3 + 8 + 2), ("huge", 3)])
    def test_groups_per_tile(self, budget, checks, monkeypatch):
        """s = 293 is three tiles: [0, 128) fits 3 heads a group, [128, 256),
        with twice the keys, 1, and the 37-query [256, 293) 4."""
        h, p = attention_setup(293, 8, np.float64)
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", logits_budget(budget, 293, 8))
        names = []
        monkeypatch.setattr(tensors, "check_finite", lambda name, out: names.append(name) or out)
        with checks_at_boundaries():
            _causal_self_attention(h, p, 8)
        assert names == ["attention logits"] * checks

    @pytest.mark.parametrize("budget", ["one_byte", "three_heads", "default", "huge"])
    def test_nan_in_the_last_group_raises(self, budget, monkeypatch):
        h, p = attention_setup(293, 8, np.float64)
        p.wq[:, -4:] = np.nan  # the query channels of head 7 only
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", logits_budget(budget, 293, 8))
        with checks_at_boundaries(), pytest.raises(NumericError, match="attention logits"):
            _causal_self_attention(h, p, 8)

    @pytest.mark.parametrize("budget", ["one_byte", "three_heads", "default", "huge"])
    def test_nan_in_the_last_cross_attention_group_raises(self, budget, monkeypatch):
        t, visual, p = cross_attention_setup(293, 8, np.float64)
        p.wq[:, -4:] = np.nan  # the query channels of head 7 only
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", logits_budget(budget, 293, 8, visual.count))
        with checks_at_boundaries(), pytest.raises(NumericError, match="attention logits"):
            cond_attn(t, visual.v, p)

    def test_peak_memory_of_one_call(self):
        """Scoring all 8 heads of a tile at once peaked at 16.1 MiB here: the
        (8, 128, b) logits and their softmax copy."""
        h, p = attention_setup(704, 8, np.float64, channels=256)
        tracemalloc.start()
        try:
            _causal_self_attention(h, p, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

    def test_peak_memory_of_one_cond_attn_call(self):
        """Scoring all 8 heads at once peaked at 12.1 MiB here: the
        (8, 128, 576) logits and their softmax copy."""
        t, visual, p = cross_attention_setup(128, 8, np.float64, channels=256, vis=576)
        tracemalloc.start()
        try:
            cond_attn(t, visual.v, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


SPLIT_MACS = tensors._SPLIT_MACS


class TestForwardsOnThePool:
    """Forwards at the benchmark's image336 and video_long geometry (C=256,
    h=8, d_ff=1024, V=576) hash the same at 1-4 simulated CPUs as with every
    row and attention split off, which is how the product boundaries were
    before the pool took them. Two blocks stand in for eight."""

    @staticmethod
    def digest(variant, tokens, monkeypatch, cpus=None, layers=2, split=True):
        """SHA-256 of the variant's forward, or for "diagnose" of an fmi/attn
        model's influence and drift traces."""
        paradigm, _, kind = variant.partition("_")
        cfg = ModelConfig(L=layers, C=256, h=8, d_ff=1024, paradigm="fmi" if paradigm == "diagnose" else paradigm,
                          cond_kind=kind or "attn",
                          frequency=0.25 if layers == 8 else 0.5, seed=5,
                          cond_visual_tokens=576 if kind == "mlp" else None)
        model = init_model(cfg)
        randomize_modulation(model, make_rng(6))
        randomize_insert(model, make_rng(7))
        rng = make_rng(8)
        t_emb, visual = rng.normal(size=(tokens, 256)), VisualContext(rng.normal(size=(576, 256)), "synthetic")
        if cpus is not None:
            monkeypatch.setattr(tensors, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(tensors, "_pool", None)
        monkeypatch.setattr(tensors, "_SPLIT_MACS", SPLIT_MACS if split else float("inf"))
        if variant == "diagnose":
            out = b"".join(trace.per_token.tobytes() for trace in diagnose(model, t_emb, visual))
        else:
            out = forward(model, t_emb, None if paradigm == "base" else visual).tobytes()
        return hashlib.sha256(out).hexdigest()

    @pytest.mark.usefixtures("one_blas_thread")  # rows and attention split only there
    @pytest.mark.parametrize("variant, tokens", [
        ("incontext", 16), ("incontext", 128), ("fmi_attn", 128), ("crossattn", 128), ("base", 128),
        ("diagnose", 128),
    ])
    def test_hash_at_each_count_equals_unsplit(self, variant, tokens, monkeypatch):
        unsplit = self.digest(variant, tokens, monkeypatch, cpus=4, split=False)
        for n in (1, 2, 3, 4):
            assert self.digest(variant, tokens, monkeypatch, cpus=n) == unsplit, n
        assert tensors._pool is not None

    def assert_fmi_mlp_hashes_as_unsplit(self, tokens, monkeypatch):
        unsplit = self.digest("fmi_mlp", tokens, monkeypatch, cpus=4, layers=8, split=False)
        for n in (1, 2, 3, 4):
            assert self.digest("fmi_mlp", tokens, monkeypatch, cpus=n, layers=8) == unsplit, n
        assert tensors._pool is not None

    @pytest.mark.parametrize("blas", ["default", "one thread"])
    def test_image336_fmi_mlp_forward_hashes_as_unsplit(self, blas, request, monkeypatch):
        """All eight blocks, T=16: the mlp visual term, (256, 576) @ (576,
        2308), runs as column blocks on the pool under one BLAS thread and
        whole under more, and the forward keeps its bits either way."""
        if blas == "one thread":
            request.getfixturevalue("one_blas_thread")
        self.assert_fmi_mlp_hashes_as_unsplit(16, monkeypatch)

    @pytest.mark.parametrize("blas", ["default", "one thread"])
    def test_video_long_fmi_mlp_forward_hashes_as_unsplit(self, blas, request, monkeypatch):
        """video_long's one-token prompt over V=576: under one BLAS thread
        the visual term's column blocks are most of the forward's pooled
        work."""
        if blas == "one thread":
            request.getfixturevalue("one_blas_thread")
        self.assert_fmi_mlp_hashes_as_unsplit(1, monkeypatch)


class TestZeroInitEquivalence:
    def test_exact_at_double_precision(self):
        cfg = ModelConfig(L=6, C=64, h=8, d_ff=128, paradigm="fmi", frequency=0.25, seed=5)
        model = init_model(cfg)
        base = base_twin(model)
        t_emb, visual = make_inputs(cfg, tokens=16)
        diff = np.abs(forward(model, t_emb, visual) - forward(base, t_emb))
        assert np.max(diff) == 0.0

    def test_single_precision_within_1e6(self):
        cfg = ModelConfig(L=6, C=64, h=8, d_ff=128, paradigm="fmi", frequency=0.25, seed=5)
        model = cast_model(init_model(cfg), np.float32)
        base = cast_model(base_twin(init_model(cfg)), np.float32)
        t_emb, visual = make_inputs(cfg, tokens=16)
        t32 = t_emb.astype(np.float32)
        v32 = VisualContext(visual.v.astype(np.float32), "synthetic")
        out = forward(model, t32, v32)
        ref = forward(base, t32)
        assert out.dtype == np.float32
        assert np.max(np.abs(out - ref)) <= 1e-6

    def test_holds_for_every_conditioner_kind(self):
        for kind in ("attn", "conv", "mlp"):
            cfg = small_cfg(cond_kind=kind, cond_visual_tokens=6 if kind == "mlp" else None)
            model = init_model(cfg)
            t_emb, visual = make_inputs(cfg)
            diff = np.abs(forward(model, t_emb, visual) - forward(base_twin(model), t_emb))
            assert np.max(diff) == 0.0

    def test_crossattn_zero_init_equals_base(self):
        cfg = small_cfg(paradigm="crossattn")
        model = init_model(cfg)
        t_emb, visual = make_inputs(cfg)
        diff = np.abs(forward(model, t_emb, visual) - forward(base_twin(model), t_emb))
        assert np.max(diff) == 0.0

    def test_twin_uses_the_models_own_base_weights(self):
        cfg = small_cfg()
        model = init_model(cfg)
        model.blocks[0].wq += make_rng(7).normal(scale=0.1, size=model.blocks[0].wq.shape)
        twin = base_twin(model)
        assert np.array_equal(twin.blocks[0].wq, model.blocks[0].wq)
        assert twin.cfg.paradigm == "base"
        assert all(b.modulation is None and b.insert is None for b in twin.blocks)
        t_emb, visual = make_inputs(cfg)
        assert np.array_equal(forward(model, t_emb, visual), forward(twin, t_emb))


def fmi_composition_reference(model, t_emb, visual):
    """An fmi forward composed from its parts: both delta pairs at both slots of every modulated block."""
    cfg = model.cfg

    def norm(x, ln, deltas):
        return layer_norm(x, ln)[0] if deltas is None else viln_apply(x, deltas, ln)

    h = t_emb + sinusoid_positions(np.arange(t_emb.shape[0]), cfg.C)
    for p in model.blocks:
        slot1 = slot2 = None
        if p.modulation is not None:
            cond = apply_conditioner(cfg.cond_kind, h, visual.v, p.modulation.cond)
            slot1, slot2 = project_deltas(cond, p.modulation.proj)
        h = h + _causal_self_attention(norm(h, p.ln1, slot1), p, cfg.h)
        h = h + _ffn(norm(h, p.ln2, slot2), p)
    return h


class TestFmiForward:
    def test_sequence_length_stays_t(self):
        cfg = small_cfg(frequency=1.0)
        model = init_model(cfg)
        t_emb, visual = make_inputs(cfg, tokens=9, vis=13)
        capture = ForwardCapture()
        out = forward(model, t_emb, visual, capture)
        assert out.shape == (9, cfg.C)
        assert all(h.shape == (9, cfg.C) for h in capture.hidden)

    def test_frequency_one_modulates_every_block(self):
        model = init_model(small_cfg(frequency=1.0))
        assert all(b.modulation is not None for b in model.blocks)

    def test_randomized_modulation_depends_on_visual_input(self):
        cfg = small_cfg()
        model = init_model(cfg)
        randomize_modulation(model, make_rng(7), scale=0.2)
        t_emb, visual = make_inputs(cfg)
        base_out = forward(base_twin(model), t_emb)
        out = forward(model, t_emb, visual)
        assert np.max(np.abs(out - base_out)) > 1e-6
        zero_v = VisualContext(np.zeros_like(visual.v), "synthetic")
        out_zero = forward(model, t_emb, zero_v)
        assert np.max(np.abs(out - out_zero)) > 1e-9
        assert np.array_equal(forward(model, t_emb, visual), out)

    @pytest.mark.parametrize("location", ["uniform", "shallow", "middle", "deep"])
    @pytest.mark.parametrize("kind", ["attn", "conv", "mlp"])
    def test_matches_composition_reference(self, kind, location):
        cfg = small_cfg(cond_kind=kind, cond_visual_tokens=6, location=location)
        model = init_model(cfg)
        randomize_modulation(model, make_rng(15), scale=0.2)
        t_emb, visual = make_inputs(cfg)
        assert np.array_equal(forward(model, t_emb, visual), fmi_composition_reference(model, t_emb, visual))


class TestInContext:
    def test_output_length_is_v_plus_t(self):
        cfg = small_cfg(paradigm="incontext")
        model = init_model(cfg)
        t_emb, visual = make_inputs(cfg, tokens=7, vis=5)
        capture = ForwardCapture()
        out = forward(model, t_emb, visual, capture)
        assert out.shape == (12, cfg.C)
        assert all(h.shape == (12, cfg.C) for h in capture.hidden)

    def test_prefix_changes_text_positions(self):
        cfg = small_cfg(paradigm="incontext")
        model = init_model(cfg)
        t_emb, visual = make_inputs(cfg, tokens=6, vis=4)
        out_a = forward(model, t_emb, visual)
        perturbed = VisualContext(visual.v + 0.5, "synthetic")
        out_b = forward(model, t_emb, perturbed)
        assert np.max(np.abs(out_a[4:] - out_b[4:])) > 1e-9

    def test_no_prefix_degenerates_to_base_stack(self):
        cfg = small_cfg(paradigm="incontext")
        model = init_model(cfg)
        t_emb, _ = make_inputs(cfg)
        out = forward(model, t_emb, None)
        ref = forward(base_twin(model), t_emb)
        assert np.array_equal(out, ref)

    def test_causality_over_combined_sequence(self):
        cfg = small_cfg(paradigm="incontext")
        model = init_model(cfg)
        t_emb, visual = make_inputs(cfg, tokens=6, vis=4)
        out = forward(model, t_emb, visual)
        bumped = t_emb.copy()
        bumped[3] += 1.0  # absolute position 7
        out_b = forward(model, bumped, visual)
        assert np.array_equal(out[:7], out_b[:7])
        assert np.max(np.abs(out[7:] - out_b[7:])) > 0.0


class TestBaseCausality:
    def test_prefix_invariant_to_future_positions(self):
        cfg = small_cfg(paradigm="base")
        model = init_model(cfg)
        rng = make_rng(12)
        # 293 positions span three 128-query tiles; bumps sit on both sides of each edge
        for tokens, bumps in ((8, (2, 5, 7)), (293, (127, 128, 255, 256, 292))):
            t_emb = rng.normal(size=(tokens, cfg.C))
            out = forward(model, t_emb)
            for j in bumps:
                bumped = t_emb.copy()
                bumped[j] += rng.normal(size=cfg.C)
                out_b = forward(model, bumped)
                assert np.array_equal(out[:j], out_b[:j])


def insert_oracle(h, visual, ins):
    """The inserted module from its parts: residual cross-attention, then a residual FFN."""
    h = h + attn_oracle(h, visual.v, ins.attn)
    return h + (gelu(h @ ins.w1 + ins.b1) @ ins.w2 + ins.b2)


class TestCrossAttn:
    def test_sequence_length_stays_t(self):
        cfg = small_cfg(paradigm="crossattn")
        model = init_model(cfg)
        t_emb, visual = make_inputs(cfg, tokens=9)
        capture = ForwardCapture()
        assert forward(model, t_emb, visual, capture).shape == (9, cfg.C)
        assert all(h.shape == (9, cfg.C) for h in capture.hidden)

    def test_matches_oracle_reference(self):
        cfg = small_cfg(paradigm="crossattn")
        model = init_model(cfg)
        randomize_insert(model, make_rng(13), scale=0.2)
        t_emb, visual = make_inputs(cfg)

        h = t_emb + sinusoid_positions(np.arange(t_emb.shape[0]), cfg.C)
        for p in model.blocks:
            if p.insert is not None:
                h = insert_oracle(h, visual, p.insert)
            h = block_forward(h, replace(p, insert=None), cfg)
        ours = forward(model, t_emb, visual)
        assert np.max(np.abs(ours - h)) < 1e-10

    def test_block_runs_its_insert_before_the_plain_block(self):
        cfg = small_cfg(paradigm="crossattn")
        model = init_model(cfg)
        randomize_insert(model, make_rng(14), scale=0.2)
        l, p = next((l, b) for l, b in enumerate(model.blocks) if b.insert is not None)
        h, visual = make_inputs(cfg)
        ref = block_forward(insert_oracle(h, visual, p.insert), base_twin(model).blocks[l], cfg)
        assert np.max(np.abs(block_forward(h, p, cfg, visual) - ref)) < 1e-10


@pytest.mark.parametrize("overrides, pairs_per_layer", [
    (dict(paradigm="fmi"), 2),
    (dict(paradigm="incontext"), None),
    (dict(paradigm="crossattn"), None),
    (dict(paradigm="base"), None),
    (dict(paradigm="fmi", cond_kind="conv"), 2),
    (dict(paradigm="fmi", cond_kind="mlp", cond_visual_tokens=6), 2),
    (dict(paradigm="fmi", location="deep"), 2),
])
def test_capture_contract(overrides, pairs_per_layer):
    cfg = small_cfg(**overrides)
    model = init_model(cfg)
    randomize_modulation(model, make_rng(16), scale=0.2)
    randomize_insert(model, make_rng(17), scale=0.2)
    t_emb, visual = make_inputs(cfg)
    capture = ForwardCapture()
    out = forward(model, t_emb, visual, capture)
    assert len(capture.hidden) == cfg.L
    assert capture.hidden[-1].dtype == out.dtype
    assert capture.hidden[-1].tobytes() == out.tobytes()
    if pairs_per_layer is None:
        assert capture.modulation == {}
    else:
        assert tuple(sorted(capture.modulation)) == select_layers(cfg.L, cfg.frequency, cfg.location)
        assert all(len(pairs) == pairs_per_layer for pairs in capture.modulation.values())


@pytest.mark.parametrize("variant", [
    "base", "fmi_attn", "fmi_conv", "fmi_mlp", "incontext", "crossattn", "diagnose",
])
def test_forward_leaves_inputs_and_weights_unchanged(variant):
    # forward adds biases and applies GELU in place on buffers it allocates;
    # the caller's embeddings, visual tokens and weights must stay untouched
    paradigm, _, kind = variant.partition("_")
    cfg = small_cfg(
        paradigm="fmi" if paradigm == "diagnose" else paradigm,
        cond_kind=kind or "attn",
        cond_visual_tokens=6 if kind == "mlp" else None,
    )
    model = init_model(cfg)
    rng = make_rng(18)
    for arr in model_tensors(model).values():  # no zero-init bias may hide a write
        arr += rng.normal(scale=0.1, size=arr.shape)
    t_emb, visual = make_inputs(cfg)
    arrays = {"t_emb": t_emb, "visual.v": visual.v, **model_tensors(model)}
    before = {name: arr.tobytes() for name, arr in arrays.items()}
    if variant == "diagnose":
        modulation_influence(model, t_emb, visual)
        feature_drift(model, base_twin(model), t_emb, visual)
        diagnose(model, t_emb, visual)
    else:
        forward(model, t_emb, None if paradigm == "base" else visual)
    assert [name for name, arr in arrays.items() if arr.tobytes() != before[name]] == []


class TestDeterminismAndSeeding:
    def test_same_seed_same_model(self):
        cfg = small_cfg()
        t_emb, visual = make_inputs(cfg)
        a = forward(init_model(cfg), t_emb, visual)
        b = forward(init_model(cfg), t_emb, visual)
        assert np.array_equal(a, b)

    def test_base_weights_shared_across_paradigms(self):
        fmi = init_model(small_cfg())
        ctx = init_model(small_cfg(paradigm="incontext"))
        ca = init_model(small_cfg(paradigm="crossattn"))
        for a, b, c in zip(fmi.blocks, ctx.blocks, ca.blocks):
            assert np.array_equal(a.wq, b.wq) and np.array_equal(a.wq, c.wq)
            assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w1, c.w1)


_BLOCK_WEIGHT_LINES = (
    "ln1.alpha shape=4 dtype=f64", "ln1.beta shape=4 dtype=f64",
    "ln2.alpha shape=4 dtype=f64", "ln2.beta shape=4 dtype=f64",
    "attn.wq shape=4x4 dtype=f64", "attn.wk shape=4x4 dtype=f64",
    "attn.wv shape=4x4 dtype=f64", "attn.wo shape=4x4 dtype=f64",
    "ffn.w1 shape=4x8 dtype=f64", "ffn.b1 shape=8 dtype=f64",
    "ffn.w2 shape=8x4 dtype=f64", "ffn.b2 shape=4 dtype=f64",
)
_DELTA_PROJ_LINES = ("delta_proj.W shape=4x16 dtype=f64", "delta_proj.b shape=16 dtype=f64")
# block 0's extras at L=2, C=4, d_ff=8, frequency 0.5 (V=2 for mlp)
_EXTRA_WEIGHT_LINES = {
    "fmi_attn": _DELTA_PROJ_LINES + (
        "cond.attn.wq shape=4x4 dtype=f64", "cond.attn.wk shape=4x4 dtype=f64",
        "cond.attn.wv shape=4x4 dtype=f64", "cond.attn.wo shape=4x4 dtype=f64",
    ),
    "fmi_conv": _DELTA_PROJ_LINES + (
        "cond.conv.depthwise shape=4x3 dtype=f64", "cond.conv.pointwise shape=4x4 dtype=f64",
    ),
    "fmi_mlp": _DELTA_PROJ_LINES + (
        "cond.mlp.token_w1 shape=3x12 dtype=f64", "cond.mlp.token_b1 shape=12 dtype=f64",
        "cond.mlp.token_w2 shape=12x3 dtype=f64", "cond.mlp.token_b2 shape=3 dtype=f64",
        "cond.mlp.channel_w1 shape=4x16 dtype=f64", "cond.mlp.channel_b1 shape=16 dtype=f64",
        "cond.mlp.channel_w2 shape=16x4 dtype=f64", "cond.mlp.channel_b2 shape=4 dtype=f64",
    ),
    "crossattn": (
        "insert.attn.wq shape=4x4 dtype=f64", "insert.attn.wk shape=4x4 dtype=f64",
        "insert.attn.wv shape=4x4 dtype=f64", "insert.attn.wo shape=4x4 dtype=f64",
        "insert.ffn.w1 shape=4x8 dtype=f64", "insert.ffn.b1 shape=8 dtype=f64",
        "insert.ffn.w2 shape=8x4 dtype=f64", "insert.ffn.b2 shape=4 dtype=f64",
    ),
    "incontext": (),
}


class TestSerialization:
    def test_config_round_trip(self):
        cfg = small_cfg(cond_kind="mlp", cond_visual_tokens=6)
        assert config_from_kv(config_to_kv(cfg)) == cfg

    def test_descriptor_keys_are_pinned(self):
        """Every descriptor key, in order: saved descriptors keep them."""
        assert list(config_to_kv(ModelConfig())) == [
            "L", "C", "h", "d_ff", "paradigm", "cond_kind", "frequency", "location", "seed",
            "cond_kernel", "cond_token_exp", "cond_channel_exp", "cond_visual_tokens",
        ]

    @pytest.mark.parametrize("key, value", [
        ("cond_heads", "none"), ("modulate_attn", "true"), ("modulate_ffn", "true"),
        ("use_delta_alpha", "true"), ("use_delta_beta", "true"), ("norm_mode", "ln"), ("eps", "1e-05"),
    ])
    def test_removed_field_key_rejected(self, key, value):
        """A line of a field ModelConfig no longer has is named, not ignored;
        without that line the descriptor loads the same config."""
        kv = config_to_kv(small_cfg())
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            config_from_kv({**kv, key: value})
        assert config_from_kv(kv) == small_cfg()

    def test_unknown_key_rejected(self):
        kv = config_to_kv(small_cfg())
        kv["mystery"] = "1"
        with pytest.raises(ConfigError):
            config_from_kv(kv)

    def test_weight_names(self):
        model = init_model(small_cfg(frequency=0.5))
        names = set(model_tensors(model))
        assert "block0.ln1.alpha" in names
        assert "block0.delta_proj.W" in names  # layer 0 modulated under uniform 0.5
        assert "block0.cond.attn.wq" in names
        assert "block1.delta_proj.W" not in names

    @pytest.mark.parametrize("variant", list(_EXTRA_WEIGHT_LINES))
    def test_weight_manifest_is_pinned(self, variant, tmp_path):
        """Every weight name, in order, with its shape: saved files keep them."""
        paradigm, _, kind = variant.partition("_")
        cfg = ModelConfig(L=2, C=4, h=2, d_ff=8, paradigm=paradigm, cond_kind=kind or "attn",
                          frequency=0.5, cond_visual_tokens=2 if kind == "mlp" else None)
        lines = [f"block0.{line}" for line in _BLOCK_WEIGHT_LINES + _EXTRA_WEIGHT_LINES[variant]]
        lines += [f"block1.{line}" for line in _BLOCK_WEIGHT_LINES]
        if paradigm == "incontext":
            lines += ["connector.w shape=4x4 dtype=f64", "connector.b shape=4 dtype=f64"]
        model = init_model(cfg)
        assert list(model_tensors(model)) == [line.split(" ")[0] for line in lines]
        save_model(model, tmp_path / "model.cfg", tmp_path / "model.manifest")
        assert (tmp_path / "model.manifest").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("variant", ["base", "fmi_attn", "fmi_conv", "fmi_mlp", "incontext", "crossattn"])
    def test_cast_model_casts_every_array(self, variant):
        paradigm, _, kind = variant.partition("_")
        cfg = small_cfg(paradigm=paradigm, cond_kind=kind or "attn", cond_visual_tokens=6 if kind == "mlp" else None)
        model = init_model(cfg)
        cast = cast_model(model, np.float32)
        arrays = model_tensors(cast)
        assert list(arrays) == list(model_tensors(model))
        assert {arr.dtype for arr in arrays.values()} == {np.dtype(np.float32)}
        assert all(arr.dtype == np.float64 for arr in model_tensors(model).values())

    def test_model_round_trip(self, tmp_path):
        cfg = small_cfg()
        model = init_model(cfg)
        randomize_modulation(model, make_rng(14), scale=0.2)
        save_model(model, tmp_path / "model.cfg", tmp_path / "model.manifest")
        loaded = load_model(tmp_path / "model.cfg", tmp_path / "model.manifest")
        t_emb, visual = make_inputs(cfg)
        assert np.array_equal(
            forward(model, t_emb, visual), forward(loaded, t_emb, visual)
        )

    def test_dispatch_requires_visual(self):
        model = init_model(small_cfg())
        t_emb, _ = make_inputs(model.cfg)
        with pytest.raises(ConfigError):
            forward(model, t_emb, None)


def test_block_forward_without_visual_is_config_error():
    for paradigm in ("fmi", "crossattn"):
        model = init_model(small_cfg(paradigm=paradigm))
        t_emb, _ = make_inputs(model.cfg)
        with count_macs() as counter, pytest.raises(ConfigError):
            block_forward(t_emb, model.blocks[0], model.cfg)
        assert counter.macs == 0  # raised before any work


_VARIANTS = ("base", "fmi_attn", "fmi_conv", "fmi_mlp", "incontext", "crossattn")


def _variant_case(variant):
    paradigm, _, kind = variant.partition("_")
    cfg = small_cfg(paradigm=paradigm, cond_kind=kind or "attn", cond_visual_tokens=6 if kind == "mlp" else None)
    model = init_model(cfg)
    randomize_modulation(model, make_rng(16), scale=0.2)
    randomize_insert(model, make_rng(17), scale=0.2)
    t_emb, visual = make_inputs(cfg)
    return model, t_emb, None if paradigm == "base" else visual


@pytest.mark.parametrize("variant", _VARIANTS)
@pytest.mark.parametrize("shape", [(32,), (2, 8, 32), (8, 31)], ids=["1-D", "3-D", "other-C"])
def test_text_embeddings_not_t_by_c_are_a_shape_error(variant, shape):
    model, _, visual = _variant_case(variant)
    with pytest.raises(ShapeError, match=r"text embeddings must be \(T, C=32\)"):
        forward(model, np.zeros(shape), visual)


def _warnings_off():
    return np.errstate(over="ignore", invalid="ignore")


def _raises(model, t_emb, visual) -> bool:
    try:
        forward(model, t_emb, visual)
    except NumericError:
        return True
    return False


class TestBoundaryChecks:
    """forward checks finiteness at its boundaries, not after every op; it
    must give the verdict of every-op checking on every non-finite input."""

    @pytest.mark.parametrize("variant", _VARIANTS)
    def test_same_verdict_as_every_op_checking(self, variant, monkeypatch):
        model, t_emb, visual = _variant_case(variant)
        arrays = {"t_emb": t_emb, **model_tensors(model)}
        if visual is not None:
            arrays["v"] = visual.v
        every_op = []
        boundaries = []
        for name, arr in arrays.items():
            for index in (0, arr.size - 1):
                kept = arr.flat[index]
                for bad in (np.nan, np.inf, -np.inf):
                    arr.flat[index] = bad
                    # a scope that silences warnings, as the real one does, but lets every op check its output
                    with monkeypatch.context() as patch:
                        patch.setattr(model_module, "checks_at_boundaries", _warnings_off)
                        every_op.append((name, index, bad, _raises(model, t_emb, visual)))
                    boundaries.append((name, index, bad, _raises(model, t_emb, visual)))
                arr.flat[index] = kept
        assert [b for a, b in zip(every_op, boundaries) if a != b] == []
        assert ("t_emb", 0, np.nan, True) in boundaries
        if variant == "fmi_mlp":  # only column 0 of token_w2 reaches the output
            name = "block0.cond.mlp.token_w2"
            assert (name, arrays[name].size - 1, np.nan, False) in boundaries

    @staticmethod
    def _overflowing_logits_case(where):
        """A model whose logits overflow to -inf in one entry that softmax
        maps to an exact 0, so its output stays finite; T=2, C=4, one head.

        self_attention: query 0 against key 1, in the masked upper triangle;
        its q and k scale by about 1 at one of the two rows and 1e-10 at the
        other, so only that entry reaches -1e310. fmi/crossattn: each text
        token against the second of two visual tokens."""
        paradigm = "base" if where == "self_attention" else where
        cfg = ModelConfig(L=1, C=4, h=1, d_ff=8, paradigm=paradigm, frequency=1.0)  # default_heads(4) is 1
        model = init_model(cfg)
        rng = make_rng(5)
        t_emb = rng.normal(size=(2, 4))
        h = t_emb + sinusoid_positions(np.arange(2), 4)
        visual = VisualContext(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
        big = 1e155
        block = model.blocks[0]
        if where == "self_attention":
            x = layer_norm(h, block.ln1)[0]
            u = np.linalg.lstsq(x, np.array([-1.0, 1e-10]), rcond=None)[0]
            w = np.linalg.lstsq(x, np.array([1e-10, 1.0]), rcond=None)[0]
            block.wq = np.zeros((4, 4))
            block.wk = np.zeros((4, 4))
            block.wq[:, 0] = big * u
            block.wk[:, 0] = big * w
            return model, t_emb, None
        attn = block.modulation.cond if where == "fmi" else block.insert.attn
        attn.wq = np.zeros((4, 4))
        attn.wq[:, 0] = big * np.linalg.lstsq(h, np.ones(2), rcond=None)[0]
        attn.wk = np.diag([-big, 1.0, 1.0, 1.0])
        return model, t_emb, visual

    @pytest.mark.parametrize("where", ["self_attention", "fmi", "crossattn"])
    def test_logits_overflow_hidden_by_softmax_raises(self, where, monkeypatch):
        model, t_emb, visual = self._overflowing_logits_case(where)
        with pytest.raises(NumericError, match="attention logits"):
            forward(model, t_emb, visual)
        # the overflow is hidden downstream: without the boundary checks the output is finite
        for module in (model_module, tensors, norm):
            monkeypatch.setattr(module, "check_finite", lambda name, out: out)
        assert np.isfinite(forward(model, t_emb, visual)).all()

    def test_scope_and_errstate_are_restored_after_numeric_error(self):
        model, t_emb, visual = _variant_case("fmi_attn")
        t_emb[3, 5] = np.inf
        outside = np.geterr()
        with pytest.raises(NumericError):
            forward(model, t_emb, visual)
        assert np.geterr() == outside
        big = np.full((2, 2), 1e308)
        with pytest.raises(NumericError):
            matmul(big, big)
