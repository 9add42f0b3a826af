import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from featmod import costs
from featmod.costs import (
    BREAKDOWN_KEYS,
    FLOPS_RATIO_CASES,
    MODEL_FIELDS,
    VIDEO_SWEEP_BASE,
    CostConfig,
    cost_paradigm,
    flops_cond,
    flops_reduction_ratio,
    measured_flops,
    sweep_frames,
    write_cost_csv,
)
from featmod.criteria import ORACLE_CONFIGS
from featmod.model import PARADIGMS, ModelConfig, init_model, model_tensors, select_layers
from featmod.tensors import ConfigError

GOLDEN = Path(__file__).parent / "data" / "cost_video_golden.csv"
PARADIGMS_GOLDEN = Path(__file__).parent / "data" / "cost_paradigms_golden.csv"

# Shapes that reach every branch of the pricing: s > 128 (T=130, and the
# incontext prefix on top), V=1 under K=7 so the conv reach is cut short,
# K in {1, 3, 7}, k=4 frames, one- and four-byte elements, and token and
# channel expansions of 1 and 4.
GOLDEN_SHAPES = (
    dict(L=3, C=64, h=4, d_ff=96, T=130, V=3, k=4, frequency=0.5, bytes_per_elem=4,
         cond_token_exp=1, cond_channel_exp=4, cond_kernel=3),
    dict(L=8, C=8, h=2, d_ff=16, T=5, V=1, k=1, frequency=0.25, bytes_per_elem=1,
         cond_token_exp=4, cond_channel_exp=1, cond_kernel=7),
    dict(L=1, C=64, h=8, d_ff=16, T=1, V=200, k=4, frequency=1.0, bytes_per_elem=2,
         cond_token_exp=4, cond_channel_exp=4, cond_kernel=1),
)


class TestFlopsCond:
    def test_attn_linear_in_t_and_v(self):
        base = flops_cond("attn", 8, 16, 32)
        jump_t = flops_cond("attn", 16, 16, 32) - base
        assert flops_cond("attn", 24, 16, 32) - flops_cond("attn", 16, 16, 32) == jump_t
        jump_v = flops_cond("attn", 8, 32, 32) - base
        assert flops_cond("attn", 8, 48, 32) - flops_cond("attn", 8, 32, 32) == jump_v

    def test_zero_visual_rejected(self):
        with pytest.raises(ConfigError):
            flops_cond("attn", 4, 0, 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            flops_cond("gru", 4, 4, 8)


class TestOpWalkOracle:
    @pytest.mark.parametrize("paradigm", ["fmi", "incontext", "crossattn"])
    def test_three_tiny_configs_per_paradigm(self, paradigm):
        """Exact per config, where criterion 7 allows a 1 percent gap."""
        for cfg in (c for c in ORACLE_CONFIGS if c.paradigm == paradigm):
            assert cost_paradigm(cfg).total_flops == measured_flops(cfg)

    def test_base_paradigm(self):
        cfg = CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=1, paradigm="base")
        assert cost_paradigm(cfg).total_flops == measured_flops(cfg)


@pytest.mark.parametrize("cfg", [*ORACLE_CONFIGS, CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=1, paradigm="base")])
def test_weight_bytes_price_every_model_parameter(cfg):
    """weight_bytes against the arrays of the model the op-walk builds for cfg."""
    model_cfg = ModelConfig(
        **{name: getattr(cfg, name) for name in MODEL_FIELDS},
        cond_visual_tokens=cfg.v_total if cfg.cond_kind == "mlp" else None,
    )
    params = sum(a.size for a in model_tensors(init_model(model_cfg)).values())
    assert cost_paradigm(cfg).weight_bytes == cfg.bytes_per_elem * params


class TestReportStructure:
    def test_breakdown_sums_to_total(self):
        for cfg in ORACLE_CONFIGS:
            report = cost_paradigm(cfg)
            assert report.total_flops == sum(report.breakdown.values())
            assert set(report.breakdown) == set(BREAKDOWN_KEYS)
            assert all(v >= 0 for v in report.breakdown.values())

    def test_seq_len_per_paradigm(self):
        cfg = CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, k=2, paradigm="incontext")
        assert cost_paradigm(cfg).seq_len == 11
        assert cost_paradigm(replace(cfg, paradigm="fmi")).seq_len == 5

    def test_bytes_per_elem_scales_kv_and_activation_exactly(self):
        cfg = replace(VIDEO_SWEEP_BASE, paradigm="incontext", k=16)
        r2 = cost_paradigm(cfg)
        r4 = cost_paradigm(replace(cfg, bytes_per_elem=4))
        assert r4.kv_cache_bytes == 2 * r2.kv_cache_bytes
        assert r4.peak_activation_bytes == 2 * r2.peak_activation_bytes


class TestParadigmOrdering:
    @given(
        layers=st.integers(min_value=2, max_value=32),
        c_exp=st.integers(min_value=4, max_value=7),
        ff_mult=st.integers(min_value=3, max_value=8),
        t=st.integers(min_value=1, max_value=256),
        v_mult=st.integers(min_value=1, max_value=32),
        k=st.integers(min_value=1, max_value=16),
        frequency=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    )
    def test_fmi_below_crossattn_below_incontext(self, layers, c_exp, ff_mult, t, v_mult, k, frequency):
        c = 2 ** c_exp
        v = max(1, (t * v_mult) // k)  # keeps k * v >= t for v_mult >= 1
        if k * v < t:
            v = -(-t // k)
        common = dict(L=layers, C=c, h=4, d_ff=ff_mult * c, T=t, V=v, k=k, frequency=frequency)
        if round(frequency * layers) < 1:
            return
        fmi = cost_paradigm(CostConfig(paradigm="fmi", cond_kind="attn", **common)).total_flops
        ca = cost_paradigm(CostConfig(paradigm="crossattn", **common)).total_flops
        ctx = cost_paradigm(CostConfig(paradigm="incontext", **common)).total_flops
        assert fmi < ca < ctx


class TestReferenceRatios:
    def test_qwen_case_matches_stated_band(self):
        case = FLOPS_RATIO_CASES[2]
        assert case.text_tokens == 128
        ratio = flops_reduction_ratio(case)
        assert 12.0 <= ratio <= 22.0


class TestVisualScalingStructure:
    def test_fmi_linear_incontext_superlinear_in_visual_tokens(self):
        def totals(paradigm):
            return [
                cost_paradigm(
                    CostConfig(L=4, C=64, h=4, d_ff=256, T=32, V=v, paradigm=paradigm)
                ).total_flops
                for v in (64, 128, 192)
            ]

        fmi = totals("fmi")
        assert fmi[2] - fmi[1] == fmi[1] - fmi[0]
        ctx = totals("incontext")
        assert ctx[2] - ctx[1] > ctx[1] - ctx[0]


class TestFrameSweep:
    def test_monotone_in_k_for_every_paradigm(self):
        ks = [8, 16, 32, 64, 128]
        for paradigm in ("fmi", "incontext", "crossattn"):
            reports = sweep_frames(replace(VIDEO_SWEEP_BASE, paradigm=paradigm), ks)
            totals = [r.total_flops for r in reports]
            assert totals == sorted(totals)

    def test_descending_frames_rejected(self):
        with pytest.raises(ConfigError):
            sweep_frames(VIDEO_SWEEP_BASE, [16, 8])


class TestMemoryEstimate:
    def test_weights_dominate_at_single_frame(self):
        cfg = replace(VIDEO_SWEEP_BASE, k=1)
        report = cost_paradigm(cfg)
        assert report.weight_bytes > report.kv_cache_bytes + report.peak_activation_bytes

    def test_estimate_is_component_sum(self):
        cfg = replace(VIDEO_SWEEP_BASE, paradigm="incontext", k=32)
        report = cost_paradigm(cfg)
        assert report.memory_total_bytes == (
            report.kv_cache_bytes + report.peak_activation_bytes + report.weight_bytes
        )


class TestGoldenCsv:
    def test_video_sweep_regression(self, tmp_path):
        reports = []
        for paradigm in ("fmi", "incontext", "crossattn"):
            reports.extend(
                sweep_frames(replace(VIDEO_SWEEP_BASE, paradigm=paradigm), [8, 16, 32, 64, 128])
            )
        out = tmp_path / "cost.csv"
        write_cost_csv(out, reports)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_every_paradigm_and_kind(self, tmp_path):
        """Every report field of every paradigm under every conditioner kind."""
        reports = [
            cost_paradigm(CostConfig(paradigm=paradigm, cond_kind=kind, **shape))
            for shape in GOLDEN_SHAPES for paradigm in PARADIGMS for kind in ("attn", "conv", "mlp")
        ]
        out = tmp_path / "cost.csv"
        write_cost_csv(out, reports)
        assert out.read_bytes() == PARADIGMS_GOLDEN.read_bytes()


def _rejects(check) -> bool:
    try:
        check()
    except ConfigError:
        return True
    return False


class TestValidation:
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_valid_exactly_when_the_priced_model_is(self, paradigm):
        grid = itertools.product(
            range(1, 9), (0.01, 0.1, 0.25, 0.5, 1.0, 1.5), (32, 30), (0, 2), ("attn", "mlp")
        )
        for layers, frequency, c, token_exp, kind in grid:
            cfg = CostConfig(
                L=layers, C=c, h=4, d_ff=64, T=3, V=2, paradigm=paradigm,
                cond_kind=kind, frequency=frequency, cond_token_exp=token_exp,
            )
            model_rejects = _rejects(cfg.model_config().validate)
            assert _rejects(cfg.validate) == model_rejects, cfg
            if paradigm in ("fmi", "crossattn") and not model_rejects:
                assert cfg.n_injected == len(select_layers(layers, frequency, "uniform"))

    @pytest.mark.parametrize("paradigm", ["fmi", "crossattn"])
    def test_kernel_valid_exactly_when_the_model_builds(self, paradigm):
        """An even cond_kernel is rejected where the model builds a conv conditioner."""
        for kernel, kind in itertools.product(range(1, 9), ("conv", "attn")):
            cfg = CostConfig(L=4, C=32, h=4, d_ff=64, T=3, V=2, paradigm=paradigm, cond_kind=kind,
                             frequency=0.5, cond_kernel=kernel)
            assert _rejects(cfg.validate) == _rejects(lambda: init_model(cfg.model_config())), cfg
            assert _rejects(cfg.validate) == (paradigm == "fmi" and kind == "conv" and kernel % 2 == 0)

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_heads_valid_exactly_when_the_model_builds(self, paradigm):
        """The attn conditioner and the crossattn insert run default_heads(C)
        heads, 8 from C = 64 up, which must divide C."""
        for c, kind in itertools.product((32, 64, 68, 100), ("attn", "conv", "mlp")):
            cfg = CostConfig(L=4, C=c, h=4, d_ff=64, T=3, V=2, paradigm=paradigm, cond_kind=kind, frequency=0.5)
            assert _rejects(cfg.validate) == _rejects(lambda: init_model(cfg.model_config())), cfg
            attention = paradigm == "crossattn" or (paradigm == "fmi" and kind == "attn")
            assert _rejects(cfg.validate) == (attention and c in (68, 100)), cfg

    @pytest.mark.parametrize("paradigm", ["fmi", "crossattn"])
    def test_report_reads_the_layer_selection_once(self, paradigm, monkeypatch):
        calls = []
        monkeypatch.setattr(costs, "select_layers", lambda *args: calls.append(args) or select_layers(*args))
        cost_paradigm(replace(VIDEO_SWEEP_BASE, paradigm=paradigm))
        assert calls == [(VIDEO_SWEEP_BASE.L, VIDEO_SWEEP_BASE.frequency, "uniform")]

    @pytest.mark.parametrize("name", ["T", "V", "k", "bytes_per_elem"])
    def test_own_sizes_below_one_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            replace(VIDEO_SWEEP_BASE, **{name: 0}).validate()

    def test_incontext_price_ignores_frequency(self):
        cfg = replace(VIDEO_SWEEP_BASE, paradigm="incontext", k=8)
        assert cost_paradigm(replace(cfg, frequency=0)) == cost_paradigm(cfg)

    def test_mlp_model_config_takes_all_visual_tokens(self):
        cfg = CostConfig(L=2, C=8, h=2, d_ff=16, T=5, V=3, k=2, cond_kind="mlp")
        assert cfg.model_config(seed=4) == ModelConfig(
            L=2, C=8, h=2, d_ff=16, cond_kind="mlp", cond_visual_tokens=6, seed=4
        )
