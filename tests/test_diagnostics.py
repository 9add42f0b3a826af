import numpy as np
import pytest

from featmod.conditioning import VisualContext
from featmod.diagnostics import (
    _row_distances,
    cosine_distance,
    diagnose,
    feature_drift,
    modulation_influence,
    write_trace_csv,
)
from featmod import model as model_module
from featmod.model import (
    ForwardCapture,
    ModelConfig,
    base_twin,
    forward,
    init_model,
    randomize_insert,
    randomize_modulation,
    select_layers,
)
from featmod.tensors import ConfigError, NumericError, make_rng


def fmi_setup(seed=21, randomized=False, **overrides):
    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", frequency=0.5, seed=seed, **overrides)
    model = init_model(cfg)
    if randomized:
        randomize_modulation(model, make_rng(seed + 1), scale=0.2)
    rng = make_rng(seed + 2)
    t_emb = rng.normal(size=(8, cfg.C))
    visual = VisualContext(rng.normal(size=(6, cfg.C)), "synthetic")
    return model, t_emb, visual


class TestCosineDistance:
    def test_self_distance_zero(self):
        x = make_rng(0).normal(size=16)
        assert cosine_distance(x, x) == 0.0

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_antipodal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0

    def test_degenerate_conventions(self):
        zero = np.zeros(4)
        other = np.ones(4)
        assert cosine_distance(zero, zero) == 0.0
        assert cosine_distance(zero, other) == 1.0
        assert cosine_distance(other, zero) == 1.0

    def test_range(self):
        rng = make_rng(1)
        for _ in range(200):
            d = cosine_distance(rng.normal(size=8), rng.normal(size=8))
            assert 0.0 <= d <= 2.0


class TestRowDistances:
    """_row_distances is the vectorised form of cosine_distance per row."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows, width", [(1, 1), (8, 32), (16, 256), (5, 1000)])
    def test_bit_identical_to_scalar_loop(self, dtype, rows, width):
        rng = make_rng(rows * width)
        a = rng.normal(size=(rows, width)).astype(dtype)
        b = (a + rng.normal(scale=1e-3, size=(rows, width))).astype(dtype)
        loop = np.array([cosine_distance(a[i], b[i]) for i in range(rows)])
        assert _row_distances(a, b).tobytes() == loop.tobytes()

    def test_conventions_match_scalar_loop(self):
        rng = make_rng(5)
        a = rng.normal(size=(6, 16))
        b = rng.normal(size=(6, 16))
        b[0] = a[0]           # identical rows
        a[1] = 0.0            # one zero row
        b[2] = 0.0            # the other zero row
        a[3] = b[3] = 0.0     # two zero rows
        b[4] = -a[4]          # antipodal
        got = _row_distances(a, b)
        assert list(got[:4]) == [0.0, 1.0, 1.0, 0.0]
        assert got.tobytes() == np.array([cosine_distance(x, y) for x, y in zip(a, b)]).tobytes()


class TestModulationInfluence:
    def test_zero_init_is_identically_zero(self):
        model, t_emb, visual = fmi_setup()
        trace = modulation_influence(model, t_emb, visual)
        assert trace.layers == [0, 2]
        assert np.array_equal(trace.per_token, np.zeros((2, 8)))

    def test_aggregates_match_recomputation(self):
        model, t_emb, visual = fmi_setup(randomized=True)
        trace = modulation_influence(model, t_emb, visual)
        for stats, row in zip(trace.per_layer, trace.per_token):
            assert stats.mean == float(row.mean())
            assert stats.min == float(row.min())
            assert stats.max == float(row.max())

    def test_randomized_model_has_nonzero_influence(self):
        model, t_emb, visual = fmi_setup(randomized=True)
        trace = modulation_influence(model, t_emb, visual)
        assert any(stats.max > 0.0 for stats in trace.per_layer)

    def test_distances_within_cosine_range(self):
        model, t_emb, visual = fmi_setup(randomized=True)
        trace = modulation_influence(model, t_emb, visual)
        assert np.all(trace.per_token >= 0.0) and np.all(trace.per_token <= 2.0)

    def test_rejects_non_fmi_model(self):
        model, t_emb, visual = fmi_setup()
        with pytest.raises(ConfigError):
            modulation_influence(base_twin(model), t_emb, visual)

    @pytest.mark.parametrize("location", ["uniform", "shallow", "middle", "deep"])
    def test_one_row_per_selected_layer(self, location):
        """The trace covers exactly the layers the plan modulates, one row of per-token distances each."""
        model, t_emb, visual = fmi_setup(randomized=True, location=location)
        trace = modulation_influence(model, t_emb, visual)
        assert trace.layers == list(select_layers(4, 0.5, location))
        assert trace.per_token.shape == (2, 8) and len(trace.per_layer) == 2

    def test_stops_after_the_last_modulated_block(self, monkeypatch):
        """Blocks 0 and 2 of 4 are modulated: block 3 never runs, and the trace
        is that of a full forward's capture, bit for bit."""
        model, t_emb, visual = fmi_setup(randomized=True)
        capture = ForwardCapture()
        forward(model, t_emb, visual, capture)
        ran = []
        original = model_module.block_forward
        monkeypatch.setattr(model_module, "block_forward", lambda h, p, *a: ran.append(p) or original(h, p, *a))
        trace = modulation_influence(model, t_emb, visual)
        assert ran == model.blocks[:3]
        full = [np.mean([_row_distances(a, b) for a, b in capture.modulation[l]], axis=0) for l in (0, 2)]
        assert trace.per_token.tobytes() == np.array(full).tobytes()

    def test_nan_after_the_last_modulated_block_raises_in_drift_only(self):
        model, t_emb, visual = fmi_setup(randomized=True)
        model.blocks[3].w2[0, 0] = np.nan
        assert np.all(np.isfinite(modulation_influence(model, t_emb, visual).per_token))
        with pytest.raises(NumericError, match="block 3"):
            feature_drift(model, base_twin(model), t_emb, visual)


class TestFeatureDrift:
    def test_base_against_itself_is_zero(self):
        model, t_emb, _ = fmi_setup()
        base = base_twin(model)
        trace = feature_drift(base, base_twin(base), t_emb, None)
        assert trace.layers == [0, 1, 2, 3]
        assert np.array_equal(trace.per_token, np.zeros((4, 8)))

    def test_zero_init_fmi_against_base_is_zero(self):
        model, t_emb, visual = fmi_setup()
        trace = feature_drift(model, base_twin(model), t_emb, visual)
        assert np.array_equal(trace.per_token, np.zeros((4, 8)))

    def test_randomized_fmi_drifts(self):
        model, t_emb, visual = fmi_setup(randomized=True)
        trace = feature_drift(model, base_twin(model), t_emb, visual)
        assert float(trace.per_token.max()) > 0.0

    def test_crossattn_vs_fmi_observation(self):
        # paired-seed comparison; recorded as an observation, not an invariant
        model, t_emb, visual = fmi_setup(randomized=True)
        ca_cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="crossattn", frequency=0.5, seed=21)
        ca = init_model(ca_cfg)
        randomize_insert(ca, make_rng(22), scale=0.2)
        fmi_trace = feature_drift(model, base_twin(model), t_emb, visual)
        ca_trace = feature_drift(ca, base_twin(ca), t_emb, visual)
        assert float(ca_trace.per_token.max()) > 0.0
        assert float(fmi_trace.per_token.max()) > 0.0

    def test_incontext_alignment_uses_text_tail(self):
        cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="incontext", seed=23)
        model = init_model(cfg)
        rng = make_rng(24)
        t_emb = rng.normal(size=(8, cfg.C))
        visual = VisualContext(rng.normal(size=(5, cfg.C)), "synthetic")
        trace = feature_drift(model, base_twin(model), t_emb, visual)
        assert trace.per_token.shape == (4, 8)

    def test_depth_mismatch_rejected(self):
        model, t_emb, visual = fmi_setup()
        other = init_model(ModelConfig(L=3, C=32, h=4, d_ff=64, paradigm="base", seed=0))
        with pytest.raises(ConfigError):
            feature_drift(model, other, t_emb, visual)


class TestDiagnose:
    @pytest.mark.parametrize("overrides", [
        dict(cond_kind="attn"),
        dict(cond_kind="conv"),
        dict(cond_kind="mlp", cond_visual_tokens=6),
        dict(location="shallow"),
        dict(location="deep"),
    ], ids=["attn", "conv", "mlp", "shallow", "deep"])
    def test_equals_the_two_probes_bit_for_bit(self, overrides):
        model, t_emb, visual = fmi_setup(randomized=True, **overrides)
        influence, drift = diagnose(model, t_emb, visual)
        for got, want in [
            (influence, modulation_influence(model, t_emb, visual)),
            (drift, feature_drift(model, base_twin(model), t_emb, visual)),
        ]:
            assert got.layers == want.layers
            assert got.per_token.tobytes() == want.per_token.tobytes()

    def test_rejects_non_fmi_model(self):
        ca = init_model(ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="crossattn", frequency=0.5, seed=21))
        _, t_emb, visual = fmi_setup()
        with pytest.raises(ConfigError):
            diagnose(ca, t_emb, visual)


class TestTraceCsv:
    def test_deterministic_bytes(self, tmp_path):
        model, t_emb, visual = fmi_setup(randomized=True)
        trace = modulation_influence(model, t_emb, visual)
        write_trace_csv(tmp_path / "a.csv", trace)
        write_trace_csv(tmp_path / "b.csv", trace)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_round_trippable_values(self, tmp_path):
        import csv

        model, t_emb, visual = fmi_setup(randomized=True)
        trace = modulation_influence(model, t_emb, visual)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == trace.per_token.size
        for row in rows:
            layer_idx = trace.layers.index(int(row["layer"]))
            stored = trace.per_token[layer_idx, int(row["token"])]
            assert np.isclose(float(row["distance"]), stored, rtol=1e-11, atol=1e-300)
            assert row["label"] == ""
