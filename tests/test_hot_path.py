"""The hot-path convention: ops call numpy's ufuncs and ufunc methods
directly, never numpy's Python-level wrappers, and every rewritten reduction
gives the bits of the wrapper it replaces.

The references below are the wrapper forms that the ops replace
(``x.mean``, ``np.max``, ``np.sum``, ``.all()``, ``np.clip``, ``np.all``,
``row.mean()``); each test compares bytes, not values.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from featmod import conditioning
from featmod import model as model_module
from featmod import norm
from featmod.conditioning import AttnCondParams, ConvCondParams, MlpCondParams, VisualContext, gradcheck_conditioner
from featmod.diagnostics import DiagnosticTrace, _row_distances, diagnose
from featmod.model import (
    ForwardCapture,
    ModelConfig,
    forward,
    init_model,
    randomize_insert,
    randomize_modulation,
)
from featmod.norm import LNParams, _normalize, gradcheck_viln, layer_norm, random_viln_point, viln_apply
from featmod.tensors import NumericError, check_finite, checks_at_boundaries, make_rng, softmax_lastdim

VARIANTS = ("base", "fmi_attn", "fmi_conv", "fmi_mlp", "incontext", "crossattn")
WRAPPER_DIRS = {"core", "_core"}  # numpy 1 keeps the wrappers in numpy/core, numpy 2 in numpy/_core
WRAPPER_FILES = {"_methods.py", "fromnumeric.py"}


def desk_model(variant, seed=3):
    """A randomized model of the desk shape: L=4, C=32, T=8, V=6."""
    paradigm, _, kind = variant.partition("_")
    cfg = ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm=paradigm, cond_kind=kind or "attn", frequency=0.5,
                      seed=seed, cond_visual_tokens=6 if kind == "mlp" else None)
    model = init_model(cfg)
    randomize_modulation(model, make_rng(seed + 1))
    randomize_insert(model, make_rng(seed + 2))
    return model


def desk_inputs(seed=3):
    rng = make_rng(seed + 3)
    return rng.normal(size=(8, 32)), VisualContext(rng.normal(size=(6, 32)), "synthetic")


def wrapper_calls(fn) -> list[str]:
    """Calls into numpy's (_)core/_methods.py and (_)core/fromnumeric.py while
    fn runs, on this thread and on every thread started meanwhile."""
    calls = []

    def profile(frame, event, arg):
        parts = Path(frame.f_code.co_filename).parts
        if event == "call" and parts[-1] in WRAPPER_FILES and parts[-2] in WRAPPER_DIRS:
            caller = frame.f_back
            calls.append(f"{frame.f_code.co_name} from {Path(caller.f_code.co_filename).name}:{caller.f_lineno}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
    return calls


def hot_paths():
    """One desk forward per paradigm, one fmi/mlp forward whose token mix
    runs in several tiles (T=32, V=64), one diagnosis with its aggregates,
    one gradient check per conditioner kind and one of the ViLN pipeline."""
    t_emb, visual = desk_inputs()
    models = {variant: desk_model(variant) for variant in VARIANTS}
    rng = make_rng(8)
    tiled = init_model(ModelConfig(L=4, C=32, h=4, d_ff=64, paradigm="fmi", cond_kind="mlp", frequency=0.5,
                                   seed=8, cond_visual_tokens=64))
    randomize_modulation(tiled, rng)
    t_tiled, v_tiled = rng.normal(size=(32, 32)), VisualContext(rng.normal(size=(64, 32)), "synthetic")
    rng = make_rng(9)
    points = {
        "attn": AttnCondParams.init(rng, 8, heads=2, std=0.3),
        "conv": ConvCondParams.init(rng, 8, kernel=3, std=0.3),
        "mlp": MlpCondParams.init(rng, 8, 3, token_exp=2, channel_exp=2, std=0.3),
    }
    t_small = rng.normal(size=(3, 8))
    v_small = VisualContext(rng.normal(size=(3, 8)), "synthetic")
    viln_point = random_viln_point(rng)

    def run():
        for variant, m in models.items():
            forward(m, t_emb, None if variant == "base" else visual)
        forward(tiled, t_tiled, v_tiled)
        for trace in diagnose(models["fmi_attn"], t_emb, visual):
            trace.per_layer
        for kind, params in points.items():
            gradcheck_conditioner(kind, t_small, v_small, params)
        gradcheck_viln(viln_point)

    return run


def test_hot_paths_never_call_numpy_python_wrappers(monkeypatch):
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 2)  # the token mix runs on a worker thread too
    run = hot_paths()
    run()  # first calls may import lazily
    # a fresh pool, so its threads start under the profile
    monkeypatch.setattr(conditioning, "_pool", None)
    assert wrapper_calls(run) == []
    assert conditioning._pool is not None


def test_wrapper_calls_are_seen():
    x = np.ones((2, 3))
    assert wrapper_calls(lambda: (x.mean(axis=-1), np.max(x))) != []

    def on_a_thread():
        thread = threading.Thread(target=x.mean)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    assert wrapper_calls(on_a_thread) != []


# ---------------------------------------------------------------------------
# Bit for bit against the wrappers

def normalize_with_wrappers(x, eps, mode):
    mu = x.mean(axis=-1, keepdims=True) if mode == "ln" else np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)
    centered = x - mu
    denom = np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True)) + eps
    return centered / denom, mu, denom


def same_bits(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestNormalize:
    @pytest.mark.parametrize("mode", ["ln", "rms"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    @pytest.mark.parametrize("shape", [(1, 1), (8, 32), (3, 5, 7), (2, 3, 4, 1000)])
    def test_float_rows(self, mode, dtype, shape):
        rng = make_rng(sum(shape))
        x = (rng.normal(loc=3.0, scale=50.0, size=shape)).astype(dtype)
        x[..., 0, :] = x[..., 0, :1]  # a constant row
        params = LNParams(np.ones(shape[-1], dtype), np.zeros(shape[-1], dtype), 1e-5)
        for got, expected in zip(_normalize(x, params, mode), normalize_with_wrappers(x, 1e-5, mode)):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("dtype, mode", [(np.int64, "ln"), (np.int64, "rms"), (np.int32, "ln"),
                                             (np.uint8, "ln"), (np.bool_, "ln")])
    def test_integer_and_bool_rows_sum_in_float64(self, dtype, mode):
        x = make_rng(2).integers(0, 200, size=(4, 6, 9)).astype(dtype)
        params = LNParams(np.ones(9), np.zeros(9), 1e-5)
        got = _normalize(x, params, mode)
        assert got[0].dtype == np.float64
        for g, expected in zip(got, normalize_with_wrappers(x, 1e-5, mode)):
            assert same_bits(g, expected)


def softmax_with_wrappers(x):
    out = x - np.max(x, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


class TestSoftmax:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_rows(self, dtype):
        x = make_rng(4).normal(scale=30.0, size=(3, 9, 9)).astype(dtype)
        x += np.triu(np.full((9, 9), -np.inf), k=1).astype(dtype)  # causal: row i keeps keys 0..i
        assert same_bits(softmax_lastdim(x), softmax_with_wrappers(x))

    def test_out_is_x(self):
        x = make_rng(5).normal(scale=10.0, size=(4, 6, 13))
        expected = softmax_with_wrappers(x)
        assert softmax_lastdim(x, out=x) is x
        assert same_bits(x, expected)

    def test_nan_and_fully_masked_rows(self):
        x = make_rng(6).normal(size=(5, 7))
        x[1, 3] = np.nan
        x[2] = -np.inf
        x[3, 0] = np.inf
        with checks_at_boundaries():
            got = softmax_lastdim(x)
        with np.errstate(invalid="ignore"):
            assert same_bits(got, softmax_with_wrappers(x))
        assert np.isnan(got[1:4]).all() and np.isfinite(got[[0, 4]]).all()
        with pytest.raises(NumericError):
            softmax_lastdim(x)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [
        np.array(1.5), np.array(np.nan), np.array(np.inf), np.array(-np.inf), np.float64(2.0), np.float32(np.nan),
        np.zeros((0,)), np.zeros((3, 0, 2)), np.ones((2, 3)), np.array([[1.0, np.nan]]),
        np.array([np.inf, 1.0], np.float32), np.array([1.0, -np.inf]),
    ], ids=lambda v: f"{np.shape(v)}-{np.asarray(v).dtype}-{np.asarray(v).ravel()[:2]}")
    def test_raises_exactly_when_all_rejects(self, value):
        if np.isfinite(value).all():
            assert check_finite("v", value) is value
        else:
            with pytest.raises(NumericError, match="v produced non-finite values"):
                check_finite("v", value)


def unclipped_distances(a, b):
    """1 - r per row, before the clip, and the two row norms."""
    na = np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0]).astype(np.float64)
    nb = np.sqrt((b[:, None, :] @ b[:, :, None])[:, 0, 0]).astype(np.float64)
    dots = (a[:, None, :] @ b[:, :, None])[:, 0, 0].astype(np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return 1.0 - dots / (na * nb), na, nb


def row_distances_with_wrappers(a, b):
    unclipped, na, nb = unclipped_distances(a, b)
    out = np.clip(unclipped, 0.0, 2.0)
    out[(na == 0.0) | (nb == 0.0)] = 1.0
    out[np.all(a == b, axis=1)] = 0.0
    return out


class TestRowDistances:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conventions_and_clips(self, dtype):
        rng = make_rng(7)
        a = rng.normal(size=(400, 16))
        b = a * rng.uniform(0.1, 10.0, size=(400, 1))  # parallel: 1 - r rounds to 0, or below it
        b[200:] = -b[200:]                             # antiparallel: 1 - r at or above 2
        a[0] = 0.0                   # one zero row
        b[1] = 0.0                   # the other zero row
        a[2] = b[2] = 0.0            # two zero rows
        b[3] = a[3]                  # identical rows
        a[4, 0], b[5, 1] = np.nan, np.inf
        a, b = a.astype(dtype), b.astype(dtype)
        unclipped = unclipped_distances(a, b)[0]
        assert (unclipped < 0.0).any() and (unclipped > 2.0).any()  # both clips are exercised
        got = _row_distances(a, b)
        assert same_bits(got, row_distances_with_wrappers(a, b))
        assert list(got[:4]) == [1.0, 1.0, 0.0, 0.0]
        zeros = got[got == 0.0]
        assert zeros.size > 3 and not np.signbit(zeros).any()  # the CSVs print -0 and 0 differently


class TestPerLayer:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tokens", [1, 7, 8, 333])
    def test_aggregates(self, dtype, tokens):
        per_token = make_rng(tokens).uniform(0.0, 2.0, size=(40, tokens)).astype(dtype)
        per_token[1, 0] = np.nan
        layers = list(range(0, 80, 2))
        trace = DiagnosticTrace(layers=layers, per_token=per_token)
        got = np.array([(s.mean, s.min, s.max) for s in trace.per_layer])
        expected = np.array([(float(row.mean()), float(row.min()), float(row.max())) for row in per_token])
        assert [s.layer for s in trace.per_layer] == layers
        assert same_bits(got, expected)


# ---------------------------------------------------------------------------
# One normalization per captured slot

def test_captured_slot_normalizes_once(monkeypatch):
    model = desk_model("fmi_attn")
    t_emb, visual = desk_inputs()
    calls = []
    original = norm._normalize
    monkeypatch.setattr(norm, "_normalize", lambda x, *a: calls.append(x) or original(x, *a))
    capture = ForwardCapture()
    out = forward(model, t_emb, visual, capture)
    assert len(calls) == 2 * len(model.blocks)
    plain_run = forward(model, t_emb, visual)
    assert out.tobytes() == plain_run.tobytes()
    assert len(calls) == 4 * len(model.blocks)


def test_captured_pairs_are_the_separate_slot_outputs():
    model = desk_model("fmi_attn")
    t_emb, visual = desk_inputs()
    capture = ForwardCapture()
    forward(model, t_emb, visual, capture)
    h = capture.hidden[1]
    p = model.blocks[2]
    pairs = []
    model_module.block_forward(h, p, model.cfg, visual, pairs)
    deltas = norm.project_deltas(
        model_module.apply_conditioner(model.cfg.cond_kind, h, visual.v, p.modulation.cond), p.modulation.proj)
    plain, modulated = pairs[0]
    assert plain.tobytes() == layer_norm(h, p.ln1)[0].tobytes()
    assert modulated.tobytes() == viln_apply(h, deltas[0], p.ln1).tobytes()
    assert capture.modulation[2][0][0].tobytes() == plain.tobytes()

