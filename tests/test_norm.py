import warnings

import numpy as np
import pytest

from dataclasses import replace

from featmod.norm import (
    DeltaProjection,
    LNParams,
    central_differences,
    gradcheck_viln,
    layer_norm,
    project_deltas,
    random_viln_point,
    viln_pipeline_gradients,
    viln_apply,
)
from featmod import norm
from featmod.tensors import ConfigError, NumericError, ShapeError, checks_at_boundaries, make_rng

# eps below double resolution behaves as exact zero while satisfying eps > 0
EPS0 = 1e-300


def identity_params(channels, eps=EPS0):
    return LNParams(np.ones(channels), np.zeros(channels), eps)


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        out, _ = layer_norm(np.ones((1, 4)), identity_params(4, eps=1e-5))
        assert np.max(np.abs(out)) < 1e-10

    def test_already_normalized_row(self):
        out, _ = layer_norm(np.array([[1.0, -1.0]]), identity_params(2))
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-12)

    def test_hand_computed(self):
        out, _ = layer_norm(np.array([[1.0, 2.0, 3.0, 4.0]]), identity_params(4))
        expected = [-1.3416, -0.4472, 0.4472, 1.3416]
        assert np.allclose(out[0], expected, atol=1e-4)

    def test_normalization_statistics(self):
        rng = make_rng(0)
        x = rng.normal(size=(1000, 16))
        _, xhat = layer_norm(x, identity_params(16))
        assert np.max(np.abs(xhat.mean(axis=1))) <= 1e-10
        assert np.max(np.abs(xhat.std(axis=1) - 1.0)) <= 1e-8

    def test_scale_invariance(self):
        rng = make_rng(1)
        x = rng.normal(size=(32, 8))
        base, _ = layer_norm(x, identity_params(8))
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled, _ = layer_norm(c * x, identity_params(8))
            assert np.max(np.abs(scaled - base)) < 1e-10

    def test_eps_must_be_positive(self):
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                LNParams(np.ones(2), np.zeros(2), eps=eps)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
    def test_affine_width_must_match_channels(self, width, stacked):
        """A (C',) or (3, C') alpha with C' != C is rejected, not broadcast over C channels."""
        x = make_rng(16).normal(size=(3, 4))
        params = LNParams(np.ones((3, width) if stacked else width), np.zeros(width))
        with pytest.raises(ShapeError):
            layer_norm(x, params)
        with pytest.raises(ShapeError):
            viln_apply(x, (np.zeros((3, 4)), np.zeros((3, 4))), params)

    def test_params_accept_a_leading_batch_axis(self):
        LNParams(np.ones((3, 4)), np.zeros(4))
        LNParams(np.ones(4), np.zeros((3, 4)))
        DeltaProjection(np.zeros((3, 5, 16)), np.zeros(16))
        DeltaProjection(np.zeros((5, 16)), np.zeros((3, 16)))

    @pytest.mark.parametrize("alpha, beta", [
        (np.float64(1.0), np.zeros(4)),
        (np.ones(4), np.float64(0.0)),
        (np.ones(4), np.zeros(5)),
        (np.ones((3, 4)), np.zeros((3, 5))),
    ], ids=["alpha-0d", "beta-0d", "length-differs", "stacked-length-differs"])
    def test_params_reject_mismatched_last_axes(self, alpha, beta):
        with pytest.raises(ShapeError):
            LNParams(alpha, beta)

    def test_stacked_alpha_equals_per_entry_calls(self):
        rng = make_rng(15)
        x = rng.normal(size=(5, 8))
        alpha, beta = rng.normal(size=(3, 8)), rng.normal(size=8)
        for stacked in (LNParams(alpha, beta), LNParams(alpha[0], rng.normal(size=(3, 8)))):
            out, xhat = layer_norm(x, stacked)
            assert out.shape == (3, 5, 8) and xhat.shape == (5, 8)
            for i in range(3):
                single = LNParams(*(a if a.ndim == 1 else a[i] for a in (stacked.alpha, stacked.beta)))
                assert out[i].tobytes() == layer_norm(x, single)[0].tobytes()

    @pytest.mark.parametrize("x_dtype, alpha_dtype, beta_dtype, out_dtype", [
        (np.float64, np.float64, np.float64, np.float64),
        (np.float32, np.float32, np.float32, np.float32),
        (np.float32, np.float32, np.float64, np.float64),
        (np.float32, np.float64, np.float32, np.float64),
        (np.float64, np.float32, np.float32, np.float64),
    ])
    def test_leaves_x_and_keeps_dtype_promotion(self, x_dtype, alpha_dtype, beta_dtype, out_dtype):
        """layer_norm and viln_apply write only into their own buffers, and give
        the dtype and bits of the written-out formula over the same xhat."""
        rng = make_rng(7)
        x = rng.normal(size=(6, 8)).astype(x_dtype)
        params = LNParams(rng.normal(size=8).astype(alpha_dtype), rng.normal(size=8).astype(beta_dtype), 1e-5)
        deltas = tuple(rng.normal(scale=0.1, size=(6, 8)).astype(x_dtype) for _ in range(2))
        before = x.copy()
        out, xhat = layer_norm(x, params)
        assert out.dtype == out_dtype and xhat.dtype == x_dtype
        assert out.tobytes() == (params.alpha * xhat + params.beta).tobytes()
        modulated = viln_apply(x, deltas, params)
        assert modulated.dtype == out_dtype
        expected = (params.alpha + deltas[0]) * xhat + (params.beta + deltas[1])
        assert modulated.tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()

    def test_integer_rows_normalize_as_floats(self):
        out, xhat = layer_norm(np.array([[1, 2, 3, 4]]), identity_params(4))
        assert xhat.dtype == np.float64
        assert np.allclose(out[0], np.array([-1.5, -0.5, 0.5, 1.5]) / np.sqrt(1.25), atol=1e-12)


class TestVilnApply:
    def test_zero_deltas_bit_equal_to_layer_norm(self):
        rng = make_rng(2)
        x = rng.normal(size=(5, 8))
        params = LNParams(rng.normal(size=8), rng.normal(size=8), 1e-5)
        plain, _ = layer_norm(x, params)
        zeros = np.zeros_like(x)
        assert np.array_equal(viln_apply(x, (zeros, zeros), params), plain)

    def test_hand_evaluation(self):
        # xhat of [1, -1] is itself; (1 + 0.5) * xhat + 0.1
        params = identity_params(2)
        x = np.array([[1.0, -1.0]])
        out = viln_apply(x, (np.full((1, 2), 0.5), np.full((1, 2), 0.1)), params)
        assert np.allclose(out, [[1.6, -1.4]], atol=1e-12)

    def test_cancelling_deltas_zero_output(self):
        rng = make_rng(3)
        x = rng.normal(size=(4, 6))
        params = LNParams(rng.normal(size=6), rng.normal(size=6), 1e-5)
        d_alpha = np.tile(-params.alpha, (4, 1))
        d_beta = np.tile(-params.beta, (4, 1))
        assert np.max(np.abs(viln_apply(x, (d_alpha, d_beta), params))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            viln_apply(np.zeros((2, 4)), (np.zeros((3, 4)), np.zeros((2, 4))), identity_params(4))

    def test_stacked_deltas_must_match_trailing_shape(self):
        x = np.zeros((2, 4))
        with pytest.raises(ShapeError):
            viln_apply(x, (np.zeros((2, 3, 4)), np.zeros((2, 3, 4))), identity_params(4))
        assert viln_apply(x, (np.zeros((5, 2, 4)), np.zeros((2, 4))), identity_params(4)).shape == (5, 2, 4)

    def test_affine_in_deltas(self):
        rng = make_rng(4)
        x = rng.normal(size=(3, 5))
        params = LNParams(rng.normal(size=5), rng.normal(size=5), 1e-5)
        d1 = (rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
        d2 = (rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
        zero = (np.zeros((3, 5)), np.zeros((3, 5)))
        f0 = viln_apply(x, zero, params)
        combined = viln_apply(x, (d1[0] + d2[0], d1[1] + d2[1]), params) - f0
        split = (viln_apply(x, d1, params) - f0) + (viln_apply(x, d2, params) - f0)
        assert np.max(np.abs(combined - split)) < 1e-10
        scaled = viln_apply(x, (2.5 * d1[0], 2.5 * d1[1]), params) - f0
        assert np.max(np.abs(scaled - 2.5 * (viln_apply(x, d1, params) - f0))) < 1e-10


class TestNonFiniteInput:
    """Called on their own, layer_norm and viln_apply keep the contract of
    the checked tensors ops: NumericError on a non-finite output, never a
    numpy warning; inside checks_at_boundaries they run bare."""

    OPS = {
        "layer_norm": lambda x, deltas: layer_norm(x, identity_params(4))[0],
        "viln_apply": lambda x, deltas: viln_apply(x, deltas, identity_params(4)),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op, where", [("layer_norm", "x"), ("viln_apply", "x"), ("viln_apply", "d_beta")])
    def test_raises_numeric_error_and_never_warns(self, op, where, bad):
        x = make_rng(15).normal(size=(3, 4))
        deltas = (np.zeros((3, 4)), np.zeros((3, 4)))
        (x if where == "x" else deltas[1])[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"{op} produced non-finite values"):
                self.OPS[op](x, deltas)
            with checks_at_boundaries():
                assert not np.isfinite(self.OPS[op](x, deltas)).all()


class TestProjectDeltas:
    def test_fresh_projection_gives_exact_zeros(self):
        rng = make_rng(5)
        proj = DeltaProjection.zero_init(6, 4)
        for pair in project_deltas(rng.normal(size=(3, 6)), proj):
            for arr in pair:
                assert np.array_equal(arr, np.zeros((3, 4)))

    def test_zero_conditioning_gives_zero_deltas(self):
        rng = make_rng(6)
        proj = DeltaProjection(rng.normal(size=(6, 16)), np.zeros(16))
        (d_alpha1, _), (_, d_beta2) = project_deltas(np.zeros((2, 6)), proj)
        assert np.array_equal(d_alpha1, np.zeros((2, 4)))
        assert np.array_equal(d_beta2, np.zeros((2, 4)))

    def test_unit_case(self):
        proj = DeltaProjection(np.ones((1, 4)), np.zeros(4))
        for pair in project_deltas(np.array([[1.0]]), proj):
            for arr in pair:
                assert np.allclose(arr, 0.73106, atol=1e-5)

    def test_chunk_order(self):
        # columns 0..C-1 feed d_alpha1, then d_beta1, d_alpha2, d_beta2
        w = np.zeros((1, 8))
        w[0, 0] = 1.0   # d_alpha1 channel 0
        w[0, 3] = 2.0   # d_beta1 channel 1
        w[0, 5] = 3.0   # d_alpha2 channel 1
        w[0, 6] = 4.0   # d_beta2 channel 0
        deltas = project_deltas(np.array([[1.0]]), DeltaProjection(w, np.zeros(8)))
        (d_alpha1, d_beta1), (d_alpha2, d_beta2) = deltas
        gate = 0.7310585786300049
        assert np.isclose(d_alpha1[0, 0], gate * 1.0)
        assert np.isclose(d_beta1[0, 1], gate * 2.0)
        assert np.isclose(d_alpha2[0, 1], gate * 3.0)
        assert np.isclose(d_beta2[0, 0], gate * 4.0)

    @pytest.mark.parametrize("w", [np.zeros((2, 6)), np.zeros((3, 2, 6))], ids=["plain", "stacked"])
    def test_width_not_divisible_rejected(self, w):
        with pytest.raises(ConfigError):
            DeltaProjection(w, np.zeros(6))

    @pytest.mark.parametrize("w, b", [
        (np.zeros((2, 8)), np.zeros(12)),
        (np.zeros((3, 2, 8)), np.zeros((3, 12))),
        (np.zeros(8), np.zeros(8)),
        (np.zeros((2, 8)), np.float64(0.0)),
    ], ids=["widths-differ", "stacked-widths-differ", "w-1d", "b-0d"])
    def test_inconsistent_projection_rejected(self, w, b):
        with pytest.raises(ShapeError):
            DeltaProjection(w, b)

    @pytest.mark.parametrize("cond", [np.zeros((2, 3)), np.zeros((4, 2, 3)), np.zeros(5)], ids=["plain", "stacked", "1d"])
    def test_cond_dim_mismatch(self, cond):
        with pytest.raises(ShapeError):
            project_deltas(cond, DeltaProjection.zero_init(5, 4))


class TestGradcheck:
    def test_bias_gradient_nonzero_at_zero_init(self):
        rng = make_rng(7)
        point = random_viln_point(rng)
        point.w[:] = 0.0
        point.b[:] = 0.0
        grads = viln_pipeline_gradients(point)
        assert np.max(np.abs(grads["b"])) > 0.0
        # while the output still equals the base normalization
        params = LNParams(point.alpha, point.beta, point.eps)
        plain, _ = layer_norm(point.x, params)
        slot1, _ = project_deltas(point.cond, DeltaProjection(point.w, point.b))
        assert np.array_equal(viln_apply(point.x, slot1, params), plain)

    def test_random_points(self):
        rng = make_rng(8)
        for _ in range(20):
            assert gradcheck_viln(random_viln_point(rng)) <= 1e-4

    def test_constant_row_with_eps(self):
        rng = make_rng(10)
        point = random_viln_point(rng, eps=1e-2)
        point.x[:] = 3.0
        assert gradcheck_viln(point, eps_fd=1e-7) <= 1e-4

    def test_central_differences_closed_form(self):
        rng = make_rng(12)
        arr = rng.normal(size=(3, 4))
        before = arr.copy()
        numeric = central_differences(
            lambda stack: np.sum(np.sin(stack) * stack**2, axis=(1, 2)), arr, 1e-5
        )
        exact = np.cos(arr) * arr**2 + 2.0 * arr * np.sin(arr)
        assert numeric.shape == arr.shape
        assert np.max(np.abs(numeric - exact)) <= 1e-8
        assert np.array_equal(arr, before)

    def test_stacked_forward_equals_per_entry_calls(self):
        """project_deltas then viln_apply, the objective gradcheck_viln
        differentiates, broadcast a stacked field to the bits of one call per
        entry."""
        rng = make_rng(13)
        point = random_viln_point(rng)

        def slots(p):
            params = LNParams(p.alpha, p.beta, p.eps)
            deltas = project_deltas(p.cond, DeltaProjection(p.w, p.b))
            return [viln_apply(p.x, pair, params) for pair in deltas]

        for name in ("x", "alpha", "beta", "cond", "w", "b"):
            arr = getattr(point, name)
            stack = arr + rng.normal(scale=0.1, size=(3,) + arr.shape)
            batched = slots(replace(point, **{name: stack}))
            for i in range(3):
                for out, single in zip(batched, slots(replace(point, **{name: stack[i]}))):
                    assert out.shape == (3,) + point.x.shape
                    assert out[i].tobytes() == single.tobytes(), name

    def test_eps_fd_range_enforced(self):
        rng = make_rng(11)
        with pytest.raises(ConfigError):
            gradcheck_viln(random_viln_point(rng), eps_fd=1e-3)

    @pytest.mark.parametrize("field", ["x", "alpha", "beta", "cond", "w", "b"])
    def test_nan_in_the_point_raises_numeric_error_and_never_warns(self, field):
        """The losses run inside checks_at_boundaries, so their NaN surfaces
        as the non-finite error of max_gradient_error."""
        point = random_viln_point(make_rng(14))
        getattr(point, field).flat[0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                gradcheck_viln(point)

    @pytest.mark.parametrize("key", ["x", "alpha", "beta", "deltas", "w", "b", "cond"])
    def test_nan_gradient_in_a_later_field_raises(self, key, monkeypatch):
        def poisoned(point):
            grads = viln_pipeline_gradients(point)
            grads[key] = grads[key].copy()
            grads[key].flat[0] = np.nan
            return grads

        monkeypatch.setattr(norm, "viln_pipeline_gradients", poisoned)
        with pytest.raises(NumericError):
            gradcheck_viln(random_viln_point(make_rng(14)))
