import numpy as np
import pytest

from dataclasses import replace

from featmod.norm import (
    DeltaProjection,
    LNParams,
    _viln_pipeline_loss,
    central_differences,
    gradcheck_viln,
    layer_norm,
    project_deltas,
    random_viln_point,
    viln_pipeline_gradients,
    viln_apply,
)
from featmod.tensors import ConfigError, ShapeError, make_rng

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

    def test_rms_mode_keeps_mean(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out, _ = layer_norm(x, identity_params(4), mode="rms")
        rms = np.sqrt(np.mean(x[0] ** 2))
        assert np.allclose(out[0], x[0] / rms, atol=1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            LNParams(np.ones(2), np.zeros(2), eps=0.0)


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


class TestProjectDeltas:
    def test_fresh_projection_gives_exact_zeros(self):
        rng = make_rng(5)
        proj = DeltaProjection.zero_init(6, 4)
        deltas = project_deltas(rng.normal(size=(3, 6)), proj)
        for arr in (deltas.d_alpha1, deltas.d_beta1, deltas.d_alpha2, deltas.d_beta2):
            assert np.array_equal(arr, np.zeros((3, 4)))

    def test_zero_conditioning_gives_zero_deltas(self):
        rng = make_rng(6)
        proj = DeltaProjection(rng.normal(size=(6, 16)), np.zeros(16))
        deltas = project_deltas(np.zeros((2, 6)), proj)
        assert np.array_equal(deltas.d_alpha1, np.zeros((2, 4)))
        assert np.array_equal(deltas.d_beta2, np.zeros((2, 4)))

    def test_unit_case(self):
        proj = DeltaProjection(np.ones((1, 4)), np.zeros(4))
        deltas = project_deltas(np.array([[1.0]]), proj)
        for arr in (deltas.d_alpha1, deltas.d_beta1, deltas.d_alpha2, deltas.d_beta2):
            assert np.allclose(arr, 0.73106, atol=1e-5)

    def test_chunk_order(self):
        # columns 0..C-1 feed d_alpha1, then d_beta1, d_alpha2, d_beta2
        w = np.zeros((1, 8))
        w[0, 0] = 1.0   # d_alpha1 channel 0
        w[0, 3] = 2.0   # d_beta1 channel 1
        w[0, 5] = 3.0   # d_alpha2 channel 1
        w[0, 6] = 4.0   # d_beta2 channel 0
        deltas = project_deltas(np.array([[1.0]]), DeltaProjection(w, np.zeros(8)))
        gate = 0.7310585786300049
        assert np.isclose(deltas.d_alpha1[0, 0], gate * 1.0)
        assert np.isclose(deltas.d_beta1[0, 1], gate * 2.0)
        assert np.isclose(deltas.d_alpha2[0, 1], gate * 3.0)
        assert np.isclose(deltas.d_beta2[0, 0], gate * 4.0)

    def test_width_not_divisible_rejected(self):
        with pytest.raises(ConfigError):
            DeltaProjection(np.zeros((2, 6)), np.zeros(6))

    def test_cond_dim_mismatch(self):
        with pytest.raises(ShapeError):
            project_deltas(np.zeros((2, 3)), DeltaProjection.zero_init(5, 4))


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
        deltas = project_deltas(point.cond, DeltaProjection(point.w, point.b))
        assert np.array_equal(viln_apply(point.x, deltas.slot(1), params), plain)

    def test_random_points(self):
        rng = make_rng(8)
        for _ in range(20):
            assert gradcheck_viln(random_viln_point(rng)) <= 1e-4

    def test_rms_mode_point(self):
        rng = make_rng(9)
        assert gradcheck_viln(random_viln_point(rng, mode="rms")) <= 1e-4

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

    def test_objective_is_both_viln_slots_and_broadcasts(self):
        rng = make_rng(13)
        point = random_viln_point(rng)
        params = LNParams(point.alpha, point.beta, point.eps)
        deltas = project_deltas(point.cond, DeltaProjection(point.w, point.b))
        slots = viln_apply(point.x, deltas.slot(1), params) + viln_apply(point.x, deltas.slot(2), params)
        assert abs(_viln_pipeline_loss(point) - np.sum(slots)) <= 1e-12
        for name in ("x", "alpha", "beta", "cond", "w", "b"):
            arr = getattr(point, name)
            stack = arr + rng.normal(scale=0.1, size=(3,) + arr.shape)
            batched = _viln_pipeline_loss(replace(point, **{name: stack}))
            assert batched.shape == (3,)
            for i in range(3):
                single = _viln_pipeline_loss(replace(point, **{name: stack[i]}))
                assert abs(batched[i] - single) <= 1e-12

    def test_eps_fd_range_enforced(self):
        rng = make_rng(11)
        with pytest.raises(ConfigError):
            gradcheck_viln(random_viln_point(rng), eps_fd=1e-3)
