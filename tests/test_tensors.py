import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from featmod.tensors import (
    ConfigError,
    NumericError,
    ShapeError,
    check_finite,
    checks_at_boundaries,
    count_macs,
    depthwise_conv1d,
    gelu,
    gelu_grad,
    load_tensors,
    make_rng,
    matmul,
    merge_heads,
    save_tensors,
    sigmoid,
    sinusoid_positions,
    softmax_lastdim,
    split_heads,
    swish,
)


def matmul_reference(a, b):
    """Triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def conv_reference(x, kernel):
    """Naive sliding-window oracle with zero padding."""
    channels, length = x.shape
    k = kernel.shape[1]
    pad = k // 2
    out = np.zeros_like(x)
    for c in range(channels):
        for i in range(length):
            acc = 0.0
            for j in range(k):
                src = i + j - pad
                if 0 <= src < length:
                    acc += x[c, src] * kernel[c, j]
            out[c, i] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_triple_loop(self):
        rng = make_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        assert np.max(np.abs(matmul(a, b) - matmul_reference(a, b))) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((4, 5, 3), (4, 3, 6)),
        ((4, 5, 3), (3, 6)),
        ((5, 3), (4, 3, 6)),
        ((2, 1, 5, 3), (4, 3, 6)),
    ])
    def test_batched_equals_per_slice_products(self, a_shape, b_shape):
        rng = make_rng(5)
        a = rng.normal(size=a_shape)
        b = rng.normal(size=b_shape)
        out = matmul(a, b)
        batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
        assert out.shape == batch + (a_shape[-2], b_shape[-1])
        a_full = np.broadcast_to(a, batch + a_shape[-2:])
        b_full = np.broadcast_to(b, batch + b_shape[-2:])
        for idx in np.ndindex(*batch):
            assert np.array_equal(out[idx], matmul(a_full[idx], b_full[idx]))

    def test_head_views_equal_column_slices(self):
        rng = make_rng(6)
        q = rng.normal(size=(7, 12))
        k = rng.normal(size=(5, 12))
        logits = matmul(split_heads(q, 3), split_heads(k, 3).swapaxes(-1, -2))
        for h in range(3):
            sl = slice(4 * h, 4 * (h + 1))
            assert np.array_equal(logits[h], matmul(q[:, sl], k[:, sl].T))
        assert np.array_equal(merge_heads(split_heads(q, 3)), q)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (3, 4, 5)),
        ((3,), (3, 4)),
        ((2, 3), (3,)),
        ((), (1, 1)),
        ((2, 3), (4, 5)),
        ((2, 2, 3), (2, 4, 5)),
    ])
    def test_bad_batch_or_rank_is_shape_error(self, a_shape, b_shape):
        """Raised in or out of checks_at_boundaries, with no MACs recorded."""
        for scope in (contextlib.nullcontext, checks_at_boundaries):
            with count_macs() as counter, scope(), pytest.raises(ShapeError):
                matmul(np.zeros(a_shape), np.zeros(b_shape))
            assert counter.macs == 0

    def test_associativity(self):
        rng = make_rng(1)
        for _ in range(8):
            a, b, c = (rng.normal(size=(8, 8)) for _ in range(3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            rel = np.max(np.abs(left - right)) / np.max(np.abs(left))
            assert rel < 1e-9


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_lastdim(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_direct_evaluation(self):
        out = softmax_lastdim(np.array([1.0, 2.0]))
        assert np.allclose(out, [0.26894, 0.73106], atol=1e-5)

    def test_large_magnitudes_no_overflow(self):
        out = softmax_lastdim(np.array([1000.0, 1000.0]))
        assert np.array_equal(out, [0.5, 0.5])

    def test_masked_logits_become_exact_zero(self):
        out = softmax_lastdim(np.array([0.3, -np.inf, 0.7]))
        assert out[1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_is_bit_identical(self, dtype):
        x = make_rng(4).normal(scale=30.0, size=(3, 5, 17)).astype(dtype)
        x[..., 1:, 3] = -np.inf  # masked logits
        expected = softmax_lastdim(x)
        assert softmax_lastdim(x, out=x) is x
        assert x.tobytes() == expected.tobytes()

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=16))
    def test_rows_sum_to_one(self, row):
        out = softmax_lastdim(np.array(row))
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.all(out >= 0.0)


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        rng = make_rng(2)
        x = rng.normal(size=(3, 9))
        kernel = np.tile(np.array([0.0, 1.0, 0.0]), (3, 1))
        assert np.allclose(depthwise_conv1d(x, kernel), x)

    def test_hand_convolution(self):
        out = depthwise_conv1d(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out, [[3.0, 6.0, 5.0]])

    def test_matches_sliding_window(self):
        rng = make_rng(3)
        x = rng.normal(size=(4, 11))
        kernel = rng.normal(size=(4, 5))
        assert np.max(np.abs(depthwise_conv1d(x, kernel) - conv_reference(x, kernel))) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            depthwise_conv1d(np.zeros((1, 4)), np.zeros((1, 2)))

    @pytest.mark.parametrize("x_shape, k_shape", [
        ((3, 4, 9), (4, 5)),
        ((4, 9), (3, 4, 5)),
        ((2, 1, 4, 9), (3, 4, 5)),
    ])
    def test_batched_equals_per_slice_calls(self, x_shape, k_shape):
        rng = make_rng(7)
        x = rng.normal(size=x_shape)
        kernel = rng.normal(size=k_shape)
        out = depthwise_conv1d(x, kernel)
        batch = np.broadcast_shapes(x_shape[:-2], k_shape[:-2])
        assert out.shape == batch + x_shape[-2:]
        x_full = np.broadcast_to(x, batch + x_shape[-2:])
        k_full = np.broadcast_to(kernel, batch + k_shape[-2:])
        for idx in np.ndindex(*batch):
            assert np.array_equal(out[idx], depthwise_conv1d(x_full[idx], k_full[idx]))

    def test_bad_batch_or_rank_is_shape_error(self):
        with pytest.raises(ShapeError):
            depthwise_conv1d(np.zeros((2, 4, 9)), np.zeros((3, 4, 3)))
        with pytest.raises(ShapeError):
            depthwise_conv1d(np.zeros(9), np.zeros((1, 3)))

    @given(st.integers(min_value=0, max_value=2**31))
    def test_linearity(self, seed):
        rng = make_rng(seed)
        x = rng.normal(size=(2, 7))
        y = rng.normal(size=(2, 7))
        kernel = rng.normal(size=(2, 3))
        a, b = rng.normal(size=2)
        combined = depthwise_conv1d(a * x + b * y, kernel)
        split = a * depthwise_conv1d(x, kernel) + b * depthwise_conv1d(y, kernel)
        assert np.max(np.abs(combined - split)) < 1e-10


def _two_branch_sigmoid(x):
    """1 / (1 + exp(-x)) on x >= 0 and exp(x) / (1 + exp(x)) on the rest,
    each branch gathered and scattered on its own."""
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_of_the_two_branch_formula(self, dtype):
        rng = make_rng(11)
        draws = rng.normal(size=(16, 256))
        inputs = [
            np.array([0.0, -0.0, np.inf, -np.inf]),
            5.0 * draws,
            20.0 * draws,
            np.array(-3.0),
            np.array(2.5),
            np.array(-0.0),
        ]
        for x in inputs:
            x = x.astype(dtype)
            got, want = sigmoid(x), _two_branch_sigmoid(x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, 1.0])))[0]


class TestSwish:
    def test_zero(self):
        assert swish(np.array(0.0)) == 0.0

    def test_one(self):
        assert np.isclose(swish(np.array(1.0)), 0.73106, atol=1e-5)

    def test_deep_negative_saturates_from_below(self):
        val = float(swish(np.array(-20.0)))
        assert np.isclose(val, -4.122e-8, rtol=1e-3)
        assert val < 0


def _gelu_inputs(dtype):
    """Mixed-sign, wide-range, |x| > 1 (erfc branch), signed zeros and
    subnormals, in one array of the given dtype."""
    rng = make_rng(3)
    tiny = np.finfo(dtype).smallest_subnormal
    parts = [
        rng.normal(scale=3.0, size=200),
        rng.normal(scale=0.3, size=100),
        np.exp(rng.uniform(-30.0, 3.5, size=200)) * rng.choice([-1.0, 1.0], size=200),
        [0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 40.0, -40.0],
    ]
    x = np.concatenate(parts).astype(dtype)
    return np.concatenate([x, np.array([tiny, -tiny, 7 * tiny, -7 * tiny], dtype=dtype)])


def _gelu_formula(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad_formula(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return cdf + x * (float(1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x))


class TestGelu:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_formula(self, dtype):
        x = np.concatenate([make_rng(3).normal(scale=3.0, size=(5, 64)).astype(dtype).ravel(), _gelu_inputs(dtype)])
        before = x.copy()
        out = gelu(x)
        assert out.dtype == dtype
        assert out.tobytes() == _gelu_formula(x).tobytes()  # bytes: -0.0 keeps its sign
        assert gelu_grad(x).tobytes() == _gelu_grad_formula(x).tobytes()
        assert np.array_equal(x, before)

    def test_zero_dimensional_input(self):
        for x in (np.array(0.7), np.array(-1.3)):
            assert gelu(x) == _gelu_formula(x)
            assert gelu_grad(x) == _gelu_grad_formula(x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_writes_the_input(self, dtype):
        x = _gelu_inputs(dtype)
        expected = gelu(x)
        z = x.copy()
        assert gelu(z, out=z) is z
        assert z.tobytes() == expected.tobytes()

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            gelu(np.array([0.0, np.nan]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinity_raises(self, bad):
        with pytest.raises(NumericError):
            gelu(np.array([0.0, bad]))

    @pytest.mark.parametrize("dtype, bits", [(np.float64, np.uint64), (np.float32, np.uint32)])
    def test_platform_erf_is_odd_bit_for_bit(self, dtype, bits):
        # gelu evaluates erf on |x| and copies the sign back; that gives
        # erf(x)'s bits only while erf(-x) == -erf(x) exactly
        raw = make_rng(4).integers(0, np.iinfo(bits).max, size=200_000, dtype=bits, endpoint=True)
        x = raw.view(dtype)
        x = np.concatenate([x[np.isfinite(x)], _gelu_inputs(dtype)])
        assert erf(-x).tobytes() == (-erf(x)).tobytes()


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(1234).normal(size=10_000)
        b = make_rng(1234).normal(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).normal(size=16), make_rng(2).normal(size=16))


class TestMacCounting:
    def test_matmul_macs(self):
        with count_macs() as counter:
            matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        assert counter.macs == 3 * 4 * 5
        assert counter.flops == 2 * 3 * 4 * 5

    def test_conv_macs(self):
        with count_macs() as counter:
            depthwise_conv1d(np.zeros((2, 7)), np.zeros((2, 3)))
        assert counter.macs == 2 * 7 * 3

    def test_batched_macs(self):
        with count_macs() as counter:
            matmul(np.zeros((6, 3, 4)), np.zeros((4, 5)))
        assert counter.macs == 6 * 3 * 4 * 5
        with count_macs() as counter:
            matmul(np.zeros((2, 1, 3, 4)), np.zeros((6, 4, 5)))
        assert counter.macs == 2 * 6 * 3 * 4 * 5
        with count_macs() as counter:
            depthwise_conv1d(np.zeros((5, 2, 7)), np.zeros((2, 3)))
        assert counter.macs == 5 * 2 * 7 * 3

    def test_disarmed_outside_context(self):
        with count_macs() as counter:
            pass
        matmul(np.zeros((2, 2)), np.zeros((2, 2)))
        assert counter.macs == 0


class TestChecksAtBoundaries:
    """Inside the scope the ops skip their own finite checks and leave them
    to the caller's check_finite; outside it every op checks again."""

    def test_ops_skip_their_checks_inside_the_scope(self):
        big = np.full((2, 2), 1e308)
        with checks_at_boundaries():
            assert np.isposinf(matmul(big, big)).all()
            assert np.isnan(gelu(np.array([0.0, np.nan]))[1])
            assert np.isnan(swish(np.array([np.nan]))).all()
            assert np.isnan(softmax_lastdim(np.array([[0.0, np.nan]]))).all()
            assert np.isnan(depthwise_conv1d(np.array([[np.nan, 1.0]]), np.ones((1, 3)))).all()
        with pytest.raises(NumericError):
            matmul(big, big)

    @pytest.mark.parametrize("op, args", [
        (matmul, (np.full((2, 2), 1e308), np.full((2, 2), 1e308))),
        (softmax_lastdim, (np.array([np.inf, 1.0]),)),
        (gelu, (np.array([-np.inf]),)),
        (swish, (np.array([-np.inf]),)),
        (depthwise_conv1d, (np.full((1, 3), 1e308), np.full((1, 3), 10.0))),  # finite input, overflowing sum
    ], ids=["matmul", "softmax_lastdim", "gelu", "swish", "depthwise_conv1d"])
    def test_ops_outside_the_scope_raise_numeric_error_and_never_warn(self, op, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                op(*args)

    def test_check_finite_runs_inside_the_scope(self):
        with checks_at_boundaries(), pytest.raises(NumericError, match="block 3"):
            check_finite("block 3", np.array([1.0, -np.inf]))
        assert check_finite("x", np.ones(2)).sum() == 2.0

    def test_scope_and_errstate_are_restored_after_an_error(self):
        outside = np.geterr()
        with pytest.raises(NumericError), checks_at_boundaries():
            with checks_at_boundaries():  # nested scopes end with the outer one
                pass
            assert np.geterr()["over"] == "ignore"
            assert np.isposinf(matmul(np.full((1, 1), 1e308), np.full((1, 1), 1e308))).all()
            check_finite("inner", np.array([np.nan]))
        assert np.geterr() == outside
        with pytest.raises(NumericError):
            gelu(np.array([np.nan]))


class TestSinusoid:
    def test_position_zero(self):
        row = sinusoid_positions([0], 8)[0]
        assert np.array_equal(row[0::2], np.zeros(4))
        assert np.array_equal(row[1::2], np.ones(4))

    def test_odd_dim(self):
        assert sinusoid_positions([0, 1, 2], 5).shape == (3, 5)

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 128, 704])
    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 32, 33, 256])
    def test_bytes_of_the_index_array_form(self, n, dim):
        """Strided slices write the same bytes as the index-array form."""
        pos = np.arange(n, dtype=np.float64).reshape(-1, 1)
        expected = np.zeros((n, dim))
        even = np.arange(0, dim, 2)
        angles = pos * (1.0 / np.power(10000.0, even / dim))
        expected[:, even] = np.sin(angles)
        odd = even[even + 1 < dim] + 1
        expected[:, odd] = np.cos(angles[:, : odd.shape[0]])
        got = sinusoid_positions(np.arange(n), dim)
        assert got.dtype == np.float64 and got.shape == (n, dim)
        assert got.tobytes() == expected.tobytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        rng = make_rng(4)
        named = {
            "a.weight": rng.normal(size=(3, 4)),
            "b.bias": rng.normal(size=7),
            "c.single": rng.normal(size=(2, 2)).astype(np.float32),
        }
        path = tmp_path / "weights.manifest"
        save_tensors(path, named)
        loaded = load_tensors(path)
        assert list(loaded) == list(named)
        for name in named:
            assert loaded[name].dtype == named[name].dtype
            assert np.array_equal(loaded[name], named[name])

    def test_manifest_format(self, tmp_path):
        path = tmp_path / "t.manifest"
        save_tensors(path, {"x": np.zeros((2, 3))})
        assert path.read_text() == "x shape=2x3 dtype=f64\n"
        assert (tmp_path / "t.bin").stat().st_size == 2 * 3 * 8

    def test_malformed_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("oops\n")
        path.with_suffix(".bin").write_bytes(b"")
        with pytest.raises(ConfigError):
            load_tensors(path)

    @pytest.mark.parametrize("shape", ["-1x-2", "-2", "2x-1x-8"])
    def test_negative_dimension_rejected(self, shape, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text(f"x shape={shape} dtype=f64\n")
        path.with_suffix(".bin").write_bytes(bytes(16))
        with pytest.raises(ConfigError, match="malformed manifest line"):
            load_tensors(path)

    def test_shape_past_int64_is_too_short_not_wrapped(self, tmp_path):
        path = tmp_path / "big.manifest"
        path.write_text("x shape=4294967296x4294967296 dtype=f64\n")
        path.with_suffix(".bin").write_bytes(b"")
        with pytest.raises(ConfigError, match="too short"):
            load_tensors(path)

    def test_zero_dimension_loads_empty(self, tmp_path):
        path = tmp_path / "empty.manifest"
        path.write_text("x shape=0 dtype=f64\ny shape=2x0 dtype=f32\n")
        path.with_suffix(".bin").write_bytes(b"")
        loaded = load_tensors(path)
        assert loaded["x"].shape == (0,) and loaded["y"].shape == (2, 0)

    def test_undecodable_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_bytes(b"x shape=2 dtype=f64\xff\n")
        path.with_suffix(".bin").write_bytes(bytes(16))
        with pytest.raises(ConfigError, match="bad.manifest"):
            load_tensors(path)
