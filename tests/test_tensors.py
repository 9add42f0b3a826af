import contextlib
import math
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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from featmod import tensors
from featmod.tensors import (
    ConfigError,
    NumericError,
    ShapeError,
    attend,
    check_finite,
    checks_at_boundaries,
    count_macs,
    depthwise_conv1d,
    gelu,
    gelu_grad,
    load_tensors,
    make_rng,
    matmul,
    matmul_cols,
    merge_heads,
    rowwise,
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
        """0-d, zero-size and ordinary tensors in f64 and f32 come back with their shape, dtype and bits."""
        rng = make_rng(4)
        named = {
            "a.weight": rng.normal(size=(3, 4)),
            "b.bias": rng.normal(size=7),
            "c.single": rng.normal(size=(2, 2)).astype(np.float32),
            "d.scalar": np.array(1.5),
            "e.scalar": np.array(-2.5, np.float32),
            "f.empty": np.zeros(0),
            "g.empty": np.zeros((2, 0), np.float32),
        }
        path = tmp_path / "weights.manifest"
        save_tensors(path, named)
        loaded = load_tensors(path)
        assert list(loaded) == list(named)
        for name, arr in named.items():
            assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "x\t", "a\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb",
                                      "a\x85b", "a\u2028b", "a\x1db", "a\x1eb", "a\u2029b"])
    def test_name_that_would_split_its_line_rejected(self, name, tmp_path):
        """An empty name, or one with a space or a character str.splitlines breaks at, cannot be read back."""
        path = tmp_path / "t.manifest"
        with pytest.raises(ConfigError, match="tensor name"):
            save_tensors(path, {"ok": np.zeros(1), name: np.zeros(1)})
        assert not path.exists()

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

    @pytest.mark.parametrize("line", [
        "x 2 f64", "x shape=2 f64", "x 2 dtype=f64", "x size=2 dtype=f64", "x shape=2 dtype=f16",
        "x shape=2x dtype=f64", "x shape=+2 dtype=f64", "x shape=0_2 dtype=f64", "x shape=\u0662 dtype=f64",
        "x shape=2 dtype=f64 extra", "x shape=2",
    ], ids=["no-prefixes", "no-dtype-prefix", "no-shape-prefix", "wrong-key", "unknown-dtype", "empty-dim",
            "signed-dim", "underscored-dim", "non-ascii-digit", "four-fields", "two-fields"])
    def test_malformed_line_rejected(self, line, tmp_path):
        """Each line would otherwise fit, or int() would read it as, a 2-element f64 tensor."""
        path = tmp_path / "bad.manifest"
        path.write_text(line + "\n")
        path.with_suffix(".bin").write_bytes(bytes(16))
        with pytest.raises(ConfigError, match="malformed manifest line"):
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


# ---------------------------------------------------------------------------
# The thread pool: row blocks, attention blocks, nested calls

CPU_COUNTS = (1, 2, 3, 4)
# Workload row counts: 576 visual tokens (connector, conditioner and insert
# projections), 576 + 16 (image336 incontext), 576 + 128 (video_long
# incontext) and 128 (video_long text); 128 is the fewest rows that split, at
# 2^23 MACs for a C=256 projection, and 256 the fewest that split in four.
WORKLOAD_ROWS = (576, 592, 704, 128, 256)


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(n): n usable CPUs and a fresh pool, of n - 1 threads, on first use."""

    def set_cpus(n):
        monkeypatch.setattr(tensors, "_usable_cpus", lambda: n)
        monkeypatch.setattr(tensors, "_pool", None)

    return set_cpus


def assert_bits_at_each_count(set_cpus, run, expected: np.ndarray, pooled: bool) -> None:
    """run() equals expected bit for bit, with the same counted MACs, at
    1-4 simulated CPUs; from 2 CPUs on it starts the pool iff pooled."""
    macs = []
    for n in CPU_COUNTS:
        set_cpus(n)
        with count_macs() as counter:
            got = run()
        assert got.dtype == expected.dtype and got.shape == expected.shape, n
        assert got.tobytes() == expected.tobytes(), n
        macs.append(counter.macs)
        assert (tensors._pool is not None) == (pooled and n > 1), n
    assert len(set(macs)) == 1


def ffn_params(rng, channels, hidden, dtype):
    return SimpleNamespace(
        w1=rng.normal(scale=0.05, size=(channels, hidden)).astype(dtype), b1=rng.normal(size=hidden).astype(dtype),
        w2=rng.normal(scale=0.05, size=(hidden, channels)).astype(dtype), b2=rng.normal(size=channels).astype(dtype),
    )


def ffn_unsplit(x, p):
    """The block FFN as one product per weight."""
    z = matmul(x, p.w1)
    z += p.b1
    return matmul(gelu(z, out=z), p.w2) + p.b2


@pytest.mark.usefixtures("one_blas_thread")  # blocks split only there
class TestRowBlocks:
    """Every shape family tensors.rowwise splits keeps the bits of the
    unsplit products: C=256 projections and the C=256, d_ff=1024 FFN."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", WORKLOAD_ROWS)
    def test_projection_bits(self, cpus, rows, dtype):
        rng = make_rng(rows)
        x = rng.normal(size=(rows, 256)).astype(dtype)
        w = rng.normal(scale=0.05, size=(256, 256)).astype(dtype)
        assert_bits_at_each_count(cpus, lambda: rowwise(matmul, x, w), matmul(x, w), pooled=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows", WORKLOAD_ROWS)
    def test_ffn_bits(self, cpus, rows, dtype):
        from featmod.model import _ffn

        rng = make_rng(rows + 1)
        x = rng.normal(size=(rows, 256)).astype(dtype)
        p = ffn_params(rng, 256, 1024, dtype)
        assert_bits_at_each_count(cpus, lambda: _ffn(x, p), ffn_unsplit(x, p), pooled=True)

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((127, 256), (256, 256)),      # one row under two 64-row blocks
        ((128, 256), (256, 248)),      # 128 * 256 * 248 MACs, under _SPLIT_MACS
        ((592, 256), (256, 2308)),     # a column count that is not a multiple of 8
        ((3, 592, 256), (256, 256)),   # a batched x
        ((592, 256), (3, 256, 256)),   # a batched weight
    ])
    def test_below_the_threshold_or_unproven_runs_whole(self, cpus, x_shape, w_shape):
        rng = make_rng(len(x_shape) + w_shape[-1])
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        calls = []
        run = lambda: rowwise(lambda rows, w, **kw: calls.append(rows.shape) or matmul(rows, w, **kw), x, w)  # noqa: E731
        assert_bits_at_each_count(cpus, run, matmul(x, w), pooled=False)
        assert calls == [x_shape] * len(CPU_COUNTS)

    @pytest.mark.parametrize("threads", [2, None])
    def test_more_or_unknown_blas_threads_run_whole(self, cpus, monkeypatch, threads):
        """A 128-row projection at 2^23 MACs: each pool thread's block would
        run on BLAS's two threads as well, more threads than cores."""
        monkeypatch.setattr(tensors, "_blas_threads", lambda: threads)
        rng = make_rng(14)
        x, w = rng.normal(size=(128, 256)), rng.normal(size=(256, 256))
        calls = []
        run = lambda: rowwise(lambda rows, w, **kw: calls.append(rows.shape) or matmul(rows, w, **kw), x, w)  # noqa: E731
        assert_bits_at_each_count(cpus, run, matmul(x, w), pooled=False)
        assert calls == [x.shape] * len(CPU_COUNTS)

    def test_the_mlp_visual_term_family_is_never_split(self, cpus):
        """(C, V) @ (V, (V+1)*token_exp) at C=256, V=576: its 2308 columns
        are not a multiple of 8, so it runs whole."""
        rng = make_rng(5)
        x, w = rng.normal(size=(256, 576)), rng.normal(size=(576, 2308))
        assert_bits_at_each_count(cpus, lambda: rowwise(matmul, x, w), matmul(x, w), pooled=False)

    @pytest.mark.parametrize("rows, bounds", [
        (128, {2: [0, 64, 128], 4: [0, 64, 128]}),  # a video_long text projection, two blocks at most
        (200, {3: [0, 64, 128, 200]}),              # multiples of 8 but the last
        (256, {}), (257, {}), (263, {}), (383, {}), (592, {}), (704, {}), (1001, {}),
    ])
    def test_blocks_are_multiples_of_8_rows_in_order(self, cpus, rows, bounds):
        """`bounds` gives the exact block bounds at some CPU counts."""
        x = make_rng(rows).normal(size=(rows, 256))
        x[:, 0] = np.arange(rows)  # a block's first row names where it starts
        w = np.eye(256)
        for n in CPU_COUNTS:
            cpus(n)
            blocks = []
            out = rowwise(lambda block, w, out=None: blocks.append((int(block[0, 0]), len(block)))
                          or np.positive(block, out=out), x, w)
            assert out.tobytes() == x.tobytes()
            assert_blocks_in_order(blocks, rows)
            assert len(blocks) == min(n, rows // tensors._BLOCK_ROWS)
            if n in bounds:
                assert sorted(start for start, _ in blocks) + [rows] == bounds[n]
            # one MAC under the gate: one block
            assert tensors._split(rows, tensors._BLOCK_ROWS, tensors._SPLIT_MACS - 1) == [slice(0, rows)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_attn_conditioner_query_and_output_bits(self, cpus, monkeypatch, dtype):
        """cond_attn at 128 text rows over V=576, C=256: its q and o
        projections run as two 64-row blocks from 2 CPUs on, its k and v
        projections as 576-row blocks, and the output keeps the bits of
        every product run whole."""
        from featmod import conditioning
        from featmod.conditioning import AttnCondParams, cond_attn

        rng = make_rng(12)
        t, v = rng.normal(size=(128, 256)).astype(dtype), rng.normal(size=(576, 256)).astype(dtype)
        p = AttnCondParams.init(rng, 256, heads=8, std=0.05)
        p = replace(p, **{w: getattr(p, w).astype(dtype) for w in ("wq", "wk", "wv", "wo")})
        cpus(1)
        gate = tensors._SPLIT_MACS
        monkeypatch.setattr(tensors, "_SPLIT_MACS", float("inf"))
        expected = cond_attn(t, v, p)
        monkeypatch.setattr(tensors, "_SPLIT_MACS", gate)
        rows = []
        monkeypatch.setattr(conditioning, "matmul", lambda a, b, **kw: rows.append(len(a)) or matmul(a, b, **kw))
        assert_bits_at_each_count(cpus, lambda: cond_attn(t, v, p), expected, pooled=True)
        cpus(2)
        rows.clear()
        cond_attn(t, v, p)
        assert sorted(rows) == [64, 64, 64, 64, 288, 288, 288, 288]

    def test_blocks_write_into_one_output(self, cpus):
        rng = make_rng(10)
        x, w = rng.normal(size=(592, 256)), rng.normal(size=(256, 256))
        assert_blocks_write_into_one_output(cpus, lambda: rowwise(matmul, x, w))

    def test_the_output_takes_the_unsplit_result_type(self, cpus):
        """The output exists before the blocks run, so its dtype comes from
        the operands: float32 rows and weights with float64 biases give the
        float64 of the unsplit FFN, bit for bit."""
        from featmod.model import _ffn

        rng = make_rng(11)
        x = rng.normal(size=(592, 256)).astype(np.float32)
        p = ffn_params(rng, 256, 1024, np.float32)
        p.b1, p.b2 = rng.normal(size=1024), rng.normal(size=256)
        expected = ffn_unsplit(x, p)
        assert expected.dtype == np.float64
        assert_bits_at_each_count(cpus, lambda: _ffn(x, p), expected, pooled=True)


def assert_blocks_write_into_one_output(set_cpus, run):
    """At 2 simulated CPUs each of run()'s blocks writes its slice of one
    output; beside it the split allocates less than a quarter of the
    output more."""
    set_cpus(2)
    run()  # starts the pool outside the trace
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.flags.c_contiguous and out.base is None
    assert peak < out.nbytes * 1.25


def assert_blocks_in_order(blocks, size):
    """blocks, (start, length) pairs in the order they ran, are tensors._split's:
    they tile range(size) in order, each but the last a multiple of 8 long,
    the last at least the mean length."""
    blocks = sorted(blocks)
    assert [start for start, _ in blocks] == [0, *np.cumsum([length for _, length in blocks[:-1]])]
    assert sum(length for _, length in blocks) == size
    assert all(length % 8 == 0 for _, length in blocks[:-1]) and blocks[-1][1] >= size // len(blocks)


def visual_operands(channels, vis, cols, dtype=np.float64, seed=0):
    """(C, V) @ (V, cols) as the mlp visual term reads them: a transposed
    (V, C) token matrix and a row slice of token_w1."""
    rng = make_rng(seed)
    v = rng.normal(size=(vis, channels)).astype(dtype)
    w1 = rng.normal(scale=0.05, size=(vis + 1, cols)).astype(dtype)
    return v.T, w1[1:]


def note_products(monkeypatch, note):
    """Make tensors.matmul call note(a, b) before each product; returns the
    unpatched matmul."""
    whole = tensors.matmul
    monkeypatch.setattr(tensors, "matmul", lambda a, b, **kw: note(a, b) or whole(a, b, **kw))
    return whole


@pytest.mark.usefixtures("one_blas_thread")
class TestColumnBlocks:
    """tensors.matmul_cols keeps the bits of one whole matmul under one BLAS
    thread: every block has at least 256 columns and 2^22 MACs, and its
    bounds are multiples of 8 columns but the last."""

    @pytest.mark.parametrize("channels, vis, cols, dtype", [
        (256, 576, 2308, np.float64),   # the image336 and video_long visual term
        (256, 576, 2308, np.float32),
        (256, 576, 577, np.float64),    # token_exp 1: two blocks at most
        (256, 576, 577, np.float32),
        (64, 1152, 4612, np.float64),   # 1152 visual tokens at C=64
    ])
    def test_bits(self, cpus, channels, vis, cols, dtype):
        a, b = visual_operands(channels, vis, cols, dtype, seed=cols)
        assert_bits_at_each_count(cpus, lambda: matmul_cols(a, b), matmul(a, b), pooled=True)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 256, 576), (576, 2308)),   # a batched a
        ((256, 576), (3, 576, 2308)),   # a batched b
        ((128, 6), (6, 2308)),          # 1.8e6 MACs, under _SPLIT_MACS
        ((256, 576), (576, 511)),       # fewer than two 256-column blocks
    ])
    def test_below_the_threshold_or_batched_runs_whole(self, cpus, monkeypatch, a_shape, b_shape):
        rng = make_rng(a_shape[-1] + b_shape[-1])
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        expected = matmul(a, b)
        calls = []
        note_products(monkeypatch, lambda a, b: calls.append(b.shape))
        assert_bits_at_each_count(cpus, lambda: matmul_cols(a, b), expected, pooled=False)
        assert calls == [b_shape] * len(CPU_COUNTS)

    def test_many_cpus_keep_2_22_macs_a_block(self, cpus, monkeypatch):
        """At 32 and 64 CPUs, 256-column-or-wider blocks of (128, 6) @ (6,
        21846) hold 5e5 or 2.6e5 MACs each and change the tail's bits;
        three blocks of at least 2^22 MACs keep them."""
        a, b = visual_operands(128, 6, 21846)
        expected = matmul(a, b)
        widths = []
        note_products(monkeypatch, lambda a, b: widths.append(b.shape[1]))
        for count in (32, 64):
            cpus(count)
            widths.clear()
            assert matmul_cols(a, b).tobytes() == expected.tobytes(), count
            assert sorted(widths) == [7280, 7280, 7286], count

    def test_two_blas_threads_run_whole(self, cpus, monkeypatch):
        """OpenBLAS's two threads split each product's rows, and then this
        product whole and in two column blocks differ from row 128 on."""
        tensors._openblas("set_num_threads")(2)
        assert tensors._blas_threads() == 2
        a, b = visual_operands(256, 576, 577, seed=577)
        calls = []
        whole = note_products(monkeypatch, lambda a, b: calls.append(b.shape))
        assert_bits_at_each_count(cpus, lambda: matmul_cols(a, b), whole(a, b), pooled=False)
        assert calls == [b.shape] * len(CPU_COUNTS)

    def test_unknown_blas_threads_run_whole(self, cpus, monkeypatch):
        monkeypatch.setattr(tensors, "_blas_threads", lambda: None)
        a, b = visual_operands(256, 576, 2308)
        calls = []
        whole = note_products(monkeypatch, lambda a, b: calls.append(b.shape))
        assert_bits_at_each_count(cpus, lambda: matmul_cols(a, b), whole(a, b), pooled=False)
        assert calls == [b.shape] * len(CPU_COUNTS)

    def test_on_a_pool_thread_runs_whole(self, cpus, monkeypatch):
        cpus(4)
        a, b = visual_operands(256, 576, 2308)
        calls = []
        whole = note_products(monkeypatch, lambda a, b: calls.append(b.shape))
        outs = tensors._in_threads(lambda i: matmul_cols(a, b), range(3))
        assert calls == [b.shape] * 3
        assert all(out.tobytes() == whole(a, b).tobytes() for out in outs)

    @pytest.mark.parametrize("m, k, n", [
        (256, 576, 512), (256, 576, 577), (256, 576, 1000), (256, 576, 2308), (64, 1152, 4612),
        (64, 64, 4100),                 # 2^22 MACs take 1024 columns here
    ])
    def test_blocks_are_multiples_of_8_columns_in_order(self, cpus, monkeypatch, m, k, n):
        a, b = visual_operands(m, k, n, seed=n)
        b = b.copy()
        b[0] = np.arange(n)  # a block's first column names where it starts
        expected = matmul(a, b)
        width = max(256, math.ceil(tensors._BLOCK_MACS / (m * k * 8)) * 8)
        blocks = []
        note_products(monkeypatch, lambda a, b: blocks.append((int(b[0, 0]), b.shape[1])))
        for count in CPU_COUNTS:
            cpus(count)
            blocks.clear()
            assert matmul_cols(a, b).tobytes() == expected.tobytes()
            assert_blocks_in_order(blocks, n)
            assert len(blocks) == min(count, n // width)
            assert all(size >= 256 and m * k * size >= tensors._BLOCK_MACS for _, size in blocks)

    def test_blocks_write_into_one_output(self, cpus):
        a, b = visual_operands(256, 576, 2308)
        assert_blocks_write_into_one_output(cpus, lambda: matmul_cols(a, b))


@pytest.mark.usefixtures("one_blas_thread")  # blocks split only there
class TestAttentionBlocks:
    """attend's (query tile, head group) blocks on the pool keep the bits of
    the serial loop: causal V+T self-attention and text-over-visual
    cross-attention at the workloads' 8 heads of 32 channels. `pooled` is
    True, False, or the one dtype whose head groups split the call."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n, m, causal, pooled", [
        (592, 592, True, True),         # image336 incontext
        (704, 704, True, True),         # video_long incontext
        (256, 256, True, True),         # two causal tiles
        # video_long text: one tile at 2^23 MACs, two groups of 4 heads in
        # float64; the 8 heads of float32 logits fit one group, one block
        (128, 128, True, "float64"),
        (120, 120, True, False),        # a causal tile under _SPLIT_MACS
        (128, 576, False, True),        # video_long conditioner and insert
        (16, 576, False, False),        # image336 conditioner and insert
    ])
    def test_bits(self, cpus, n, m, causal, pooled, dtype):
        rng = make_rng(n + m)
        q = rng.normal(size=(8, n, 32)).astype(dtype)
        k, v = (rng.normal(size=(8, m, 32)).astype(dtype) for _ in range(2))
        cpus(1)
        expected = attend(q, k, v, causal)
        pooled = pooled is True or pooled == np.dtype(dtype).name
        with checks_at_boundaries():
            assert_bits_at_each_count(cpus, lambda: attend(q, k, v, causal), expected, pooled)

    @pytest.mark.parametrize("threads", [2, None])
    def test_more_or_unknown_blas_threads_run_inline(self, cpus, monkeypatch, threads):
        monkeypatch.setattr(tensors, "_blas_threads", lambda: threads)
        rng = make_rng(15)
        q, k, v = (rng.normal(size=(8, 592, 32)) for _ in range(3))
        cpus(1)
        expected = attend(q, k, v, True)
        assert_bits_at_each_count(cpus, lambda: attend(q, k, v, True), expected, pooled=False)

    def test_nan_in_a_late_block_raises_the_earliest(self, cpus, monkeypatch):
        rng = make_rng(3)
        q, k, v = (rng.normal(size=(8, 592, 32)) for _ in range(3))
        q[5, 300] = np.nan  # tile [256, 384), head 5
        q[7, 590] = np.inf  # the last tile
        cpus(4)
        names = []
        check = tensors.check_finite
        monkeypatch.setattr(tensors, "check_finite", lambda name, out: names.append(name) or check(name, out))
        with checks_at_boundaries(), pytest.raises(NumericError, match="attention logits"):
            attend(q, k, v, True)
        assert tensors._pool is not None and names

    def test_batch_axes_that_do_not_broadcast_are_a_shape_error(self):
        rng = make_rng(4)
        q = rng.normal(size=(3, 2, 5, 4))
        k = v = rng.normal(size=(2, 2, 6, 4))
        with pytest.raises(ShapeError, match="attention batch axes"):
            attend(q, k, v, False)


@pytest.mark.usefixtures("one_blas_thread")  # row, attention and column blocks split only there
class TestInThreads:
    def test_nested_call_runs_inline_on_its_thread(self):
        """With 2 CPUs the pool has one thread; an item that called the pool
        again from that thread would wait on itself for ever. The check runs
        in a child process, so a hang fails it instead of the whole run."""
        script = textwrap.dedent("""
            import threading, time
            from featmod import tensors

            tensors._usable_cpus = lambda: 2
            caller = threading.current_thread()

            def inner(i):
                return threading.current_thread(), i

            def outer(i):
                if threading.current_thread() is caller:
                    time.sleep(0.05)  # the pool thread takes the other items
                return threading.current_thread(), tensors._in_threads(inner, range(3))

            results = tensors._in_threads(outer, range(4))
            for outer_thread, nested in results:
                assert nested == [(outer_thread, i) for i in range(3)]
            assert any(outer_thread is not caller for outer_thread, _ in results)
            print("ok")
        """)
        src = str(Path(tensors.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("a nested _in_threads call did not return within 60 s")
        assert run.returncode == 0 and run.stdout.strip() == "ok", run.stderr

    def test_rowwise_on_a_pool_thread_runs_whole(self, cpus):
        cpus(4)
        x, w = make_rng(6).normal(size=(592, 256)), make_rng(7).normal(size=(256, 256))
        calls = []

        def item(i):
            return rowwise(lambda rows, w, **kw: calls.append(len(rows)) or matmul(rows, w, **kw), x, w)

        outs = tensors._in_threads(item, range(3))
        assert calls == [592] * 3
        assert all(out.tobytes() == matmul(x, w).tobytes() for out in outs)

    def test_the_earliest_failing_row_block_raises_once_every_thread_has_stopped(self, cpus):
        cpus(4)
        x = make_rng(8).normal(size=(592, 256))
        x[:, 0] = np.arange(592)  # blocks start at rows 0, 144, 296 and 440
        started, ended = [], []

        def block(rows, w, out=None):
            start = int(rows[0, 0])
            started.append(start)
            try:
                time.sleep({0: 0.1, 144: 0.2}.get(start, 0.0))  # block 144 fails after the later ones
                if start > 0:
                    raise ValueError(f"block {start}")
                return rows
            finally:
                ended.append(start)

        with pytest.raises(ValueError, match="block 144"):
            rowwise(block, x, np.eye(256))
        assert sorted(ended) == sorted(started) and 144 in ended

    @staticmethod
    def thread_names(expected: int):
        """(note, names): note() adds the calling thread's name to names and
        holds each thread's first block until `expected` threads hold one,
        so every thread the pool starts runs a block, and a thread too few or
        too many breaks the barrier instead of passing unseen."""
        names: set = set()
        lock = threading.Lock()
        barrier = threading.Barrier(expected, timeout=10)

        def note():
            name = threading.current_thread().name
            with lock:
                first = name not in names
                names.add(name)
            if first:
                barrier.wait()

        return note, names

    @pytest.mark.parametrize("kind", ["attention", "rows", "columns", "tiles"])
    def test_one_thread_per_cpu_and_block(self, cpus, kind, monkeypatch):
        """min(CPUs, blocks) threads run the blocks, counted by thread name,
        and one block never starts the pool, for each kind of block: the 30
        (query tile, head group) blocks of a causal 592-query attention and
        the one of a one-head cross-attention; the row blocks of a 592-row
        product, rows // _BLOCK_ROWS at most; the column blocks of a
        4612-column product, columns // 256 at most,
        and the one of a 511-column product; and the 15 token-mix tiles of
        a 5-token, 20-channel mix under a 1-byte budget, one tile under the
        default budget."""
        from featmod import conditioning
        from featmod.conditioning import MlpCondParams, cond_mlp

        rng = make_rng(9)
        notes = []  # the note() of the current CPU count

        def noted(fn):
            return lambda *args, **kwargs: notes[-1]() or fn(*args, **kwargs)

        default_budget = budget = tensors._BLOCK_BYTES
        if kind == "attention":
            q, k, v = (rng.normal(size=(8, 592, 32)) for _ in range(3))
            one = [rng.normal(size=(1, n, 256)) for n in (128, 576, 576)]  # 38e6 MACs, one head
            monkeypatch.setattr(tensors, "_score", noted(tensors._score))
            run, blocks, run_one = lambda: attend(q, k, v, True), 30, lambda: attend(*one, False)
        elif kind == "rows":
            x, w = rng.normal(size=(592, 256)), np.eye(256)
            run, blocks, run_one = lambda: rowwise(noted(matmul), x, w), 592 // tensors._BLOCK_ROWS, None
        elif kind == "columns":
            a, b = visual_operands(64, 1152, 4612)
            one = visual_operands(256, 576, 511)
            monkeypatch.setattr(tensors, "matmul", noted(matmul))
            run, blocks, run_one = lambda: matmul_cols(a, b), 4612 // 256, lambda: matmul_cols(*one)
        else:
            t, v = rng.normal(size=(5, 20)), rng.normal(size=(4, 20))
            p = MlpCondParams.init(rng, 20, 4, 2, 2, std=0.3)
            monkeypatch.setattr(conditioning, "_mix_tile", noted(conditioning._mix_tile))
            budget, blocks = 1, 15
            run = run_one = lambda: cond_mlp(t, v, p)
        for n in (1, 2, 3, 4, 16):
            cpus(n)
            monkeypatch.setattr(tensors, "_BLOCK_BYTES", budget)
            note, names = self.thread_names(min(n, blocks))
            notes.append(note)
            run()
            assert len(names) == min(n, blocks), (n, names)
            assert (tensors._pool is not None) == (n > 1), n
        if run_one is not None:  # a row-wise product is one block at 1 CPU only, checked above
            cpus(16)
            monkeypatch.setattr(tensors, "_BLOCK_BYTES", default_budget)
            notes.append(self.thread_names(1)[0])
            run_one()
            assert tensors._pool is None
