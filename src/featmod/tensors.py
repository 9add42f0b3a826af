"""Deterministic dense-tensor substrate.

All values travel as row-major numpy arrays, float64 on verification paths
(float32 is accepted for bulk forward passes). Shape problems raise
ShapeError before any arithmetic runs. Called on their own, the checked ops
``matmul``, ``depthwise_conv1d``, ``softmax_lastdim``, ``gelu`` and ``swish``
(``_finite_op``, which ``norm.layer_norm`` and ``norm.viln_apply`` share)
silence numpy's overflow and invalid warnings and raise NumericError on a
NaN or Inf output. Inside ``checks_at_boundaries()``, entered once per
``model.forward`` pass and per field of ``norm.max_gradient_error``, they
run bare, and the caller checks the boundaries a NaN or Inf has to cross
with ``check_finite``, which always runs.

Hot-path convention: the ops on the forward, diagnose and gradient-check
paths call numpy's ufuncs and ufunc methods directly (``np.add.reduce``,
``np.maximum.reduce``, ``np.logical_and.reduce``, ``np.minimum``), never
numpy's Python-level wrappers (``ndarray.mean``, ``np.mean``, ``np.max``,
``np.sum``, ``ndarray.all``, ``np.clip``). A wrapper runs the same C
reduction on the same operands after 1-2 us of Python. On an (8, 32)
float64 array (numpy 2.4, one Xeon core) ``x.mean(axis=-1, keepdims=True)``
and ``np.mean`` cost about 1.6-2.2 us more than
``np.add.reduce(x, axis=-1, keepdims=True) / n``; ``np.max`` and ``np.sum``
about 1.6-2.0 us more than ``np.maximum.reduce`` and ``np.add.reduce``;
``np.clip`` about 1.2 us more than ``np.minimum`` of ``np.maximum``; and
``.all()`` 0.15 us more than ``np.logical_and.reduce``. A desk forward made
88-108 such wrapper calls. Every output keeps its bits: a float64 or
float32 mean is ``np.add.reduce`` divided by the count, as ``np.mean``
computes it (a float32 sum divided in float32 rounds to the same bits as
``np.mean``'s float64 division for any count below 2**24), and a mean of
any other dtype calls ``np.mean`` itself. tests/test_hot_path.py fails on
any call into numpy's ``_methods.py`` or ``fromnumeric.py`` from those
paths.

Seeded randomness uses numpy's PCG64 generator exclusively: equal seeds give
bit-identical streams on every platform numpy supports.

``matmul`` and ``depthwise_conv1d`` take leading batch axes that broadcast
numpy-style: (..., m, k) @ (..., k, n) and (..., C, L) signals against
(..., C, K) kernels, so multi-head attention is one batched product and a
stack of perturbed copies runs in one call. ``matmul``'s inner and batch axes
are checked by numpy's ``@`` before it computes; a mismatch raises ShapeError.

``attend`` is the one attention kernel: the model's causal self-attention,
the attn conditioner and the crossattn insert all run through it. It scores
split heads in cache-sized groups, causal calls in 128-query tiles, and
checks each group's raw logits with ``check_finite``, even inside
``checks_at_boundaries``, since softmax maps a -inf logit to an exact 0.

A process-global multiply-accumulate counter can be armed with
``count_macs()``; while armed, ``matmul`` records ``out.size * k`` MACs and
``depthwise_conv1d`` records ``out.size * K``, batch axes included, once the
output exists, on whichever thread runs them. The analytic cost model is validated against forward passes
traversed under this counter.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value is out of contract."""


class NumericError(ValueError):
    """An operation produced NaN or Inf."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the only randomness source in the package."""
    return np.random.Generator(np.random.PCG64(int(seed)))


# ---------------------------------------------------------------------------
# MAC counting

class MacCounter:
    """Accumulates multiply-accumulate counts from ops run while armed."""

    def __init__(self) -> None:
        self.macs = 0

    @property
    def flops(self) -> int:
        """FLOPs under the multiply-accumulate = 2 FLOPs convention."""
        return 2 * self.macs


_ACTIVE_COUNTERS: list[MacCounter] = []
_COUNTERS_LOCK = threading.Lock()


@contextmanager
def count_macs() -> Iterator[MacCounter]:
    """Arm a counter for the duration of the block.

    Ops on every thread count while it is armed, so the counter includes the
    mlp conditioner's token-mix worker threads, and the total does not
    depend on how many there are. Counters may be armed and read from
    several threads at once.
    """
    counter = MacCounter()
    with _COUNTERS_LOCK:
        _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        with _COUNTERS_LOCK:
            _ACTIVE_COUNTERS.remove(counter)


def _record_macs(n: int) -> None:
    if _ACTIVE_COUNTERS:  # the lock is taken only while a counter is armed
        with _COUNTERS_LOCK:
            for counter in _ACTIVE_COUNTERS:
                counter.macs += n


_AT_BOUNDARIES: ContextVar[bool] = ContextVar("featmod_checks_at_boundaries", default=False)


@contextmanager
def checks_at_boundaries() -> Iterator[None]:
    """Skip the per-op finite checks for the duration of the block.

    The caller takes on checking, with check_finite, every boundary a NaN or
    Inf could otherwise slip past; overflow and invalid-operation warnings
    are silenced for the block, since the checks report them instead.
    """
    token = _AT_BOUNDARIES.set(True)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    finally:
        _AT_BOUNDARIES.reset(token)


def check_finite(name: str, out: np.ndarray) -> np.ndarray:
    """Raise NumericError if out holds a NaN or Inf, in or out of checks_at_boundaries."""
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise NumericError(f"{name} produced non-finite values")
    return out


def _finite_op(op):
    """A public op that checks its own output, bare inside checks_at_boundaries.
    An op that returns a tuple has its output first; only that is checked."""

    @functools.wraps(op)
    def checked(*args, **kwargs):
        if _AT_BOUNDARIES.get():
            return op(*args, **kwargs)
        with np.errstate(over="ignore", invalid="ignore"):
            result = op(*args, **kwargs)
        check_finite(op.__name__, result[0] if isinstance(result, tuple) else result)
        return result

    return checked


# ---------------------------------------------------------------------------
# Core ops

@_finite_op
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product (..., m, k) @ (..., k, n); leading batch axes broadcast."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2-D, got {a.shape} @ {b.shape}")
    try:
        out = a @ b
    except ValueError:
        raise ShapeError(f"matmul operands do not match: {a.shape} @ {b.shape}") from None
    _record_macs(out.size * a.shape[-1])
    return out


@_finite_op
def softmax_lastdim(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, always max-subtracted for stability.

    -inf entries (masked logits) map to exact zeros. The exponentials and the
    normalization reuse the one shifted buffer, so attention-sized inputs
    allocate a single output-sized array. out may be x itself, for a caller
    that owns x and no longer needs it; softmax then allocates no x-sized
    array at all.
    """
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last axis")
    out = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


@_finite_op
def depthwise_conv1d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Per-channel 1-D cross-correlation with same padding.

    x: (..., C, L) signal, kernel: (..., C, K) with K odd; leading batch axes
    broadcast. Output keeps length L; K // 2 zeros are assumed on each side.
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim < 2 or kernel.ndim < 2:
        raise ShapeError(f"depthwise_conv1d expects x and kernel of at least 2-D, got {x.shape} / {kernel.shape}")
    if x.shape[-2] != kernel.shape[-2]:
        raise ShapeError(f"channel counts differ: x {x.shape} kernel {kernel.shape}")
    k = kernel.shape[-1]
    if k % 2 == 0:
        raise ConfigError(f"kernel width must be odd, got {k}")
    try:
        batch = np.broadcast_shapes(x.shape[:-2], kernel.shape[:-2])
    except ValueError:
        raise ShapeError(f"depthwise_conv1d batch axes do not broadcast: {x.shape} vs {kernel.shape}") from None
    channels, length = x.shape[-2:]
    pad = k // 2
    padded = np.zeros(x.shape[:-1] + (length + 2 * pad,), dtype=x.dtype)
    padded[..., pad:pad + length] = x
    out = np.zeros(batch + (channels, length), dtype=x.dtype)
    for j in range(k):
        out += kernel[..., j:j + 1] * padded[..., j:j + length]
    _record_macs(out.size * k)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1."""
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@_finite_op
def swish(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x). Also known as SiLU."""
    x = np.asarray(x)
    return x * sigmoid(x)


def swish_grad(x: np.ndarray) -> np.ndarray:
    s = sigmoid(np.asarray(x))
    return s + x * s * (1.0 - s)


_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def _one_plus_erf(x: np.ndarray) -> np.ndarray:
    """1 + erf(x / sqrt 2) in a fresh buffer, with erf evaluated on |x| and
    the sign of x copied back. erf is odd and scipy's erf starts with
    `x < 0 -> -erf(-x)`, so the bits are those of erf(x / sqrt 2), but that
    branch on the sign, which mispredicts on mixed-sign input, always goes
    the same way."""
    cdf = np.asarray(x / _SQRT2)  # a 0-d x divides to a scalar, which erf cannot write into
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    return cdf


@_finite_op
def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact (erf-based) GELU: 0.5 * x * (1 + erf(x / sqrt 2)), evaluated in
    that order, with erf taken on |x| (see _one_plus_erf): the same bits,
    faster on mixed-sign input.

    out may be x itself, for a caller that owns x and no longer needs it;
    GELU then allocates one buffer of x's size instead of two.
    """
    x = np.asarray(x)
    cdf = _one_plus_erf(x)
    out = np.multiply(0.5, x, out=out)
    out *= cdf
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    cdf = 0.5 * _one_plus_erf(x)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """View (..., n, C) as (..., heads, n, C // heads); head h holds channels
    h*dk..(h+1)*dk, the column block a per-head loop would slice."""
    *batch, n, channels = x.shape
    return x.reshape(*batch, n, heads, channels // heads).swapaxes(-3, -2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of split_heads: (..., heads, n, dk) to (..., n, heads * dk)."""
    *batch, heads, n, dk = x.shape
    return x.swapaxes(-3, -2).reshape(*batch, n, heads * dk)


# Query rows per causal tile; every n <= _QUERY_TILE runs as one tile.
_QUERY_TILE = 128
# The causal mask of a tile's diagonal block: -inf strictly above the diagonal.
_TILE_MASK = np.triu(np.full((_QUERY_TILE, _QUERY_TILE), -np.inf), k=1)
_TILE_MASK.setflags(write=False)
# Logits bytes a tile scores at once: heads are grouped so a group fits in L2.
_LOGITS_BYTES = 512 * 1024


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, causal: bool) -> np.ndarray:
    """Scaled dot-product attention of split-head queries (..., heads, n, dk)
    over keys and values (..., heads, m, dk), batch axes broadcasting; the
    (..., heads, n, dk) context is laid out so merge_heads of it is a view.

    Causal calls (n == m) run 128-query tiles: tile [a, b) scores keys [0, b)
    only, and only its diagonal block takes the -inf mask. Non-causal calls
    run all queries as one tile, as tiling them saves no keys. A tile scores
    its heads in groups whose logits fit _LOGITS_BYTES (one head at least),
    so they stay in cache through softmax and the value product. numpy's
    batched matmul runs one BLAS call per head on the same operands and the
    rest is elementwise or per row, so any grouping gives the same bits.
    """
    heads, n, dk = q.shape[-3:]
    batch = q.shape[:-3]
    if k.shape[:-3] != batch or v.shape[:-3] != batch:
        batch = np.broadcast_shapes(batch, k.shape[:-3], v.shape[:-3])
    ctx = np.empty(batch + (n, heads, v.shape[-1]), np.result_type(q, k, v)).swapaxes(-3, -2)
    scale = 1.0 / math.sqrt(dk)
    for a in range(0, n, _QUERY_TILE if causal else max(n, 1)):
        b = min(a + _QUERY_TILE, n) if causal else n
        keys = b if causal else k.shape[-2]
        group = max(1, _LOGITS_BYTES // ((b - a) * keys * q.itemsize))
        for g in range(0, heads, group):
            hs = slice(g, g + group)
            # Logits scaled, masked and softmaxed in place: no second logits-sized array.
            # Checked even inside checks_at_boundaries: softmax maps a -inf logit to an exact 0.
            logits = check_finite("attention logits", matmul(q[..., hs, a:b, :], k[..., hs, :keys, :].swapaxes(-1, -2)))
            logits *= scale
            if causal:
                logits[..., a:] += _TILE_MASK[: b - a, : b - a]
            ctx[..., hs, a:b, :] = matmul(softmax_lastdim(logits, out=logits), v[..., hs, :keys, :])
    return ctx


def sinusoid_positions(positions: np.ndarray | list[int], dim: int) -> np.ndarray:
    """Fixed sinusoidal encodings, one row per position.

    Even channels carry sin(pos / 10000^(c/dim)), odd channels the matching
    cos. Position 0 therefore encodes as zeros on sin channels and ones on
    cos channels.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    out = np.empty((pos.shape[0], dim), dtype=np.float64)
    angles = pos * (1.0 / np.power(10000.0, np.arange(0, dim, 2) / dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, : dim // 2])
    return out


# ---------------------------------------------------------------------------
# Tensor file I/O
#
# A manifest is a text file of lines `name shape=d0xd1x... dtype=f64`; the
# companion `.bin` file holds the raw little-endian row-major values of each
# tensor, concatenated in manifest order.

_DTYPES = {"f64": "<f8", "f32": "<f4"}
_DTYPE_NAMES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


def read_text(path: str | Path) -> str:
    """A config or manifest file's text; bytes that do not decode are a ConfigError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _bin_path(manifest_path: Path) -> Path:
    return manifest_path.with_suffix(".bin")


def save_tensors(manifest_path: str | Path, named: Mapping[str, np.ndarray]) -> None:
    """Write a tensor manifest and its companion binary file."""
    manifest_path = Path(manifest_path)
    lines = []
    blobs = []
    for name, arr in named.items():
        arr = np.asarray(arr)
        if " " in name:
            raise ConfigError(f"tensor name may not contain spaces: {name!r}")
        dtype_name = _DTYPE_NAMES.get(arr.dtype)
        if dtype_name is None:
            raise ConfigError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        shape = "x".join(str(d) for d in arr.shape)
        lines.append(f"{name} shape={shape} dtype={dtype_name}")
        blobs.append(np.ascontiguousarray(arr).astype(_DTYPES[dtype_name]).tobytes())
    manifest_path.write_text("\n".join(lines) + "\n")
    _bin_path(manifest_path).write_bytes(b"".join(blobs))


def load_tensors(manifest_path: str | Path) -> dict[str, np.ndarray]:
    """Read back tensors written by save_tensors, in manifest order."""
    manifest_path = Path(manifest_path)
    raw = _bin_path(manifest_path).read_bytes()
    out: dict[str, np.ndarray] = {}
    offset = 0
    for line in read_text(manifest_path).splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            name, shape_field, dtype_field = line.split(" ")
            shape = tuple(int(d) for d in shape_field.removeprefix("shape=").split("x"))
            if min(shape) < 0:
                raise ValueError(f"negative dimension in {shape}")
            dtype = _DTYPES[dtype_field.removeprefix("dtype=")]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"malformed manifest line: {line!r}") from exc
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap around
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise ConfigError(f"binary file too short for tensor {name!r}")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        out[name] = arr.astype(np.dtype(dtype).newbyteorder("=")).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise ConfigError("binary file has trailing bytes not covered by the manifest")
    return out
