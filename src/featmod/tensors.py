"""Deterministic dense-tensor substrate.

All values travel as row-major numpy arrays, float64 on verification paths
(float32 is accepted for bulk forward passes). Called on their own, the
public operations check their output for NaN/Inf and raise NumericError on
violation; shape problems raise ShapeError before any arithmetic runs.

Inside ``checks_at_boundaries()``, which ``model.forward`` enters once per
pass, those per-op checks are skipped and the caller checks the boundaries
that a NaN or Inf has to cross instead, with ``check_finite``, which always
runs. The scope also enters numpy's ``errstate(over="ignore",
invalid="ignore")`` once, so ``matmul`` does not enter its own.

Seeded randomness uses numpy's PCG64 generator exclusively: equal seeds give
bit-identical streams on every platform numpy supports.

``matmul`` and ``depthwise_conv1d`` take leading batch axes that broadcast
numpy-style: (..., m, k) @ (..., k, n) and (..., C, L) signals against
(..., C, K) kernels, so multi-head attention is one batched product and a
stack of perturbed copies runs in one call. Incompatible batch axes raise
ShapeError before any arithmetic.

A process-global multiply-accumulate counter can be armed with
``count_macs()``; while armed, ``matmul`` records ``out.size * k`` MACs and
``depthwise_conv1d`` records ``out.size * K``, batch axes included. The
analytic cost model is validated against forward passes traversed under this
counter.
"""

from __future__ import annotations

import math
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


@contextmanager
def count_macs() -> Iterator[MacCounter]:
    """Arm a counter for the duration of the block. Not thread-safe."""
    counter = MacCounter()
    _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.remove(counter)


def _record_macs(n: int) -> None:
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
    if not np.isfinite(out).all():
        raise NumericError(f"{name} produced non-finite values")
    return out


def _check_finite(name: str, out: np.ndarray) -> np.ndarray:
    """A public op's own output check, skipped inside checks_at_boundaries."""
    return out if _AT_BOUNDARIES.get() else check_finite(name, out)


# ---------------------------------------------------------------------------
# Core ops

def _batch_shape(op: str, a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """Broadcast shape of the leading axes of two operands of rank >= 2."""
    try:
        return np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"{op} batch axes do not broadcast: {a.shape} vs {b.shape}") from None


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product (..., m, k) @ (..., k, n); leading batch axes broadcast."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    batch = 1
    if a.ndim > 2 or b.ndim > 2:
        batch = math.prod(_batch_shape("matmul", a, b))
    _record_macs(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])
    if _AT_BOUNDARIES.get():
        return a @ b
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    return check_finite("matmul", out)


def softmax_lastdim(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, always max-subtracted for stability.

    -inf entries (masked logits) map to exact zeros. The exponentials and the
    normalization reuse the one shifted buffer, so attention-sized inputs
    allocate a single output-sized array.
    """
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last axis")
    out = x - np.max(x, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return _check_finite("softmax", out)


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
    batch = _batch_shape("depthwise_conv1d", x, kernel)
    channels, length = x.shape[-2:]
    pad = k // 2
    padded = np.zeros(x.shape[:-1] + (length + 2 * pad,), dtype=x.dtype)
    padded[..., pad:pad + length] = x
    out = np.zeros(batch + (channels, length), dtype=x.dtype)
    for j in range(k):
        out += kernel[..., j:j + 1] * padded[..., j:j + length]
    _record_macs(out.size * k)
    return _check_finite("depthwise_conv1d", out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def swish(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x). Also known as SiLU."""
    x = np.asarray(x)
    return _check_finite("swish", x * sigmoid(x))


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
    return _check_finite("gelu", out)


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


def sinusoid_positions(positions: np.ndarray | list[int], dim: int) -> np.ndarray:
    """Fixed sinusoidal encodings, one row per position.

    Even channels carry sin(pos / 10000^(c/dim)), odd channels the matching
    cos. Position 0 therefore encodes as zeros on sin channels and ones on
    cos channels.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    out = np.zeros((pos.shape[0], dim), dtype=np.float64)
    even = np.arange(0, dim, 2)
    rates = 1.0 / np.power(10000.0, even / dim)
    angles = pos * rates
    out[:, even] = np.sin(angles)
    odd = even + 1
    odd = odd[odd < dim]
    out[:, odd] = np.cos(angles[:, : odd.shape[0]])
    return out


# ---------------------------------------------------------------------------
# Tensor file I/O
#
# A manifest is a text file of lines `name shape=d0xd1x... dtype=f64`; the
# companion `.bin` file holds the raw little-endian row-major values of each
# tensor, concatenated in manifest order.

_DTYPES = {"f64": "<f8", "f32": "<f4"}
_DTYPE_NAMES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


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
    for line in manifest_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            name, shape_field, dtype_field = line.split(" ")
            shape = tuple(int(d) for d in shape_field.removeprefix("shape=").split("x"))
            dtype = _DTYPES[dtype_field.removeprefix("dtype=")]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"malformed manifest line: {line!r}") from exc
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise ConfigError(f"binary file too short for tensor {name!r}")
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
        out[name] = arr.astype(np.dtype(dtype).newbyteorder("=")).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise ConfigError("binary file has trailing bytes not covered by the manifest")
    return out
