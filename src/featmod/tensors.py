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

Threads: one thread pool, created on first use, runs four kinds of
independent blocks on every usable CPU: ``attend``'s (query tile, head
group) blocks, the row blocks of ``rowwise`` (the model's Q/K/V/O
projections, its FFN, the attn conditioner's and crossattn insert's
projections and the incontext connector) and the column blocks of
``matmul_cols`` (the mlp conditioner's visual term), each writing its own
slice of one output allocated before they run; and the mlp conditioner's
token-mix tiles, joined once they have run.
``_in_threads`` runs them on one thread per usable CPU and block, each
thread taking the next block as it finishes one; numpy and scipy's erf
release the GIL inside them. The CPUs are the process's affinity
(os.sched_getaffinity), so `taskset -c 0` pins a run to one thread. Every
block runs under a copy of the caller's context, so checks_at_boundaries
and numpy's error state hold there, and a failure re-raises the error of
the earliest failing block once every thread has stopped.

The split rule. Row and column blocks are the two outer partitions of one
product (Goto & van de Geijn, 2008), and ``_split`` cuts both. A call
under _SPLIT_MACS (2^23), a call on a pool thread, a call while numpy's
OpenBLAS runs more than one thread or a count featmod cannot read, and a
call too short for two blocks of the least length (_BLOCK_ROWS = 64 rows;
_BLOCK_COLS columns and _BLOCK_MACS MACs) run as one plain call on the
caller's thread; any other has one block per usable CPU, at most as many
as fit the least length, each but the last a multiple of 8 rows or columns
long, so no block is a 1-row matrix-vector product. ``attend`` sends its
blocks to the pool under the same rule (``_pooled``). At one BLAS thread
and C=256 the gate and the 64-row least take every product of 128 rows or
more: a 128-row forward's Q/K/V/O projections (2^23 MACs each) and FFN run
as two 64-row blocks and its causal self-attention as two head groups, and
so do the attn conditioner's and crossattn insert's 128-row products, while
the 16 text rows of an image336 forward run whole. The token-mix tiles are
cut by _BLOCK_BYTES instead, and go to the pool whenever there are two or
more, whatever BLAS runs (see conditioning.cond_mlp). A desk-sized
forward, a gradient check and the op-walk fall under every gate and make
one tile, so they never start the pool. Each thread holds at most one
_BLOCK_BYTES block, an attention logits group or a token-mix tile.

A block is the same product on fewer rows or columns, so outputs, errors
and counted MACs are the same for any thread count, and the outputs bit
for bit for the shapes the rule allows, which tests/test_tensors.py checks
family by family. Outside them OpenBLAS 0.3.31 (core SkylakeX, one thread)
changed bits:

* row blocks, for a column count that is not a multiple of 8: (256, 576) @
  (576, 2308) split in two differs in the tail columns of the rows that end
  a block. rowwise therefore splits only 2-D x and weights whose column
  counts are multiples of 8;
* column blocks, for a float64 tail block, the one holding the n % 8
  columns, narrower than 192 columns, as (256, 576) @ (576, 2308) split at
  2120 | 188, (256, 576) @ (576, 577) split in four or (512, 64) @ (64,
  260) split in two, and for blocks under about 1e6 MACs even when wider,
  as (128, 6) @ (6, 2308) split at 1152 | 1156 and (128, 6) @ (6, 21846)
  in 32 blocks of 680-688 columns; hence the least width;
* both, under OpenBLAS's own threads, which split each product's rows:
  (256, 576) @ (576, 577) whole and in two column blocks differ in column
  576 from row 128 on. Nothing splits unless numpy's OpenBLAS reports one
  thread (read through ctypes), which also keeps pool threads from each
  running BLAS's threads on the same cores, and any run that must keep its
  bits should keep BLAS at one thread (OPENBLAS_NUM_THREADS=1 and the
  like), since those threads change the bits of some whole products too.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

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
    pool threads' blocks, and the total does not depend on how many there
    are. Counters may be armed and read from several threads at once.
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
# Threads

# Bytes of a thread's block, a logits group or a token-mix tile: it stays in L2.
_BLOCK_BYTES = 512 * 1024
# Multiply-accumulates a call must reach before its blocks go to the pool.
# A hand-off to a pool thread and back costs about 60 us (2-vCPU Xeon). A
# 2^23-MAC product, a 128-row projection at C=256, takes about 0.3 ms on one
# core, so two blocks save about 0.15 ms, 2.5 times the hand-off; at 2^22
# the saving barely covers it.
_SPLIT_MACS = 1 << 23
# Rows of a row block at least (rowwise).
_BLOCK_ROWS = 64
# Columns and multiply-accumulates of a column block at least (matmul_cols).
_BLOCK_COLS = 256
_BLOCK_MACS = 1 << 22

# The pool, one thread per usable CPU besides the caller's, created on first
# use; a forked child starts without it (the parent's threads do not survive
# a fork).
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# Set while a thread runs _in_threads items: a nested call then runs inline,
# since pool threads waiting on the pool could wait forever.
_IN_POOL_WORK: ContextVar[bool] = ContextVar("featmod_in_pool_work", default=False)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _usable_cpus() - 1), thread_name_prefix="featmod-pool")
        return _pool


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_threads(run, items: Sequence) -> list:
    """[run(item) for item in items] on one thread per usable CPU and item,
    this one and pool threads, each taking the next item in order as it
    finishes one, so a thread slowed by a busy core takes fewer. Every pool
    thread runs under a copy of this thread's context and numpy error state,
    so checks_at_boundaries holds there too. Returns once every thread has
    stopped; after a failure no thread takes another item, and the error of
    the earliest failing item is raised, the one a serial loop would meet.
    With one item or CPU, or called from inside an item, it is that loop."""
    workers = 1 if len(items) < 2 or _IN_POOL_WORK.get() else min(_usable_cpus(), len(items))
    if workers < 2:
        return [run(item) for item in items]
    results: list = [None] * len(items)
    order = iter(range(len(items)))  # shared; next() on it is atomic under the GIL

    def drain() -> None:
        for i in order:
            try:
                results[i] = run(items[i])
            except BaseException as exc:
                results[i] = exc
                for _ in order:  # hand out no further items
                    pass

    pool = _executor()
    err = np.geterr()
    token = _IN_POOL_WORK.set(True)
    try:
        futures = [pool.submit(contextvars.copy_context().run, _with_errstate, err, drain) for _ in range(workers - 1)]
        drain()
        for future in futures:
            future.result()
    finally:
        _IN_POOL_WORK.reset(token)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _with_errstate(err: dict, run) -> None:
    # numpy before 2.0 keeps its error state per thread, outside contextvars
    with np.errstate(**err):
        run()


def _pooled(macs: int) -> bool:
    """Whether a call of `macs` MACs may send blocks to the pool: it reaches
    _SPLIT_MACS, runs off the pool's threads, and numpy's OpenBLAS reports
    one thread, since pool threads each running BLAS's threads would
    oversubscribe the cores."""
    return macs >= _SPLIT_MACS and not _IN_POOL_WORK.get() and _blas_threads() == 1


def _split(size: int, least: int, macs: int) -> list[slice]:
    """Blocks of range(size) for a call of `macs` MACs, in order: one per
    usable CPU, `least` long at least, each but the last a multiple of 8
    long; one whole block when range(size) holds fewer than two blocks of
    `least` or the call is not _pooled."""
    if size < 2 * least or not _pooled(macs):
        return [slice(0, size)]
    blocks = min(_usable_cpus(), size // least)
    bounds = [size * i // blocks // 8 * 8 for i in range(blocks)] + [size]
    return [slice(start, end) for start, end in zip(bounds, bounds[1:])]


@functools.cache
def _openblas(name: str):
    """OpenBLAS function `name` (e.g. "get_num_threads") of the library
    bundled with numpy's wheels, through ctypes, or None where numpy carries
    none."""
    root = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(root, "..", "numpy.libs", "libscipy_openblas*")) + \
            glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs a product on, or None if unknown."""
    get = _openblas("get_num_threads")
    return get() if get is not None else None


def rowwise(fn: Callable[..., np.ndarray], x: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """fn(x, *operands) for a 2-D x whose rows fn maps one by one through
    the products with the 2-D operands in order (1-D ones are biases). When
    it splits, row block s runs fn(x[s], *operands, out=out[s]), writing its
    rows of one output with the last weight's column count and the
    operands' result type; a call that does not split is the plain
    fn(x, *operands). Only a 2-D x of two _BLOCK_ROWS blocks or more (128
    rows) whose weights are 2-D with a multiple of 8 columns splits, and
    only once rows times the weights' entries reach _SPLIT_MACS and BLAS
    runs one thread (see the module docstring)."""
    rows = len(x)
    if rows < 2 * _BLOCK_ROWS:  # most calls: nothing more to check
        return fn(x, *operands)
    weights = [w for w in operands if w.ndim > 1]
    blocks = [slice(0, rows)]
    if x.ndim == 2 and all(w.ndim == 2 and w.shape[1] % 8 == 0 for w in weights):
        blocks = _split(rows, _BLOCK_ROWS, rows * sum(w.size for w in weights))
    if len(blocks) < 2:
        return fn(x, *operands)
    out = np.empty((rows, weights[-1].shape[1]), np.result_type(x, *operands))
    _in_threads(lambda s: fn(x[s], *operands, out=out[s]), blocks)
    return out


def matmul_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul(a, b) for 2-D operands, as column blocks of b, each written
    into its columns of one output; blocks have at least _BLOCK_COLS columns
    and _BLOCK_MACS MACs (see the module docstring). A call that does not
    split is the plain matmul(a, b)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        return matmul(a, b)
    (m, k), n = a.shape, b.shape[1]
    # the fewest columns, a multiple of 8, that hold _BLOCK_MACS
    width = max(_BLOCK_COLS, -(-_BLOCK_MACS // (8 * max(m * k, 1))) * 8)
    cols = _split(n, width, m * k * n)
    if len(cols) < 2:
        return matmul(a, b)
    out = np.empty((m, n), np.result_type(a, b))
    _in_threads(lambda s: matmul(a, b[:, s], out=out[:, s]), cols)
    return out


# ---------------------------------------------------------------------------
# Core ops

@_finite_op
def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product (..., m, k) @ (..., k, n); leading batch axes broadcast.
    out, if given, is written and returned, a view as well as an array."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2-D, got {a.shape} @ {b.shape}")
    try:
        out = a @ b if out is None else np.matmul(a, b, out=out)
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


def _score(q, k, v, ctx, scale, causal, a, b, keys, hs):
    """One (tile, head group) block of attend: queries [a, b) of heads hs over keys [0, keys)."""
    # Logits scaled, masked and softmaxed in place: no second logits-sized array.
    # Checked even inside checks_at_boundaries: softmax maps a -inf logit to an exact 0.
    logits = check_finite("attention logits", matmul(q[..., hs, a:b, :], k[..., hs, :keys, :].swapaxes(-1, -2)))
    logits *= scale
    if causal:
        logits[..., a:] += _TILE_MASK[: b - a, : b - a]
    ctx[..., hs, a:b, :] = matmul(softmax_lastdim(logits, out=logits), v[..., hs, :keys, :])


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, causal: bool) -> np.ndarray:
    """Scaled dot-product attention of split-head queries (..., heads, n, dk)
    over keys and values (..., heads, m, dk), batch axes broadcasting; the
    (..., heads, n, dk) context is laid out so merge_heads of it is a view.

    Causal calls (n == m) run 128-query tiles: tile [a, b) scores keys [0, b)
    only, and only its diagonal block takes the -inf mask. Non-causal calls
    run all queries as one tile, as tiling them saves no keys. A tile scores
    its heads in groups whose logits fit _BLOCK_BYTES (one head at least),
    so they stay in cache through softmax and the value product. numpy's
    batched matmul runs one BLAS call per head on the same operands and the
    rest is elementwise or per row, so any grouping gives the same bits.
    The (tile, head group) blocks are independent, each writing its own
    slice of the context, so they run on the pool when the call is _pooled
    at n * m query-key pairs per head; other calls run them inline.
    """
    heads, n, dk = q.shape[-3:]
    batch = q.shape[:-3]
    if k.shape[:-3] != batch or v.shape[:-3] != batch:
        try:
            batch = np.broadcast_shapes(batch, k.shape[:-3], v.shape[:-3])
        except ValueError:
            raise ShapeError(f"attention batch axes do not broadcast: {q.shape} / {k.shape} / {v.shape}") from None
    ctx = np.empty(batch + (n, heads, v.shape[-1]), np.result_type(q, k, v)).swapaxes(-3, -2)
    scale = 1.0 / math.sqrt(dk)
    # n * m query-key pairs per head at most; causal tiles score fewer
    macs = math.prod(batch) * heads * n * k.shape[-2] * (dk + v.shape[-1])
    pooled = _pooled(macs)
    blocks = []
    for a in range(0, n, _QUERY_TILE if causal else max(n, 1)):
        b = min(a + _QUERY_TILE, n) if causal else n
        keys = b if causal else k.shape[-2]
        group = max(1, _BLOCK_BYTES // ((b - a) * keys * q.itemsize))
        for g in range(0, heads, group):
            if not pooled:
                _score(q, k, v, ctx, scale, causal, a, b, keys, slice(g, g + group))
            else:
                blocks.append((a, b, keys, slice(g, g + group)))
    if blocks:
        _in_threads(lambda block: _score(q, k, v, ctx, scale, causal, *block), blocks)
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


def parse_number(raw: str, kind: type = int):
    """kind(raw), int or float, if raw is spelled as str() writes it: ASCII digits
    after an optional "-", and for a float a fraction, "e-"/"e+" and an exponent,
    inf or nan; else ValueError. int() and float() also take "+", "_" separators,
    surrounding whitespace and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+" + (r"(\.[0-9]+)?(e[-+][0-9]+)?|-?inf|nan" if kind is float else ""), raw):
        raise ValueError(f"invalid {kind.__name__} value: {raw!r}")
    return kind(raw)


def _bin_path(manifest_path: Path) -> Path:
    return manifest_path.with_suffix(".bin")


def save_tensors(manifest_path: str | Path, named: Mapping[str, np.ndarray]) -> None:
    """Write a tensor manifest and its companion binary file."""
    manifest_path = Path(manifest_path)
    lines = []
    blobs = []
    for name, arr in named.items():
        arr = np.asarray(arr)
        if not name or any(ch.isspace() for ch in name):  # the manifest splits lines, then fields at spaces
            raise ConfigError(f"tensor name must be non-empty and free of whitespace: {name!r}")
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
    lines = read_text(manifest_path).splitlines()  # before the binary, so a missing manifest is named
    raw = _bin_path(manifest_path).read_bytes()
    out: dict[str, np.ndarray] = {}
    offset = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            name, shape_field, dtype_field = line.split(" ")
            if not (shape_field.startswith("shape=") and dtype_field.startswith("dtype=")):
                raise ValueError("fields must read shape=... dtype=...")
            dims = shape_field.removeprefix("shape=")
            dims = dims.split("x") if dims else []  # "" is a 0-d tensor
            shape = tuple(parse_number(d) for d in dims)
            if min(shape, default=0) < 0:
                raise ValueError(f"dimensions must be non-negative: {dims}")
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
