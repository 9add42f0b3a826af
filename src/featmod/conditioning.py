"""Conditioning modules: map (text tokens, visual tokens) to per-token vectors.

Each conditioner processes every text token independently: the token is
prepended to the visual sequence, the combined sequence [t_i; v] of length
L = V + 1 is mixed, and the result is read back at position 0. Three mixers
are provided:

* mlp  - a token-mixing MLP over positions followed by a channel-mixing MLP,
         GELU in between, no residual paths
* conv - depthwise conv over positions, SiLU, then a pointwise (1x1) linear
         map over channels
* attn - multi-head cross-attention, text token as the single query, visual
         tokens as keys and values

The mlp and conv mixers compute only what position 0 depends on:

* mlp: the token-mix pre-activation of row (i, c) is
  t[i, c] * token_w1[0] + (v.T @ token_w1[1:])[c] + token_b1. The visual
  term is one (C, L*token_exp) product shared by all text tokens, run
  through tensors.matmul_cols, which may split its columns on the tensors
  thread pool; after GELU only column 0 of token_w2 is applied, so channel
  mixing runs on T rows instead of T * L. The T * C token-mix rows run in tiles of at most
  tensors._BLOCK_BYTES of z1, so the (T, C, L*token_exp) pre-activation is
  never built whole. Two or more tiles run on the tensors thread pool,
  however few MACs they hold, each thread holding one tile at a time; the
  tiles do not depend on the thread count.
* conv: position 0 reads the centre tap on t_i and the min(K // 2, V) taps
  right of it on v, whose products are shared by all text tokens; only these
  run (bit-identical), and SiLU and the pointwise map then act on T rows.

All three run batched over text tokens. Their forwards take arrays (the
model unwraps its VisualContext input) and broadcast over leading batch axes
on any operand: t (..., T, C), v (..., V, C) or any parameter field with a
leading axis; the finite-difference gradient check uses this to evaluate
every perturbed copy of an array in one call. Naive per-token loop oracles
are kept alongside for verification. The analytic backward passes
(unbatched) recompute only the forward stages whose values they use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensors
from .norm import max_gradient_error
from .tensors import (
    ConfigError,
    ShapeError,
    attend,
    depthwise_conv1d,
    gelu,
    gelu_grad,
    matmul,
    matmul_cols,
    merge_heads,
    rowwise,
    softmax_lastdim,
    split_heads,
    swish,
    swish_grad,
)

def default_heads(channels: int) -> int:
    return 8 if channels >= 64 else 1


@dataclass
class VisualContext:
    """Visual token matrix (V, C) plus a provenance tag (image/tiles/frames)."""

    v: np.ndarray
    source_tag: str = "image"

    def __post_init__(self) -> None:
        if self.v.ndim != 2 or self.v.shape[0] < 1:
            raise ShapeError(f"visual tokens must be (V>=1, C), got {self.v.shape}")

    @property
    def count(self) -> int:
        return self.v.shape[0]


@dataclass
class MlpCondParams:
    """Token-mixing and channel-mixing MLPs sized for a fixed visual count.

    The token mixer operates on sequences of length L = vis_tokens + 1 and is
    only valid for that L.
    """

    token_w1: np.ndarray    # (L, L*token_exp)
    token_b1: np.ndarray
    token_w2: np.ndarray    # (L*token_exp, L)
    token_b2: np.ndarray
    channel_w1: np.ndarray  # (C, C*channel_exp)
    channel_b1: np.ndarray
    channel_w2: np.ndarray  # (C*channel_exp, C)
    channel_b2: np.ndarray

    @property
    def vis_tokens(self) -> int:
        return self.token_w1.shape[-2] - 1

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        channels: int,
        vis_tokens: int,
        token_exp: int = 4,
        channel_exp: int = 4,
        std: float = 0.02,
    ) -> "MlpCondParams":
        seq = vis_tokens + 1
        return cls(
            token_w1=rng.normal(scale=std, size=(seq, seq * token_exp)),
            token_b1=np.zeros(seq * token_exp),
            token_w2=rng.normal(scale=std, size=(seq * token_exp, seq)),
            token_b2=np.zeros(seq),
            channel_w1=rng.normal(scale=std, size=(channels, channels * channel_exp)),
            channel_b1=np.zeros(channels * channel_exp),
            channel_w2=rng.normal(scale=std, size=(channels * channel_exp, channels)),
            channel_b2=np.zeros(channels),
        )


@dataclass
class ConvCondParams:
    """Depthwise kernel (C, K) with odd K and a bias-free pointwise map (C, C)."""

    depthwise: np.ndarray
    pointwise: np.ndarray

    def __post_init__(self) -> None:
        if self.depthwise.shape[-1] % 2 == 0:
            raise ConfigError(f"depthwise kernel width must be odd, got {self.depthwise.shape[-1]}")

    @classmethod
    def init(
        cls, rng: np.random.Generator, channels: int, kernel: int = 3, std: float = 0.02
    ) -> "ConvCondParams":
        return cls(
            depthwise=rng.normal(scale=std, size=(channels, kernel)),
            pointwise=rng.normal(scale=std, size=(channels, channels)),
        )


@dataclass
class AttnCondParams:
    """Bias-free projection matrices (C, C) and the head count dividing C."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int

    def __post_init__(self) -> None:
        c = self.wq.shape[-1]
        if c % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide channels {c}")

    @classmethod
    def init(
        cls, rng: np.random.Generator, channels: int, heads: int | None = None, std: float = 0.02
    ) -> "AttnCondParams":
        heads = default_heads(channels) if heads is None else heads
        return cls(
            wq=rng.normal(scale=std, size=(channels, channels)),
            wk=rng.normal(scale=std, size=(channels, channels)),
            wv=rng.normal(scale=std, size=(channels, channels)),
            wo=rng.normal(scale=std, size=(channels, channels)),
            heads=heads,
        )


def param_arrays(params) -> list[tuple[str, np.ndarray]]:
    """(name, array) of every array field of a conditioner's params, in
    declaration order; the attn head count is not an array and is left out."""
    return [(f.name, getattr(params, f.name)) for f in fields(params) if f.name != "heads"]


def _check_tokens(t: np.ndarray, v: np.ndarray) -> None:
    if t.ndim < 2 or v.ndim < 2 or v.shape[-2] < 1 or t.shape[-1] != v.shape[-1]:
        raise ShapeError(f"incompatible token shapes {t.shape} / {v.shape}")
    if t.shape[:-2] != v.shape[:-2]:  # equal batch axes, as on every model path, cost one compare
        try:
            np.broadcast_shapes(t.shape[:-2], v.shape[:-2])
        except ValueError:
            raise ShapeError(f"token batch axes do not broadcast: {t.shape} / {v.shape}") from None


# ---------------------------------------------------------------------------
# MLP conditioner

def _add_into(z: np.ndarray, other: np.ndarray) -> np.ndarray:
    """z + other, written into the fresh array z unless only other carries
    a batch axis (a batched operand in gradcheck's stacks)."""
    try:
        z += other
    except ValueError:
        return z + other
    return z


def _visual_term(v: np.ndarray, p: MlpCondParams) -> np.ndarray:
    """(..., C, L*token_exp) part of the token-mix pre-activation that all
    text tokens share: v.T @ token_w1[1:] + token_b1, with token_b1 added
    in place. Its column count need not be a multiple of 8, so the product
    runs through tensors.matmul_cols, not rowwise, whose row blocks would
    not keep its bits."""
    return _add_into(matmul_cols(v.swapaxes(-1, -2), p.token_w1[..., 1:, :]), p.token_b1[..., None, :])


def _token_mix(
    t: np.ndarray, visual_term: np.ndarray, p: MlpCondParams, tokens: slice, channels: slice
):
    """Pre-activation z1, (..., n_tokens, n_channels, L*token_exp), of the
    token-mix rows (i, c) with i in `tokens` and c in `channels`:
    z1 = t[i, c] * token_w1[0] + visual_term[c]. z1 is a fresh array."""
    rows = t[..., tokens, channels]
    n_tokens, n_channels = rows.shape[-2:]
    z1 = matmul(rows.reshape(*rows.shape[:-2], n_tokens * n_channels, 1), p.token_w1[..., :1, :])
    z1 = z1.reshape(*z1.shape[:-2], n_tokens, n_channels, -1)
    return _add_into(z1, visual_term[..., None, channels, :])


def _mix_tiles(tokens: int, channels: int, row_bytes: int) -> list[tuple[slice, slice]]:
    """(token, channel) blocks of the T*C token-mix rows in row order, each
    holding at most tensors._BLOCK_BYTES of z1 (8 rows at least): whole tokens
    when one token's C rows fit, else channel blocks of one token in
    multiples of 8 rows. OpenBLAS's matrix-vector product handles rows in
    groups of 4, so row blocks that are multiples of 4 give the same bits as
    one untiled product; other counts differ in the last bit."""
    per_tile = tensors._BLOCK_BYTES // row_bytes
    if tokens * channels <= per_tile:
        return [(slice(None), slice(None))]
    if channels <= per_tile:
        step = per_tile // channels
        return [(slice(i, i + step), slice(None)) for i in range(0, tokens, step)]
    step = max(8, per_tile // 8 * 8)
    return [(slice(i, i + 1), slice(c, c + step)) for i in range(tokens) for c in range(0, channels, step)]


def _mix_tile(t, visual_term, p: MlpCondParams, w2: np.ndarray, tile: tuple[slice, slice]) -> np.ndarray:
    """Token-mix output (..., rows, 1) of one tile."""
    z1 = _token_mix(t, visual_term, p, *tile)
    a1 = gelu(z1, out=z1)
    return matmul(a1.reshape(*a1.shape[:-3], -1, a1.shape[-1]), w2)


def cond_mlp(t: np.ndarray, v: np.ndarray, p: MlpCondParams) -> np.ndarray:
    """Slot 0 of the mixer over [t_i; v] for every text token; equals the
    per-token loop."""
    _check_tokens(t, v)
    if v.shape[-2] != p.vis_tokens:
        raise ConfigError(f"params built for {p.vis_tokens} visual tokens, got {v.shape[-2]}")
    tokens, channels = t.shape[-2:]
    visual_term = _visual_term(v, p)
    # token mixing, output position 0 only, tile by tile over the T*C rows
    row_bytes = p.token_w1.shape[-1] * max(t.itemsize, p.token_w1.itemsize)
    w2 = np.ascontiguousarray(p.token_w2[..., :, :1])
    tiles = _mix_tiles(tokens, channels, row_bytes)
    # Two or more tiles go to the pool whatever their MACs, which can stay
    # far under tensors._SPLIT_MACS: GELU, not the products, takes most of
    # a tile's time. At C=256, V=6, T=128 the 15 tiles hold 1.8e6 MACs and
    # take 12.2 ms on one Xeon core, 7.0 ms of it in GELU.
    blocks = tensors._in_threads(functools.partial(_mix_tile, t, visual_term, p, w2), tiles)
    mixed = np.concatenate(blocks, axis=-2) + p.token_b2[..., None, :1]
    mixed = mixed.reshape(*mixed.shape[:-2], tokens, channels)
    # channel mixing of the T slot-0 rows
    z2 = matmul(mixed, p.channel_w1) + p.channel_b1[..., None, :]
    return matmul(gelu(z2), p.channel_w2) + p.channel_b2[..., None, :]


def cond_mlp_pertoken(t: np.ndarray, v: np.ndarray, p: MlpCondParams) -> np.ndarray:
    """Loop oracle: one text token at a time, plain 2-D algebra."""
    outs = []
    for i in range(t.shape[0]):
        seq = np.concatenate([t[i:i + 1], v], axis=0)  # (L, C)
        x = seq.T  # (C, L)
        x = gelu(x @ p.token_w1 + p.token_b1) @ p.token_w2 + p.token_b2
        y = x.T  # (L, C)
        y = gelu(y @ p.channel_w1 + p.channel_b1) @ p.channel_w2 + p.channel_b2
        outs.append(y[0])
    return np.stack(outs)


def cond_mlp_backward(
    t: np.ndarray, v: np.ndarray, p: MlpCondParams, g_out: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum(g_out * cond_mlp) w.r.t. t, v and every parameter.

    Only column 0 of token_w2 and entry 0 of token_b2 reach the output; the
    other entries get zero gradient.
    """
    tokens, channels = t.shape
    z1 = _token_mix(t, _visual_term(v, p), p, slice(None), slice(None))
    a1 = gelu(z1).reshape(tokens * channels, -1)
    mixed = (a1 @ p.token_w2[:, :1] + p.token_b2[None, :1]).reshape(tokens, channels)
    z2 = mixed @ p.channel_w1 + p.channel_b1
    a2 = gelu(z2)
    grads: dict[str, np.ndarray] = {}
    grads["channel_w2"] = a2.T @ g_out
    grads["channel_b2"] = np.add.reduce(g_out, axis=0)
    g_z2 = (g_out @ p.channel_w2.T) * gelu_grad(z2)
    grads["channel_w1"] = mixed.T @ g_z2
    grads["channel_b1"] = np.add.reduce(g_z2, axis=0)
    g_mixed = (g_z2 @ p.channel_w1.T).reshape(-1)
    grads["token_w2"] = np.zeros_like(p.token_w2)
    grads["token_w2"][:, 0] = a1.T @ g_mixed
    grads["token_b2"] = np.zeros_like(p.token_b2)
    grads["token_b2"][0] = np.add.reduce(g_mixed, axis=None)
    g_z1 = np.multiply.outer(g_mixed, p.token_w2[:, 0]).reshape(z1.shape) * gelu_grad(z1)
    g_visual_term = np.add.reduce(g_z1, axis=0)  # (C, L*token_exp)
    g_text_row = t.reshape(1, -1) @ g_z1.reshape(tokens * channels, -1)
    grads["token_w1"] = np.concatenate([g_text_row, v @ g_visual_term])
    grads["token_b1"] = np.add.reduce(g_visual_term, axis=0)
    grads["t"] = g_z1 @ p.token_w1[0]
    grads["v"] = p.token_w1[1:] @ g_visual_term.T
    return grads


# ---------------------------------------------------------------------------
# Conv conditioner

def cond_conv(t: np.ndarray, v: np.ndarray, p: ConvCondParams) -> np.ndarray:
    """Depthwise conv over [t_i; v] positions, SiLU, pointwise map, read slot 0."""
    _check_tokens(t, v)
    return matmul(swish(_conv_slot0(t, v, p)), p.pointwise)


def _conv_slot0(t: np.ndarray, v: np.ndarray, p: ConvCondParams) -> np.ndarray:
    """(..., T, C) depthwise conv output at slot 0 of every [t_i; v]: the centre tap on
    t_i, then tap pad+1+j on v[j] for j < reach, once for all t_i. Like a full conv of
    [t_i; v] held in t's dtype, each product runs in result_type(t, taps) and the sum
    in t's dtype, in tap order: the same bits, up to the sign of an exact zero."""
    pad = p.depthwise.shape[-1] // 2
    reach = min(pad, v.shape[-2])
    dtype = np.result_type(t, p.depthwise)
    centre = depthwise_conv1d(t.astype(dtype, copy=False)[..., None], p.depthwise[..., None, :, pad:pad + 1])
    visual = v[..., :reach, :, None].astype(t.dtype, copy=False).astype(dtype, copy=False)
    products = depthwise_conv1d(visual, p.depthwise[..., pad + 1:pad + 1 + reach, None].swapaxes(-3, -2))
    z = centre[..., 0].astype(t.dtype, copy=False)
    for j in range(reach):
        z = (z + products[..., None, j, :, 0]).astype(t.dtype, copy=False)
    return z if reach else z + np.zeros(v.shape[:-2] + (1, 1), t.dtype)  # K = 1 still broadcasts over v's batch


def cond_conv_pertoken(t: np.ndarray, v: np.ndarray, p: ConvCondParams) -> np.ndarray:
    """Loop oracle using the naive sliding window per token and channel."""
    kernel = p.depthwise
    k = kernel.shape[1]
    pad = k // 2
    outs = []
    for i in range(t.shape[0]):
        seq = np.concatenate([t[i:i + 1], v], axis=0)  # (L, C)
        length, channels = seq.shape
        conv = np.zeros_like(seq)
        for c in range(channels):
            for pos in range(length):
                acc = 0.0
                for j in range(k):
                    src = pos + j - pad
                    if 0 <= src < length:
                        acc += seq[src, c] * kernel[c, j]
                conv[pos, c] = acc
        y = swish(conv) @ p.pointwise
        outs.append(y[0])
    return np.stack(outs)


def cond_conv_backward(
    t: np.ndarray, v: np.ndarray, p: ConvCondParams, g_out: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum(g_out * cond_conv); only the depthwise taps
    pad..pad+min(pad, V) reach slot 0, the others get zero gradient."""
    pad = p.depthwise.shape[1] // 2
    reach = min(pad, v.shape[0])
    z = _conv_slot0(t, v, p)
    grads: dict[str, np.ndarray] = {"pointwise": swish(z).T @ g_out}
    g_z = (g_out @ p.pointwise.T) * swish_grad(z)
    g_z_sum = np.add.reduce(g_z, axis=0)
    grads["depthwise"] = np.zeros_like(p.depthwise)
    grads["depthwise"][:, pad] = np.add.reduce(g_z * t, axis=0)
    grads["depthwise"][:, pad + 1:pad + 1 + reach] = (v[:reach] * g_z_sum).T
    grads["t"] = g_z * p.depthwise[:, pad]
    grads["v"] = np.zeros_like(v)
    grads["v"][:reach] = g_z_sum * p.depthwise[:, pad + 1:pad + 1 + reach].T
    return grads


# ---------------------------------------------------------------------------
# Attention conditioner

def cond_attn(t: np.ndarray, v: np.ndarray, p: AttnCondParams) -> np.ndarray:
    """Multi-head cross-attention, text queries over all visual tokens."""
    _check_tokens(t, v)
    return rowwise(matmul, merge_heads(attend(*_attn_heads(t, v, p), causal=False)), p.wo)


def _attn_heads(t: np.ndarray, v: np.ndarray, p: AttnCondParams):
    """Split-head query, key and value projections (q, k, val)."""
    q = split_heads(rowwise(matmul, t, p.wq), p.heads)
    k = split_heads(rowwise(matmul, v, p.wk), p.heads)
    val = split_heads(rowwise(matmul, v, p.wv), p.heads)
    return q, k, val


def attn_oracle(t: np.ndarray, v: np.ndarray, p: AttnCondParams) -> np.ndarray:
    """Nested-loop reference: per query, per head, per key, no batching."""
    tokens, channels = t.shape
    heads = p.heads
    dk = channels // heads
    q_all = t @ p.wq
    k_all = v @ p.wk
    v_all = v @ p.wv
    merged = np.zeros((tokens, channels))
    for i in range(tokens):
        for h in range(heads):
            qh = q_all[i, h * dk:(h + 1) * dk]
            logits = []
            for j in range(v.shape[0]):
                kh = k_all[j, h * dk:(h + 1) * dk]
                logits.append(float(np.dot(qh, kh)) / np.sqrt(dk))
            m = max(logits)
            exps = [np.exp(l - m) for l in logits]
            total = sum(exps)
            ctx = np.zeros(dk)
            for j in range(v.shape[0]):
                ctx += (exps[j] / total) * v_all[j, h * dk:(h + 1) * dk]
            merged[i, h * dk:(h + 1) * dk] = ctx
    return merged @ p.wo


def cond_attn_backward(
    t: np.ndarray, v: np.ndarray, p: AttnCondParams, g_out: np.ndarray
) -> dict[str, np.ndarray]:
    scale = float(1.0 / np.sqrt(t.shape[1] // p.heads))
    q, k, val = _attn_heads(t, v, p)
    weights = softmax_lastdim(q @ k.swapaxes(-1, -2) * scale)
    grads: dict[str, np.ndarray] = {"wo": merge_heads(weights @ val).T @ g_out}
    g_ctx = split_heads(g_out @ p.wo.T, p.heads)
    g_weights = g_ctx @ val.swapaxes(-1, -2)
    g_logits = weights * (g_weights - np.add.reduce(g_weights * weights, axis=-1, keepdims=True))
    g_q = merge_heads(g_logits @ k) * scale
    g_k = merge_heads(g_logits.swapaxes(-1, -2) @ q) * scale
    g_val = merge_heads(weights.swapaxes(-1, -2) @ g_ctx)
    grads["wq"] = t.T @ g_q
    grads["wk"] = v.T @ g_k
    grads["wv"] = v.T @ g_val
    grads["t"] = g_q @ p.wq.T
    grads["v"] = g_k @ p.wk.T + g_val @ p.wv.T
    return grads


# ---------------------------------------------------------------------------
# Dispatch and gradient checks

# The public functions themselves, so a wrapper that rebinds one is also what dispatch calls.
_FORWARDS = {"mlp": cond_mlp, "conv": cond_conv, "attn": cond_attn}
COND_KINDS = tuple(_FORWARDS)

_BACKWARDS = {
    "mlp": cond_mlp_backward,
    "conv": cond_conv_backward,
    "attn": cond_attn_backward,
}


def _forward(kind: str):
    if kind not in _FORWARDS:
        raise ConfigError(f"unknown conditioner kind {kind!r}")
    return _FORWARDS[kind]


def apply_conditioner(kind: str, t: np.ndarray, v: np.ndarray, params) -> np.ndarray:
    return _forward(kind)(t, v, params)


def gradcheck_conditioner(
    kind: str,
    t: np.ndarray,
    visual: VisualContext,
    params,
    eps_fd: float = 1e-5,
) -> float:
    """Max relative error of the conditioner's analytic gradients.

    Checks t, v and every parameter field against central differences of the
    scalar loss sum(output); each array's perturbed copies run as one
    forward batched over a leading axis.
    """
    forward = _forward(kind)
    v = visual.v

    def losses(t, v, params) -> np.ndarray:
        return np.add.reduce(forward(t, v, params), axis=(-2, -1))

    perturbed = {
        "t": (lambda ts: losses(ts, v, params), t),
        "v": (lambda vs: losses(t, vs, params), v),
    }
    for field, arr in param_arrays(params):
        perturbed[field] = (lambda stack, field=field: losses(t, v, replace(params, **{field: stack})), arr)
    return max_gradient_error(_BACKWARDS[kind](t, v, params, np.ones_like(t)), perturbed, eps_fd)
