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
  term is one (C, L*token_exp) product shared by all text tokens; after GELU
  only column 0 of token_w2 is applied, so channel mixing runs on T rows
  instead of T * L.
* conv: position 0 sees [t_i; v] up to position min(K // 2, V) only, so the
  depthwise conv runs on that cut signal, accumulating the same taps in the
  same order (bit-identical); SiLU and the pointwise map then act on T rows.

All three run batched over text tokens; naive per-token loop oracles that
mix the full sequence are kept alongside for verification. Analytic
backward passes support the shared finite-difference gradient check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norm import central_difference, relative_gradient_error
from .tensors import (
    ConfigError,
    ShapeError,
    depthwise_conv1d,
    gelu,
    gelu_grad,
    matmul,
    silu,
    softmax_lastdim,
    swish_grad,
)

COND_KINDS = ("mlp", "conv", "attn")


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
    def seq_len(self) -> int:
        return self.token_w1.shape[0]

    @property
    def vis_tokens(self) -> int:
        return self.seq_len - 1

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
        if self.depthwise.shape[1] % 2 == 0:
            raise ConfigError(f"depthwise kernel width must be odd, got {self.depthwise.shape[1]}")

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

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    heads: int

    def __post_init__(self) -> None:
        c = self.w_q.shape[0]
        if c % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide channels {c}")

    @classmethod
    def init(
        cls, rng: np.random.Generator, channels: int, heads: int | None = None, std: float = 0.02
    ) -> "AttnCondParams":
        heads = default_heads(channels) if heads is None else heads
        return cls(
            w_q=rng.normal(scale=std, size=(channels, channels)),
            w_k=rng.normal(scale=std, size=(channels, channels)),
            w_v=rng.normal(scale=std, size=(channels, channels)),
            w_o=rng.normal(scale=std, size=(channels, channels)),
            heads=heads,
        )


def _check_tokens(t: np.ndarray, v: np.ndarray) -> None:
    if t.ndim != 2 or v.ndim != 2 or t.shape[1] != v.shape[1]:
        raise ShapeError(f"incompatible token shapes {t.shape} / {v.shape}")


# ---------------------------------------------------------------------------
# MLP conditioner

def cond_mlp(t: np.ndarray, visual: VisualContext, p: MlpCondParams) -> np.ndarray:
    """Slot 0 of the mixer over [t_i; v] for every text token; equals the
    per-token loop."""
    if visual.count != p.vis_tokens:
        raise ConfigError(
            f"params built for {p.vis_tokens} visual tokens, got {visual.count}"
        )
    out, _ = _cond_mlp_forward(t, visual.v, p)
    return out


def _cond_mlp_forward(t: np.ndarray, v: np.ndarray, p: MlpCondParams):
    _check_tokens(t, v)
    tokens, channels = t.shape
    # token mixing of row (i, c), output position 0 only:
    # z1 = t[i, c] * token_w1[0] + (v.T @ token_w1[1:])[c] + token_b1, visual term shared by all i
    visual_term = matmul(v.T, p.token_w1[1:]) + p.token_b1
    z1 = matmul(t.reshape(-1, 1), p.token_w1[:1]).reshape(tokens, channels, -1)
    z1 += visual_term
    a1 = gelu(z1).reshape(tokens * channels, -1)
    mixed = (matmul(a1, p.token_w2[:, :1]) + p.token_b2[0]).reshape(tokens, channels)
    # channel mixing of the T slot-0 rows
    z2 = matmul(mixed, p.channel_w1) + p.channel_b1
    a2 = gelu(z2)
    out = matmul(a2, p.channel_w2) + p.channel_b2
    return out, (z1, a1, mixed, z2, a2)


def cond_mlp_pertoken(t: np.ndarray, visual: VisualContext, p: MlpCondParams) -> np.ndarray:
    """Loop oracle: one text token at a time, plain 2-D algebra."""
    outs = []
    for i in range(t.shape[0]):
        seq = np.concatenate([t[i:i + 1], visual.v], axis=0)  # (L, C)
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
    _, (z1, a1, mixed, z2, a2) = _cond_mlp_forward(t, v, p)
    grads: dict[str, np.ndarray] = {}
    grads["channel_w2"] = a2.T @ g_out
    grads["channel_b2"] = g_out.sum(axis=0)
    g_z2 = (g_out @ p.channel_w2.T) * gelu_grad(z2)
    grads["channel_w1"] = mixed.T @ g_z2
    grads["channel_b1"] = g_z2.sum(axis=0)
    g_mixed = (g_z2 @ p.channel_w1.T).reshape(-1)
    grads["token_w2"] = np.zeros_like(p.token_w2)
    grads["token_w2"][:, 0] = a1.T @ g_mixed
    grads["token_b2"] = np.zeros_like(p.token_b2)
    grads["token_b2"][0] = g_mixed.sum()
    g_z1 = np.multiply.outer(g_mixed, p.token_w2[:, 0]).reshape(z1.shape) * gelu_grad(z1)
    g_visual_term = g_z1.sum(axis=0)  # (C, L*token_exp)
    g_text_row = t.reshape(1, -1) @ g_z1.reshape(tokens * channels, -1)
    grads["token_w1"] = np.vstack([g_text_row, v @ g_visual_term])
    grads["token_b1"] = g_visual_term.sum(axis=0)
    grads["t"] = g_z1 @ p.token_w1[0]
    grads["v"] = p.token_w1[1:] @ g_visual_term.T
    return grads


# ---------------------------------------------------------------------------
# Conv conditioner

def cond_conv(t: np.ndarray, visual: VisualContext, p: ConvCondParams) -> np.ndarray:
    """Depthwise conv over [t_i; v] positions, SiLU, pointwise map, read slot 0."""
    out, _ = _cond_conv_forward(t, visual.v, p)
    return out


def _cond_conv_forward(t: np.ndarray, v: np.ndarray, p: ConvCondParams):
    _check_tokens(t, v)
    tokens, channels = t.shape
    reach = min(p.depthwise.shape[1] // 2, v.shape[0])
    # slot 0 sees positions 0..reach of [t_i; v] only; the conv of that cut
    # signal accumulates the same taps in the same order at position 0
    signals = np.empty((tokens, channels, reach + 1), dtype=t.dtype)
    signals[:, :, 0] = t
    signals[:, :, 1:] = v[:reach].T
    kernels = np.tile(p.depthwise, (tokens, 1))
    z = depthwise_conv1d(signals.reshape(tokens * channels, -1), kernels)[:, 0].reshape(tokens, channels)
    a = silu(z)
    return matmul(a, p.pointwise), (z, a)


def cond_conv_pertoken(t: np.ndarray, visual: VisualContext, p: ConvCondParams) -> np.ndarray:
    """Loop oracle using the naive sliding window per token and channel."""
    kernel = p.depthwise
    k = kernel.shape[1]
    pad = k // 2
    outs = []
    for i in range(t.shape[0]):
        seq = np.concatenate([t[i:i + 1], visual.v], axis=0)  # (L, C)
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
        y = silu(conv) @ p.pointwise
        outs.append(y[0])
    return np.stack(outs)


def cond_conv_backward(
    t: np.ndarray, v: np.ndarray, p: ConvCondParams, g_out: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum(g_out * cond_conv); only the depthwise taps
    pad..pad+min(pad, V) reach slot 0, the others get zero gradient."""
    pad = p.depthwise.shape[1] // 2
    reach = min(pad, v.shape[0])
    _, (z, a) = _cond_conv_forward(t, v, p)
    grads: dict[str, np.ndarray] = {"pointwise": a.T @ g_out}
    g_z = (g_out @ p.pointwise.T) * swish_grad(z)
    g_z_sum = g_z.sum(axis=0)
    grads["depthwise"] = np.zeros_like(p.depthwise)
    grads["depthwise"][:, pad] = np.sum(g_z * t, axis=0)
    grads["depthwise"][:, pad + 1:pad + 1 + reach] = (v[:reach] * g_z_sum).T
    grads["t"] = g_z * p.depthwise[:, pad]
    grads["v"] = np.zeros_like(v)
    grads["v"][:reach] = g_z_sum * p.depthwise[:, pad + 1:pad + 1 + reach].T
    return grads


# ---------------------------------------------------------------------------
# Attention conditioner

def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, channels = x.shape
    return x.reshape(n, heads, channels // heads).transpose(1, 0, 2)


def cond_attn(t: np.ndarray, visual: VisualContext, p: AttnCondParams) -> np.ndarray:
    """Multi-head cross-attention, text queries over all visual tokens."""
    out, _ = _cond_attn_forward(t, visual.v, p)
    return out


def _cond_attn_forward(t: np.ndarray, v: np.ndarray, p: AttnCondParams):
    tokens, channels = t.shape
    heads = p.heads
    dk = channels // heads
    q = _split_heads(matmul(t, p.w_q), heads)
    k = _split_heads(matmul(v, p.w_k), heads)
    val = _split_heads(matmul(v, p.w_v), heads)
    scale = float(1.0 / np.sqrt(dk))
    ctx = np.empty((heads, tokens, dk), dtype=t.dtype)
    weights = []
    for h in range(heads):
        logits = matmul(q[h], k[h].T) * scale
        attn = softmax_lastdim(logits)
        ctx[h] = matmul(attn, val[h])
        weights.append(attn)
    merged = ctx.transpose(1, 0, 2).reshape(tokens, channels)
    out = matmul(merged, p.w_o)
    cache = (q, k, val, weights, merged)
    return out, cache


def attn_oracle(t: np.ndarray, visual: VisualContext, p: AttnCondParams) -> np.ndarray:
    """Nested-loop reference: per query, per head, per key, no batching."""
    v = visual.v
    tokens, channels = t.shape
    heads = p.heads
    dk = channels // heads
    q_all = t @ p.w_q
    k_all = v @ p.w_k
    v_all = v @ p.w_v
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
    return merged @ p.w_o


def cond_attn_backward(
    t: np.ndarray, v: np.ndarray, p: AttnCondParams, g_out: np.ndarray
) -> dict[str, np.ndarray]:
    tokens, channels = t.shape
    heads = p.heads
    dk = channels // heads
    scale = float(1.0 / np.sqrt(dk))
    _, (q, k, val, weights, merged) = _cond_attn_forward(t, v, p)
    grads: dict[str, np.ndarray] = {"w_o": merged.T @ g_out}
    g_merged = g_out @ p.w_o.T
    g_ctx = g_merged.reshape(tokens, heads, dk).transpose(1, 0, 2)
    g_q = np.empty_like(q)
    g_k = np.empty_like(k)
    g_val = np.empty_like(val)
    for h in range(heads):
        attn = weights[h]
        g_attn = g_ctx[h] @ val[h].T
        g_val[h] = attn.T @ g_ctx[h]
        g_logits = attn * (g_attn - np.sum(g_attn * attn, axis=1, keepdims=True))
        g_q[h] = (g_logits @ k[h]) * scale
        g_k[h] = (g_logits.T @ q[h]) * scale
    g_q_flat = g_q.transpose(1, 0, 2).reshape(tokens, channels)
    g_k_flat = g_k.transpose(1, 0, 2).reshape(v.shape[0], channels)
    g_v_flat = g_val.transpose(1, 0, 2).reshape(v.shape[0], channels)
    grads["w_q"] = t.T @ g_q_flat
    grads["w_k"] = v.T @ g_k_flat
    grads["w_v"] = v.T @ g_v_flat
    grads["t"] = g_q_flat @ p.w_q.T
    grads["v"] = g_k_flat @ p.w_k.T + g_v_flat @ p.w_v.T
    return grads


# ---------------------------------------------------------------------------
# Dispatch and gradient checks

def apply_conditioner(kind: str, t: np.ndarray, visual: VisualContext, params) -> np.ndarray:
    if kind == "mlp":
        return cond_mlp(t, visual, params)
    if kind == "conv":
        return cond_conv(t, visual, params)
    if kind == "attn":
        return cond_attn(t, visual, params)
    raise ConfigError(f"unknown conditioner kind {kind!r}")


_PARAM_FIELDS = {
    "mlp": (
        "token_w1", "token_b1", "token_w2", "token_b2",
        "channel_w1", "channel_b1", "channel_w2", "channel_b2",
    ),
    "conv": ("depthwise", "pointwise"),
    "attn": ("w_q", "w_k", "w_v", "w_o"),
}

_BACKWARDS = {
    "mlp": cond_mlp_backward,
    "conv": cond_conv_backward,
    "attn": cond_attn_backward,
}


def gradcheck_conditioner(
    kind: str,
    t: np.ndarray,
    visual: VisualContext,
    params,
    eps_fd: float = 1e-5,
) -> float:
    """Max relative error of the conditioner's analytic gradients.

    Checks t, v and every parameter field against central differences of the
    scalar loss sum(output).
    """
    if kind not in _PARAM_FIELDS:
        raise ConfigError(f"unknown conditioner kind {kind!r}")
    if not 1e-7 <= eps_fd <= 1e-4:
        raise ConfigError(f"eps_fd {eps_fd} outside [1e-7, 1e-4]")

    def loss() -> float:
        return float(np.sum(apply_conditioner(kind, t, visual, params)))

    g_out = np.ones_like(t)
    analytic = _BACKWARDS[kind](t, visual.v, params, g_out)
    worst = relative_gradient_error(
        analytic["t"], central_difference(loss, t, eps_fd)
    )
    worst = max(
        worst,
        relative_gradient_error(analytic["v"], central_difference(loss, visual.v, eps_fd)),
    )
    for field in _PARAM_FIELDS[kind]:
        arr = getattr(params, field)
        numeric = central_difference(loss, arr, eps_fd)
        worst = max(worst, relative_gradient_error(analytic[field], numeric))
    return worst
