"""Layer normalization with vision-conditioned affine deltas.

``layer_norm`` is the plain per-row normalization y = alpha * xhat + beta.
``viln_apply`` shifts the affine parameters per token by externally supplied
deltas: y_i = (alpha + d_alpha[i]) * xhat_i + (beta + d_beta[i]), so zero
deltas reproduce ``layer_norm`` bit for bit.

The deltas come from ``project_deltas``: a Swish-gated linear map from a
per-token conditioning vector to four channel-wide chunks (scale and shift
for a pre-attention slot and a pre-FFN slot). The projection is constructed
all-zero so a fresh model leaves the host stack untouched.

Both paths carry hand-derived backward functions; ``gradcheck_viln`` checks
them against central finite differences through ``max_gradient_error``, the
loop the conditioner checks share. ``central_differences`` perturbs
every entry of an array up and down at once: it hands the caller's losses
function the (2N, *arr.shape) stack of perturbed copies and expects 2N losses
back, so the objective (``_viln_pipeline_loss`` here, the conditioner
forwards in ``conditioning``) must broadcast over that leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tensors import ConfigError, NumericError, ShapeError, check_finite, matmul, swish, swish_grad

NormMode = str  # "ln" (mean subtracted) or "rms" (mean kept at zero)


@dataclass
class LNParams:
    """Shared affine parameters; eps is added to the std, not the variance."""

    alpha: np.ndarray  # (C,)
    beta: np.ndarray   # (C,)
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ShapeError("alpha and beta must be 1-D with equal length")

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5) -> "LNParams":
        return cls(np.ones(channels), np.zeros(channels), eps)


@dataclass
class DeltaProjection:
    """Linear map from conditioning vectors to the four delta chunks."""

    w: np.ndarray  # (C_cond, 4C)
    b: np.ndarray  # (4C,)

    def __post_init__(self) -> None:
        if self.w.ndim != 2 or self.b.ndim != 1 or self.w.shape[1] != self.b.shape[0]:
            raise ShapeError(f"inconsistent projection shapes {self.w.shape} / {self.b.shape}")
        if self.w.shape[1] % 4 != 0:
            raise ConfigError(f"projection width {self.w.shape[1]} is not divisible by 4")

    @classmethod
    def zero_init(cls, cond_dim: int, channels: int) -> "DeltaProjection":
        """Canonical constructor: exactly zero weights and bias."""
        return cls(np.zeros((cond_dim, 4 * channels)), np.zeros(4 * channels))

    @property
    def channels(self) -> int:
        return self.w.shape[1] // 4


def _normalize(x: np.ndarray, eps: float, mode: NormMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (xhat, mu, denom) with denom = population std + eps, per row.

    x is (..., T, C); leading batch axes pass through.
    """
    if x.ndim < 2 or x.shape[-1] < 1:
        raise ShapeError(f"expected (..., T, C) input, got {x.shape}")
    if mode == "ln":
        mu = x.mean(axis=-1, keepdims=True)
    elif mode == "rms":
        mu = np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)
    else:
        raise ConfigError(f"unknown norm mode {mode!r}")
    centered = x - mu
    sigma = np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True))
    denom = sigma + eps
    return centered / denom, mu, denom


def layer_norm(x: np.ndarray, params: LNParams, mode: NormMode = "ln") -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row of x (T, C); returns (output, xhat).

    xhat is exposed so callers composing the modulated variant can reuse the
    normalization statistics.
    """
    xhat, _, _ = _normalize(x, params.eps, mode)
    return params.alpha * xhat + params.beta, xhat


def viln_apply(
    x: np.ndarray,
    deltas: tuple[np.ndarray, np.ndarray],
    params: LNParams,
    mode: NormMode = "ln",
) -> np.ndarray:
    """Normalization with per-token affine offsets (d_alpha, d_beta), (T, C) each."""
    d_alpha, d_beta = deltas
    if d_alpha.shape != x.shape or d_beta.shape != x.shape:
        raise ShapeError(
            f"delta shapes {d_alpha.shape}/{d_beta.shape} do not match input {x.shape}"
        )
    xhat, _, _ = _normalize(x, params.eps, mode)
    return (params.alpha + d_alpha) * xhat + (params.beta + d_beta)


def project_deltas(
    cond: np.ndarray, proj: DeltaProjection
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Swish-gate the conditioning vectors and map them to the four deltas.

    Returns ((d_alpha1, d_beta1), (d_alpha2, d_beta2)), the pairs of the
    pre-attention and pre-FFN slots, (T, C) each. All four are views of one
    fresh (T, 4C) array, whose chunk order is that of the return value. That
    array is checked finite even inside checks_at_boundaries: a caller may
    zero or drop a chunk, and a NaN there would then reach nothing else.
    """
    if cond.ndim != 2 or cond.shape[1] != proj.w.shape[0]:
        raise ShapeError(f"conditioning shape {cond.shape} does not match projection {proj.w.shape}")
    flat = check_finite("project_deltas", matmul(swish(cond), proj.w) + proj.b)
    c = proj.channels
    return (flat[:, :c], flat[:, c:2 * c]), (flat[:, 2 * c:3 * c], flat[:, 3 * c:])


# ---------------------------------------------------------------------------
# Backward passes

def _normalize_backward(
    g_xhat: np.ndarray,
    x: np.ndarray,
    mu: np.ndarray,
    denom: np.ndarray,
    eps: float,
    mode: NormMode,
) -> np.ndarray:
    """Gradient of a loss through xhat = (x - mu) / (std + eps), per row.

    At an exactly constant row the std term is non-differentiable; the std
    path is dropped there (subgradient zero), which matches what central
    differences measure when eps dominates the perturbation.
    """
    centered = x - mu
    c = x.shape[1]
    sigma = denom - eps
    sigma_safe = np.where(sigma > 0, sigma, 1.0)
    # d std / d x_k = centered_k / (C * std); zero where std == 0.
    sum_gc = np.sum(g_xhat * centered, axis=1, keepdims=True)
    std_term = np.where(
        sigma > 0,
        sum_gc * centered / (c * sigma_safe * denom * denom),
        0.0,
    )
    dx = g_xhat / denom - std_term
    if mode == "ln":
        dx = dx - np.mean(g_xhat, axis=1, keepdims=True) / denom
    return dx


def viln_backward(
    x: np.ndarray,
    deltas: tuple[np.ndarray, np.ndarray],
    params: LNParams,
    g_out: np.ndarray,
    mode: NormMode = "ln",
) -> dict[str, np.ndarray]:
    """Gradients of sum(g_out * viln_apply(...)) w.r.t. every input.

    Returns keys x, alpha, beta, d_alpha, d_beta.
    """
    d_alpha, d_beta = deltas
    xhat, mu, denom = _normalize(x, params.eps, mode)
    g_xhat = g_out * (params.alpha + d_alpha)
    grads = {
        "x": _normalize_backward(g_xhat, x, mu, denom, params.eps, mode),
        "alpha": np.sum(g_out * xhat, axis=0),
        "beta": np.sum(g_out, axis=0),
        "d_alpha": g_out * xhat,
        "d_beta": g_out.copy(),
    }
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
    return grads


def project_deltas_backward(
    cond: np.ndarray,
    proj: DeltaProjection,
    g_flat: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients through project_deltas given g_flat (T, 4C) on the raw output."""
    gated = swish(cond)
    return {
        "w": gated.T @ g_flat,
        "b": np.sum(g_flat, axis=0),
        "cond": (g_flat @ proj.w.T) * swish_grad(cond),
    }


# ---------------------------------------------------------------------------
# Finite-difference verification

@dataclass
class VilnPoint:
    """One evaluation point for the projection -> modulated-norm pipeline."""

    x: np.ndarray      # (T, C)
    alpha: np.ndarray  # (C,)
    beta: np.ndarray   # (C,)
    cond: np.ndarray   # (T, C_cond)
    w: np.ndarray      # (C_cond, 4C)
    b: np.ndarray      # (4C,)
    eps: float = 1e-5
    mode: NormMode = "ln"


def random_viln_point(
    rng: np.random.Generator,
    tokens: int = 3,
    channels: int = 4,
    cond_dim: int = 5,
    eps: float = 1e-5,
    mode: NormMode = "ln",
) -> VilnPoint:
    return VilnPoint(
        x=rng.normal(size=(tokens, channels)),
        alpha=rng.normal(loc=1.0, scale=0.2, size=channels),
        beta=rng.normal(scale=0.2, size=channels),
        cond=rng.normal(size=(tokens, cond_dim)),
        w=rng.normal(scale=0.2, size=(cond_dim, 4 * channels)),
        b=rng.normal(scale=0.2, size=4 * channels),
        eps=eps,
        mode=mode,
    )


def central_differences(losses_fn, arr: np.ndarray, eps_fd: float) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. every entry of arr.

    losses_fn receives one (2N, *arr.shape) stack, N = arr.size: copy i has
    entry i raised by eps_fd and copy N + i has it lowered. It returns the 2N
    losses, one per copy. arr itself is never written.
    """
    n = arr.size
    stack = np.repeat(arr.reshape(1, n), 2 * n, axis=0)
    entries = np.arange(n)
    stack[entries, entries] += eps_fd
    stack[n + entries, entries] -= eps_fd
    losses = np.asarray(losses_fn(stack.reshape((2 * n,) + arr.shape)))
    if losses.shape != (2 * n,):
        raise ShapeError(f"losses_fn returned shape {losses.shape}, expected ({2 * n},)")
    return ((losses[:n] - losses[n:]) / (2.0 * eps_fd)).reshape(arr.shape)


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise max of |a - n| / max(|a|, |n|), absolute below 1e-6 scale."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(scale < 1e-6, diff, diff / np.maximum(scale, 1e-300))
    return float(np.max(rel)) if rel.size else 0.0


def max_gradient_error(analytic: dict[str, np.ndarray], perturbed: dict, eps_fd: float) -> float:
    """Max relative error of analytic gradients against central differences.

    perturbed maps each checked name to the (losses_fn, arr) pair that
    ``central_differences`` takes; analytic holds the gradients under the
    same names. eps_fd must lie in [1e-7, 1e-4]. A non-finite error in any
    field raises NumericError.
    """
    if not 1e-7 <= eps_fd <= 1e-4:
        raise ConfigError(f"eps_fd {eps_fd} outside [1e-7, 1e-4]")
    worst = 0.0
    for name, (losses_fn, arr) in perturbed.items():
        err = relative_gradient_error(analytic[name], central_differences(losses_fn, arr, eps_fd))
        if not math.isfinite(err):
            raise NumericError(f"gradient check of {name} produced a non-finite error")
        worst = max(worst, err)
    return worst


def _viln_pipeline_loss(point: VilnPoint, free_deltas: np.ndarray | None = None) -> np.ndarray:
    """Sum of outputs of both modulated slots; the gradcheck objective.

    When free_deltas (T, 4C) is given it replaces the projected deltas so the
    delta gradient itself can be finite-differenced. Any array of the point,
    or free_deltas, may carry one leading batch axis; the losses then come
    back one per batch entry (a scalar otherwise). Unbatched, the slots are
    exactly ``viln_apply`` with the deltas of ``project_deltas``.
    """
    if free_deltas is None:
        free_deltas = matmul(swish(point.cond), point.w) + point.b[..., None, :]
    xhat, _, _ = _normalize(point.x, point.eps, point.mode)
    alpha = point.alpha[..., None, :]
    beta = point.beta[..., None, :]
    c = point.x.shape[-1]
    total = 0.0
    for slot in (0, 2):  # [d_alpha1, d_beta1, d_alpha2, d_beta2] chunks
        d_alpha = free_deltas[..., slot * c:(slot + 1) * c]
        d_beta = free_deltas[..., (slot + 1) * c:(slot + 2) * c]
        total = total + ((alpha + d_alpha) * xhat + (beta + d_beta)).sum(axis=(-2, -1))
    return total


def viln_pipeline_gradients(point: VilnPoint) -> dict[str, np.ndarray]:
    """Analytic gradients of the gradcheck objective at the given point."""
    params = LNParams(point.alpha, point.beta, point.eps)
    proj = DeltaProjection(point.w, point.b)
    slot1, slot2 = project_deltas(point.cond, proj)
    g_out = np.ones_like(point.x)
    g1 = viln_backward(point.x, slot1, params, g_out, point.mode)
    g2 = viln_backward(point.x, slot2, params, g_out, point.mode)
    g_flat = np.concatenate(
        [g1["d_alpha"], g1["d_beta"], g2["d_alpha"], g2["d_beta"]], axis=1
    )
    g_proj = project_deltas_backward(point.cond, proj, g_flat)
    return {
        "x": g1["x"] + g2["x"],
        "alpha": g1["alpha"] + g2["alpha"],
        "beta": g1["beta"] + g2["beta"],
        "deltas": g_flat,
        "w": g_proj["w"],
        "b": g_proj["b"],
        "cond": g_proj["cond"],
    }


def gradcheck_viln(point: VilnPoint, eps_fd: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Covers x, alpha, beta, the four delta tensors, and the projection's w, b
    and conditioning input. eps_fd must lie in [1e-7, 1e-4] and the point must
    be float64.
    """
    perturbed = {
        name: (lambda stack, name=name: _viln_pipeline_loss(replace(point, **{name: stack})),
               getattr(point, name))
        for name in ("x", "alpha", "beta", "cond", "w", "b")
    }
    slot1, slot2 = project_deltas(point.cond, DeltaProjection(point.w, point.b))
    flat = np.concatenate([*slot1, *slot2], axis=1)
    perturbed["deltas"] = (lambda stack: _viln_pipeline_loss(point, stack), flat)
    return max_gradient_error(viln_pipeline_gradients(point), perturbed, eps_fd)
