"""Layer normalization with vision-conditioned affine deltas.

``layer_norm`` is the plain per-row normalization y = alpha * xhat + beta.
``viln_apply`` shifts the affine parameters per token by externally supplied
deltas: y_i = (alpha + d_alpha[i]) * xhat_i + (beta + d_beta[i]), so zero
deltas reproduce ``layer_norm`` bit for bit.

The deltas come from ``project_deltas``: a Swish-gated linear map from a
per-token conditioning vector to four channel-wide chunks (scale and shift
for a pre-attention slot and a pre-FFN slot). The projection is constructed
all-zero so a fresh model leaves the host stack untouched.

``viln_pipeline_gradients`` is the one hand-derived gradient of both: it
normalizes x once for the two slots. ``gradcheck_viln`` checks it against
central finite differences of ``viln_apply`` per slot through
``max_gradient_error``, the loop the conditioner checks share, which also
rejects a non-finite gradient in any field. ``central_differences`` perturbs
every entry of an array up and down at once: it hands the caller's losses
function the (2N, *arr.shape) stack of perturbed copies and expects 2N losses
back. The objective broadcasts over that leading axis: here it is
``project_deltas`` plus ``viln_apply``, the forward the model runs, and in
``conditioning`` the conditioner forwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tensors import (
    ConfigError, NumericError, ShapeError, _finite_op, check_finite, checks_at_boundaries, matmul, swish, swish_grad,
)

NormMode = str  # "ln" (mean subtracted) or "rms" (mean kept at zero)


@dataclass
class LNParams:
    """Shared affine parameters, (..., C) each; eps is added to the std, not the variance."""

    alpha: np.ndarray  # (..., C)
    beta: np.ndarray   # (..., C)
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if not 0 < self.eps < math.inf:  # also False for NaN
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if self.alpha.ndim == 0 or self.alpha.shape[-1:] != self.beta.shape[-1:]:
            raise ShapeError("alpha and beta must be at least 1-D with equal last axes")

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5) -> "LNParams":
        return cls(np.ones(channels), np.zeros(channels), eps)


@dataclass
class DeltaProjection:
    """Linear map from (..., T, C_cond) conditioning vectors to the four (..., T, C) delta chunks."""

    w: np.ndarray  # (..., C_cond, 4C)
    b: np.ndarray  # (..., 4C)

    def __post_init__(self) -> None:
        if self.w.ndim < 2 or self.w.shape[-1:] != self.b.shape[-1:]:
            raise ShapeError(f"inconsistent projection shapes {self.w.shape} / {self.b.shape}")
        if self.w.shape[-1] % 4 != 0:
            raise ConfigError(f"projection width {self.w.shape[-1]} is not divisible by 4")

    @classmethod
    def zero_init(cls, cond_dim: int, channels: int) -> "DeltaProjection":
        """Canonical constructor: exactly zero weights and bias."""
        return cls(np.zeros((cond_dim, 4 * channels)), np.zeros(4 * channels))


def _row_mean(a: np.ndarray) -> np.ndarray:
    """np.mean(a, axis=-1, keepdims=True) as a new array. float64 and float32
    rows, the ones the model runs, skip np.mean's Python wrapper for its own
    sum and division; every other dtype goes to np.mean itself."""
    if a.dtype.char not in "df":
        return np.mean(a, axis=-1, keepdims=True)
    mean = np.add.reduce(a, axis=-1, keepdims=True)
    mean /= a.shape[-1]
    return mean


def _normalize(x: np.ndarray, params: LNParams, mode: NormMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (xhat, mu, denom) with denom = population std + params.eps, per row.

    x is (..., T, C) with C >= 1 the width of params; leading batch axes pass through.
    """
    width = params.alpha.shape[-1]
    if x.ndim < 2 or x.shape[-1] < 1 or x.shape[-1] != width:
        raise ShapeError(f"expected (..., T, {width}) input, got {x.shape}")
    if mode == "ln":
        mu = _row_mean(x)
    elif mode == "rms":
        mu = np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)
    else:
        raise ConfigError(f"unknown norm mode {mode!r}")
    centered = x - mu
    var = _row_mean(centered * centered)
    denom = np.sqrt(var, out=var) + params.eps
    # xhat overwrites centered, unless an integer x left centered integer
    xhat = np.divide(centered, denom, out=centered if centered.dtype == denom.dtype else None)
    return xhat, mu, denom


@_finite_op
def layer_norm(x: np.ndarray, params: LNParams, mode: NormMode = "ln") -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row of x (..., T, C); returns (output, xhat).

    xhat is exposed so callers composing the modulated variant can reuse the
    normalization statistics. Called on its own, a non-finite output raises
    NumericError, as the tensors ops do; xhat is not checked.
    """
    xhat, _, _ = _normalize(x, params, mode)
    out = params.alpha[..., None, :] * xhat
    beta = params.beta[..., None, :]
    # beta is added in place unless it may widen the product: in dtype (float32
    # alpha and xhat with float64 beta give float64) or by its own batch axes
    return np.add(out, beta, out=out if out.dtype == beta.dtype and beta.ndim == 2 else None), xhat


@_finite_op
def viln_apply(
    x: np.ndarray,
    deltas: tuple[np.ndarray, np.ndarray],
    params: LNParams,
    mode: NormMode = "ln",
) -> np.ndarray:
    """Normalization of x (..., T, C) with per-token affine offsets (d_alpha, d_beta), (..., T, C) each.

    Called on its own, a non-finite output raises NumericError, as the tensors ops do.
    """
    d_alpha, d_beta = deltas
    if d_alpha.shape[-2:] != x.shape[-2:] or d_beta.shape[-2:] != x.shape[-2:]:
        raise ShapeError(
            f"delta shapes {d_alpha.shape}/{d_beta.shape} do not match input {x.shape}"
        )
    return _modulate(_normalize(x, params, mode)[0], deltas, params)


def _modulate(xhat: np.ndarray, deltas: tuple[np.ndarray, np.ndarray], params: LNParams) -> np.ndarray:
    """viln_apply's affine of an already normalized xhat: (alpha + d_alpha) * xhat + (beta + d_beta)."""
    d_alpha, d_beta = deltas
    return (params.alpha[..., None, :] + d_alpha) * xhat + (params.beta[..., None, :] + d_beta)


def _slots(flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The four (..., T, C) chunks of flat (..., T, 4C) as ((d_alpha1, d_beta1), (d_alpha2, d_beta2))."""
    c = flat.shape[-1] // 4
    return (flat[..., :c], flat[..., c:2 * c]), (flat[..., 2 * c:3 * c], flat[..., 3 * c:])


def project_deltas(
    cond: np.ndarray, proj: DeltaProjection
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Swish-gate the conditioning vectors and map them to the four deltas.

    Returns ((d_alpha1, d_beta1), (d_alpha2, d_beta2)) for cond (..., T, C_cond):
    the pairs of the pre-attention and pre-FFN slots, (..., T, C) each, views
    of one fresh (..., T, 4C) array in that chunk order. That array is checked
    finite even inside checks_at_boundaries: a caller may zero or drop a
    chunk, and a NaN there would then reach nothing else.
    """
    if cond.ndim < 2 or cond.shape[-1] != proj.w.shape[-2]:
        raise ShapeError(f"conditioning shape {cond.shape} does not match projection {proj.w.shape}")
    return _slots(check_finite("project_deltas", matmul(swish(cond), proj.w) + proj.b[..., None, :]))


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
    stack = arr.reshape(1, n).repeat(2 * n, axis=0)
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
    return float(np.maximum.reduce(rel, axis=None)) if rel.size else 0.0


def max_gradient_error(analytic: dict[str, np.ndarray], perturbed: dict, eps_fd: float) -> float:
    """Max relative error of analytic gradients against central differences.

    perturbed maps each checked name to the (losses_fn, arr) pair that
    ``central_differences`` takes; analytic holds the gradients under the
    same names. eps_fd must lie in [1e-7, 1e-4]. A non-finite error in any
    field raises NumericError. The losses run inside checks_at_boundaries:
    a NaN or Inf in any loss or analytic gradient makes the error non-finite.
    """
    if not 1e-7 <= eps_fd <= 1e-4:
        raise ConfigError(f"eps_fd {eps_fd} outside [1e-7, 1e-4]")
    worst = 0.0
    for name, (losses_fn, arr) in perturbed.items():
        with checks_at_boundaries():
            numeric = central_differences(losses_fn, arr, eps_fd)
        err = relative_gradient_error(analytic[name], numeric)
        if not math.isfinite(err):
            raise NumericError(f"gradient check of {name} produced a non-finite error")
        worst = max(worst, err)
    return worst


def viln_pipeline_gradients(point: VilnPoint) -> dict[str, np.ndarray]:
    """Analytic gradients of the gradcheck objective at the given point.

    The objective is the sum of both slots' ``viln_apply`` outputs, so x is
    normalized once and only the x gradient, through xhat = (x - mu) /
    (std + eps) per row, depends on the slot. At an exactly constant row
    the std term is non-differentiable; the std path is dropped there
    (subgradient zero), which matches what central differences measure when
    eps dominates the perturbation.
    """
    slots = project_deltas(point.cond, DeltaProjection(point.w, point.b))
    xhat, mu, denom = _normalize(point.x, LNParams(point.alpha, point.beta, point.eps), point.mode)
    centered = point.x - mu
    sigma = denom - point.eps
    # d std / d x_k = centered_k / (C * std) and d xhat_j / d std = -centered_j / denom**2
    std_scale = point.x.shape[1] * np.where(sigma > 0, sigma, 1.0) * denom * denom
    dx = []
    for d_alpha, _ in slots:
        g_xhat = point.alpha + d_alpha
        sum_gc = np.add.reduce(g_xhat * centered, axis=1, keepdims=True)
        slot_dx = g_xhat / denom - np.where(sigma > 0, sum_gc * centered / std_scale, 0.0)
        if point.mode == "ln":
            slot_dx = slot_dx - np.add.reduce(g_xhat, axis=1, keepdims=True) / point.x.shape[1] / denom
        dx.append(slot_dx)
    ones = np.ones_like(point.x)
    g_flat = np.concatenate([xhat, ones, xhat, ones], axis=1)
    return {
        "x": dx[0] + dx[1],
        "alpha": 2 * np.add.reduce(xhat, axis=0),
        "beta": 2 * np.add.reduce(ones, axis=0),
        "deltas": g_flat,
        "w": swish(point.cond).T @ g_flat,
        "b": np.add.reduce(g_flat, axis=0),
        "cond": (g_flat @ point.w.T) * swish_grad(point.cond),
    }


def gradcheck_viln(point: VilnPoint, eps_fd: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Covers x, alpha, beta, the four delta tensors, and the projection's w, b
    and conditioning input. eps_fd must lie in [1e-7, 1e-4] and the point must
    be float64. The objective sums the outputs of ``viln_apply`` over both
    slots of ``project_deltas``, or of the perturbed (T, 4C) deltas.
    """
    projected = project_deltas(point.cond, DeltaProjection(point.w, point.b))

    def losses(slots: tuple = projected, **fields: np.ndarray) -> np.ndarray:
        p = replace(point, **fields)
        if fields.keys() & {"cond", "w", "b"}:  # only the projection's inputs move the deltas
            slots = project_deltas(p.cond, DeltaProjection(p.w, p.b))
        params = LNParams(p.alpha, p.beta, p.eps)
        xhat = _normalize(p.x, params, p.mode)[0]  # viln_apply's, shared by both slots
        return sum(np.add.reduce(_modulate(xhat, deltas, params), axis=(-2, -1)) for deltas in slots)

    perturbed = {
        name: (lambda stack, name=name: losses(**{name: stack}), getattr(point, name))
        for name in ("x", "alpha", "beta", "cond", "w", "b")
    }
    flat = np.concatenate([*projected[0], *projected[1]], axis=1)
    perturbed["deltas"] = (lambda stack: losses(_slots(stack)), flat)
    return max_gradient_error(viln_pipeline_gradients(point), perturbed, eps_fd)
