"""Hidden-state probes: modulation influence and feature drift.

Both probes are reductions over the `ForwardCapture` of a forward pass, to
per-token cosine distances between paired hidden states. `diagnose` computes
the two from one captured pass of an fmi model and one of its base twin.
Degenerate vectors follow a fixed convention: distance 0 when both vectors
are zero, 1 when exactly one is.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .conditioning import VisualContext
from .model import ForwardCapture, Model, base_twin, forward
from .tensors import ConfigError, ShapeError


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), clamped to [0, 2].

    Conventions: identical vectors give exactly 0 (no rounding residue);
    two zero vectors give 0; exactly one zero vector gives 1.
    """
    if np.array_equal(a, b):
        return 0.0
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(np.clip(1.0 - float(np.dot(a, b)) / (na * nb), 0.0, 2.0))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products as (n, 1, k) @ (n, k, 1): the same BLAS dot that
    np.dot and np.linalg.norm run on one row, so the same bits."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cosine_distance of each row pair, with its conventions, bit for bit."""
    na = np.sqrt(_row_dots(a, a)).astype(np.float64)
    nb = np.sqrt(_row_dots(b, b)).astype(np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = 1.0 - _row_dots(a, b).astype(np.float64) / (na * nb)
    # np.clip(out, 0.0, 2.0): they differ only on -0.0, which 1.0 - r never is
    np.minimum(np.maximum(out, 0.0, out=out), 2.0, out=out)
    out[(na == 0.0) | (nb == 0.0)] = 1.0
    out[np.logical_and.reduce(a == b, axis=1)] = 0.0
    return out


@dataclass
class LayerStats:
    layer: int
    mean: float
    min: float
    max: float


@dataclass
class DiagnosticTrace:
    """Per-token distances, one row per probed layer, plus exact aggregates."""

    layers: list[int]
    per_token: np.ndarray  # (len(layers), T)

    def __post_init__(self) -> None:
        if self.per_token.ndim != 2 or self.per_token.shape[0] != len(self.layers):
            raise ShapeError(
                f"per_token shape {self.per_token.shape} does not match {len(self.layers)} layers"
            )

    @property
    def per_layer(self) -> list[LayerStats]:
        return [
            LayerStats(
                layer=layer,
                mean=float(np.add.reduce(row, axis=None) / row.size),
                min=float(np.minimum.reduce(row, axis=None)),
                max=float(np.maximum.reduce(row, axis=None)),
            )
            for layer, row in zip(self.layers, self.per_token)
        ]


def _influence(capture: ForwardCapture) -> DiagnosticTrace:
    """The modulation_influence trace of a captured pass."""
    layers = sorted(capture.modulation)
    rows = []
    for layer in layers:
        attn_slot, ffn_slot = (_row_distances(plain, modulated) for plain, modulated in capture.modulation[layer])
        rows.append((attn_slot + ffn_slot) / 2)
    return DiagnosticTrace(layers=layers, per_token=np.array(rows))


def _drift(cap_a: ForwardCapture, cap_b: ForwardCapture, t: int) -> DiagnosticTrace:
    """The feature_drift trace of two captured passes, over their last t rows."""
    rows = []
    for h_a, h_b in zip(cap_a.hidden, cap_b.hidden):
        rows.append(_row_distances(h_a[-t:], h_b[-t:]))
    return DiagnosticTrace(layers=list(range(len(rows))), per_token=np.array(rows))


def _captured(model: Model, t_emb: np.ndarray, visual: VisualContext | None) -> ForwardCapture:
    capture = ForwardCapture()
    forward(model, t_emb, visual, capture)
    return capture


def _require_fmi(model: Model) -> None:
    if model.cfg.paradigm != "fmi":
        raise ConfigError(f"modulation influence needs an fmi model, got {model.cfg.paradigm!r}")


def modulation_influence(model: Model, t_emb: np.ndarray, visual: VisualContext) -> DiagnosticTrace:
    """Distance between each modulated layer's plain-normalization output and
    its modulated output, per token, from a single forward pass.

    Each modulated block's two slot distances, pre-attention and pre-FFN,
    are averaged per token.

    The pass stops after the last modulated block, since no later block adds
    to the trace; so a NaN or Inf that first appears after it does not
    raise here (feature_drift and diagnose, which run every block, still
    raise).
    """
    _require_fmi(model)
    last = max((l for l, p in enumerate(model.blocks) if p.modulation is not None), default=-1)
    return _influence(_captured(replace(model, blocks=model.blocks[: last + 1]), t_emb, visual))


def feature_drift(
    model_a: Model,
    model_b: Model,
    t_emb: np.ndarray,
    visual: VisualContext | None,
) -> DiagnosticTrace:
    """Per-layer token distances between model_a run on text plus vision and
    model_b (the reference stack) run on text only.

    When model_a grows the sequence with a visual prefix, the trailing T
    positions are compared.
    """
    if model_a.cfg.L != model_b.cfg.L or model_a.cfg.C != model_b.cfg.C:
        raise ConfigError("models must agree on depth and width")
    cap_a = _captured(model_a, t_emb, visual)
    return _drift(cap_a, _captured(model_b, t_emb, None), t_emb.shape[0])


def diagnose(model: Model, t_emb: np.ndarray, visual: VisualContext) -> tuple[DiagnosticTrace, DiagnosticTrace]:
    """modulation_influence(model, ...) and feature_drift(model,
    base_twin(model), ...), bit for bit, from one captured pass of each
    model: the fmi pass records the modulation pairs and the hidden states
    together."""
    _require_fmi(model)
    capture = _captured(model, t_emb, visual)
    return _influence(capture), _drift(capture, _captured(base_twin(model), t_emb, None), t_emb.shape[0])


# ---------------------------------------------------------------------------
# CSV export

def write_trace_csv(path: str | Path, trace: DiagnosticTrace) -> None:
    """One row per (layer, token) plus exact per-layer aggregates. The label
    column stays in the layout and is always empty."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["layer", "token", "label", "distance", "layer_mean", "layer_min", "layer_max"])
        for stats, row in zip(trace.per_layer, trace.per_token):
            for tok in range(row.shape[0]):
                writer.writerow([
                    stats.layer,
                    tok,
                    "",
                    f"{row[tok]:.12g}",
                    f"{stats.mean:.12g}",
                    f"{stats.min:.12g}",
                    f"{stats.max:.12g}",
                ])
