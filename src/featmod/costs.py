"""Closed-form FLOPs and memory accounting for the three injection paradigms.

Conventions, chosen so the golden numbers are stable and reproducible:

* one multiply-accumulate = 2 FLOPs; softmax, activations, additions and
  normalizations are ignored (sub-percent at any realistic scale)
* prefill, plus a per-token decode figure: each block prices one query
  against the full prefill context, ``_block_split(1, S)``, and the vision
  path runs at one text token with nothing visual cached; the incontext
  connector is priced in prefill only, as its prefix then sits in the KV cache
* vision-encoder FLOPs are excluded everywhere: identical across paradigms,
  so only the injection cost differs
* weight bytes cover the transformer stack and injection extras; vocabulary
  embeddings are out of scope (the executable model has no tokenizer)
* peak activation is the largest single intermediate of a naive batch-1
  forward pass, which for long sequences is the (heads, S, S) attention
  score tensor; the mlp conditioner's candidate is its whole token-mix
  pre-activation T*C*(V+1)*token_exp. Each thread of the executable
  forward holds at most one 512 KiB block of either: a head group (or one
  head) of a 128-query tile's scores, or of the attn conditioner's and the
  insert's (heads, T, V) scores, as all attention runs through
  tensors.attend; or a tile of the token mix

A CostConfig is valid exactly when the model it prices is
(``CostConfig.model_config``). Every analytic total is validated against an
op-walk oracle: that model runs under the MAC counter and must agree within
1 percent (``measured_flops``).

Per-block costs at sequence length S: QKV and output projections 8*S*C^2,
attention scores and mixing 4*S^2*C, and the FFN 4*S*C*d_ff. The attention
term is the full square; the executable model computes causal attention in
128-query tiles and skips the masked key blocks, so for S > 128 it runs
fewer FLOPs than this and the op-walk agreement holds for S <= 128 only.

Per-modulated-layer conditioner costs (V = V_total, L = V + 1, delta
projection 8*T*C^2 included). The mlp and conv conditioners compute output
position 0 only, and these are the MACs they run:

* attn: 4*T*C^2 (query + output) + 4*V*C^2 (keys + values) + 4*T*V*C (scores
  + mixing) + 8*T*C^2
* mlp: 2*C*V*L*token_exp (visual term, shared by all text tokens)
  + 2*T*C*L*token_exp (text term) + 2*T*C*L*token_exp (token_w2 column 0)
  + 4*T*C^2*channel_exp (channel mixing) + 8*T*C^2
* conv: 2*C*(T + min(K//2, V)) (the depthwise taps slot 0 reads, the visual
  ones shared by all text tokens) + 2*T*C^2 (pointwise) + 8*T*C^2

The inserted cross-attention module of the architectural baseline is priced
as its executable counterpart: a full cross-attention (4*T*C^2 + 4*V*C^2 +
4*T*V*C) plus its FFN (4*T*C*d_ff) per selected layer.

The text stack is priced alike for every paradigm; one function,
``_vision_path``, prices what each paradigm adds to it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .conditioning import VisualContext, default_heads
from .model import PARADIGMS, ModelConfig, forward, init_model, select_layers
from .tensors import ConfigError, count_macs, make_rng

BREAKDOWN_KEYS = (
    "self_attention",
    "ffn",
    "projections",
    "conditioner",
    "connector",
    "inserted_crossattn",
)


@dataclass
class CostConfig:
    L: int
    C: int
    h: int
    d_ff: int
    T: int
    V: int                      # visual tokens per image / per pooled frame
    k: int = 1                  # frames; 1 for still images
    paradigm: str = "fmi"
    cond_kind: str = "attn"
    frequency: float = 0.25
    bytes_per_elem: int = 2
    cond_token_exp: int = 4
    cond_channel_exp: int = 4
    cond_kernel: int = 3

    def validate(self) -> None:
        for name in ("T", "V", "k", "bytes_per_elem"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        self.model_config().validate()

    def model_config(self, seed: int = 0) -> ModelConfig:
        """The model this config prices, as the op-walk builds it."""
        return ModelConfig(
            **{name: getattr(self, name) for name in MODEL_FIELDS},
            cond_visual_tokens=self.v_total if self.cond_kind == "mlp" else None,
            seed=seed,
        )

    @property
    def v_total(self) -> int:
        return self.k * self.V

    @property
    def seq_len(self) -> int:
        return self.v_total + self.T if self.paradigm == "incontext" else self.T

    @property
    def n_injected(self) -> int:
        if self.paradigm in ("fmi", "crossattn"):
            return len(select_layers(self.L, self.frequency, "uniform"))
        return 0


# The fields a CostConfig shares with ModelConfig, under the same name and
# meaning: the architecture, the paradigm and the conditioner's sizes.
MODEL_FIELDS = tuple(f.name for f in fields(CostConfig) if f.name in {g.name for g in fields(ModelConfig)})

# The paradigms a cost sweep compares and the frame counts it runs.
SWEEP_PARADIGMS = tuple(p for p in PARADIGMS if p != "base")
SWEEP_FRAMES = (8, 16, 32, 64, 128)


@dataclass
class CostReport:
    paradigm: str
    cond_kind: str
    k: int
    T: int
    V: int
    v_total: int
    seq_len: int
    breakdown: dict[str, int] = field(default_factory=dict)
    total_flops: int = 0
    decode_flops_per_token: int = 0
    kv_cache_bytes: int = 0
    peak_activation_bytes: int = 0
    weight_bytes: int = 0

    @property
    def memory_total_bytes(self) -> int:
        return self.kv_cache_bytes + self.peak_activation_bytes + self.weight_bytes


def _block_split(queries: int, keys: int, c: int, d_ff: int) -> tuple[int, int, int]:
    """(projections, self_attention, ffn) FLOPs of one block whose `queries`
    positions attend to `keys` positions: (s, s) in prefill, (1, s) per
    decoded token."""
    return 8 * queries * c * c, 4 * queries * keys * c, 4 * queries * c * d_ff


def flops_cond(
    cond_kind: str,
    t: int,
    v: int,
    c: int,
    token_exp: int = 4,
    channel_exp: int = 4,
    kernel: int = 3,
) -> int:
    """FLOPs of one conditioner application plus its delta projection."""
    if v < 1:
        raise ConfigError(f"conditioner needs at least one visual token, got {v}")
    if t < 1:
        raise ConfigError(f"conditioner needs at least one text token, got {t}")
    projection = 8 * t * c * c
    if cond_kind == "attn":
        return 4 * t * c * c + 4 * v * c * c + 4 * t * v * c + projection
    if cond_kind == "mlp":
        mix = (v + 1) * token_exp
        return 2 * c * v * mix + 4 * t * c * mix + 4 * t * c * c * channel_exp + projection
    if cond_kind == "conv":
        return 2 * c * (t + min(kernel // 2, v)) + 2 * t * c * c + projection
    raise ConfigError(f"unknown conditioner kind {cond_kind!r}")


def _flops_insert(t: int, v: int, c: int, d_ff: int) -> int:
    return 4 * t * c * c + 4 * v * c * c + 4 * t * v * c + 4 * t * c * d_ff


def _vision_path(cfg: CostConfig, n_injected: int) -> tuple[str, int, int, int, list[int]]:
    """What one paradigm adds to the text stack: its breakdown key, prefill
    FLOPs, FLOPs per decoded token, weight parameters and peak-activation
    candidates."""
    c, d_ff, t, vt = cfg.C, cfg.d_ff, cfg.T, cfg.v_total
    if cfg.paradigm == "fmi":
        te, ce = cfg.cond_token_exp, cfg.cond_channel_exp
        if cfg.cond_kind == "attn":
            params, peaks = 4 * c * c, [default_heads(c) * t * vt, vt * c]
        elif cfg.cond_kind == "conv":
            params, peaks = c * cfg.cond_kernel + c * c, [t * c]
        else:
            seq = vt + 1
            params = 2 * seq * seq * te + seq * te + seq + 2 * c * c * ce + c * ce + c
            peaks = [t * c * seq * te, t * c * ce]
        prefill = n_injected * flops_cond(cfg.cond_kind, t, vt, c, te, ce, cfg.cond_kernel)
        decode = n_injected * flops_cond(cfg.cond_kind, 1, vt, c, te, ce, cfg.cond_kernel)
        # conditioner + delta projection; the deltas are (T, 4C)
        return "conditioner", prefill, decode, n_injected * (params + 4 * c * c + 4 * c), [t * 4 * c, *peaks]
    if cfg.paradigm == "incontext":
        # the prefix sits in the KV cache, so decode runs no connector
        return "connector", 2 * vt * c * c, 0, c * c + c, [vt * c]
    if cfg.paradigm == "crossattn":
        prefill = n_injected * _flops_insert(t, vt, c, d_ff)
        decode = n_injected * _flops_insert(1, vt, c, d_ff)
        params = n_injected * (4 * c * c + 2 * c * d_ff + d_ff + c)
        return "inserted_crossattn", prefill, decode, params, [default_heads(c) * t * vt, vt * c, t * d_ff]
    return "conditioner", 0, 0, 0, []  # base has no vision path; it adds nothing anywhere


def cost_paradigm(cfg: CostConfig) -> CostReport:
    """Full prefill cost report for one paradigm/config pair."""
    cfg.validate()
    s, c, d_ff = cfg.seq_len, cfg.C, cfg.d_ff
    key, vision_flops, vision_decode, vision_params, vision_peaks = _vision_path(cfg, cfg.n_injected)
    proj, attn, ffn = _block_split(s, s, c, d_ff)
    breakdown = dict.fromkeys(BREAKDOWN_KEYS, 0)
    breakdown.update(projections=cfg.L * proj, self_attention=cfg.L * attn, ffn=cfg.L * ffn)
    breakdown[key] += vision_flops
    per_block = 4 * c * c + 2 * c * d_ff + d_ff + 5 * c  # attn, ffn + biases, two LN pairs
    return CostReport(
        paradigm=cfg.paradigm,
        cond_kind=cfg.cond_kind,
        k=cfg.k,
        T=cfg.T,
        V=cfg.V,
        v_total=cfg.v_total,
        seq_len=s,
        breakdown=breakdown,
        total_flops=sum(breakdown.values()),
        decode_flops_per_token=cfg.L * sum(_block_split(1, s, c, d_ff)) + vision_decode,
        kv_cache_bytes=2 * cfg.L * s * c * cfg.bytes_per_elem,
        peak_activation_bytes=max(s * c, cfg.h * s * s, s * d_ff, *vision_peaks) * cfg.bytes_per_elem,
        weight_bytes=(cfg.L * per_block + vision_params) * cfg.bytes_per_elem,
    )


def sweep_frames(cfg: CostConfig, frame_counts: list[int]) -> list[CostReport]:
    """One report per frame count, ascending; V stays the per-frame count."""
    if not frame_counts:
        raise ConfigError("frame_counts must be non-empty")
    if any(b <= a for a, b in zip(frame_counts, frame_counts[1:])):
        raise ConfigError("frame_counts must be strictly ascending")
    return [cost_paradigm(replace(cfg, k=k)) for k in frame_counts]


# ---------------------------------------------------------------------------
# Op-walk oracle

def measured_flops(cfg: CostConfig, seed: int = 0) -> int:
    """FLOPs actually performed by the executable model on this config.

    Traverses a real forward pass under the MAC counter; only viable for
    desk-scale configs.
    """
    cfg.validate()
    model = init_model(cfg.model_config(seed))
    rng = make_rng(seed + 1)
    t_emb = rng.normal(size=(cfg.T, cfg.C))
    visual = None
    if cfg.paradigm != "base":
        visual = VisualContext(rng.normal(size=(cfg.v_total, cfg.C)), source_tag="synthetic")
    with count_macs() as counter:
        forward(model, t_emb, visual)
    return counter.flops


# ---------------------------------------------------------------------------
# Reference configurations and target-ratio checks

@dataclass(frozen=True)
class FlopsRatioCase:
    """One modulation-vs-prefix FLOPs comparison at a reference scale, with
    the token-count assumptions this cost model adopts for it.

    target_ratio is the reduction factor the comparison is expected to land
    near; the token counts are free parameters of the comparison, fixed here
    to the standard encoder geometries (576 tokens per 336px image, 729 per
    384px image, 5 tiles in the high-resolution modes) and to short VQA-style
    prompts for the 336px pairs versus longer instruction-style prompts for
    the 384px pair.
    """

    name: str
    L: int
    C: int
    h: int
    d_ff: int
    v_total: int
    text_tokens: int
    target_ratio: float


FLOPS_RATIO_CASES = (
    FlopsRatioCase("vicuna7b-336px-single", 32, 4096, 32, 11008, 576, 16, 14.0),
    FlopsRatioCase("vicuna7b-336px-5tile", 32, 4096, 32, 11008, 5 * 576, 16, 19.4),
    FlopsRatioCase("qwen2-7b-384px-5tile", 28, 3584, 28, 18944, 5 * 729, 128, 16.8),
)

# Video sweep reference: Qwen2-7B-scale stack, 384px frames pooled 27x27 -> 14x14.
VIDEO_SWEEP_BASE = CostConfig(
    L=28, C=3584, h=28, d_ff=18944, T=128, V=196, k=1, frequency=0.25, bytes_per_elem=2
)


def flops_reduction_ratio(case: FlopsRatioCase) -> float:
    """Prefill FLOPs of the in-context baseline over the modulated stack."""
    common = dict(L=case.L, C=case.C, h=case.h, d_ff=case.d_ff, T=case.text_tokens, V=case.v_total, k=1,
                  frequency=0.25)
    fmi = cost_paradigm(CostConfig(paradigm="fmi", cond_kind="attn", **common))
    return cost_paradigm(CostConfig(paradigm="incontext", **common)).total_flops / fmi.total_flops


# ---------------------------------------------------------------------------
# CSV export

CSV_COLUMNS = (
    "paradigm", "cond_kind", "k", "T", "V", "v_total", "seq_len",
    "flops_projections", "flops_self_attention", "flops_ffn",
    "flops_conditioner", "flops_connector", "flops_inserted_crossattn",
    "flops_total", "decode_flops_per_token",
    "kv_cache_bytes", "peak_activation_bytes", "weight_bytes", "memory_total_bytes",
)


def report_row(report: CostReport) -> dict[str, str]:
    """One CSV row: flops_<key> from the breakdown, flops_total, and the
    CostReport field or property of every other column."""
    flops = {f"flops_{key}": value for key, value in report.breakdown.items()}
    flops["flops_total"] = report.total_flops
    return {name: str(flops[name] if name in flops else getattr(report, name)) for name in CSV_COLUMNS}


def write_cost_csv(path: str | Path, reports: list[CostReport]) -> None:
    """Schema-stable export: fixed header, caller-supplied row order."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for report in reports:
            writer.writerow(report_row(report))
