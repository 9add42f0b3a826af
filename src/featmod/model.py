"""Causal transformer stack with three selectable vision-injection paradigms.

* ``fmi``       - selected blocks recompute a conditioning vector from their
                  incoming hidden states and the visual tokens, project it to
                  affine deltas, and apply them at the block's two
                  normalization slots. Sequence length stays T everywhere.
* ``incontext`` - visual tokens pass through a linear connector and are
                  prepended to the text sequence; unmodified blocks process
                  the combined V+T sequence under one causal mask.
* ``crossattn`` - selected blocks are preceded by an inserted interaction
                  module (cross-attention from text to visual tokens plus a
                  small FFN, both residual). Output projections of the insert
                  are zero at construction so a fresh model reproduces the
                  base stack, mirroring the zero-initialized delta projection.
* ``base``      - the text-only stack.

``select_layers`` picks the blocks that receive vision, and ``init_model``
attaches the paradigm's extras to those blocks only: a ``Modulation`` (the
conditioner with its delta projection) for fmi, an ``InsertParams`` for
crossattn. The extras are the one record of where vision enters, and
``block_forward`` is the one place that runs them: it runs a block's insert
when it has one and modulates a block when it has a ``Modulation``.

Self-attention, the attn conditioner and the insert's cross-attention all
score through ``tensors.attend``, so every attention in the stack runs the
same tiled head-group loop. The block's row-wise products (the attention
projections, the FFN and the incontext connector) run through
``tensors.rowwise``, so at one BLAS thread a sequence of 128 rows or more,
the V+T sequence of incontext or 128 text tokens, splits them into row
blocks on the tensors thread pool.

Weight draws are keyed by (seed, block index, component) so the base weights
of every paradigm built from one seed are bit-identical; paradigm extras
never shift the base stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .conditioning import (
    COND_KINDS,
    AttnCondParams,
    ConvCondParams,
    MlpCondParams,
    VisualContext,
    apply_conditioner,
    cond_attn,
    default_heads,
    param_arrays,
)
from .configfile import read_kv, write_kv
from .norm import DeltaProjection, LNParams, _modulate, layer_norm, project_deltas, viln_apply
from .tensors import (
    ConfigError,
    ShapeError,
    attend,
    check_finite,
    checks_at_boundaries,
    gelu,
    matmul,
    merge_heads,
    parse_number,
    rowwise,
    sinusoid_positions,
    split_heads,
    save_tensors,
    load_tensors,
)

PARADIGMS = ("fmi", "incontext", "crossattn", "base")
LOCATIONS = ("shallow", "middle", "deep", "uniform")

_WEIGHT_STD = 0.02


@dataclass
class ModelConfig:
    """Architecture, vision-injection plan, conditioner shape and seed.

    Every modulated block applies both delta pairs at both normalization
    slots, and every slot is the mean-subtracted layer norm.

    cond_visual_tokens is required only for the mlp conditioner, whose
    token-mixing width is fixed to V+1 at construction.
    """

    L: int = 6
    C: int = 64
    h: int = 8
    d_ff: int = 256
    paradigm: str = "fmi"
    cond_kind: str = "attn"
    frequency: float = 0.25
    location: str = "uniform"
    seed: int = 0
    cond_kernel: int = 3
    cond_token_exp: int = 4
    cond_channel_exp: int = 4
    cond_visual_tokens: int | None = None

    def validate(self) -> None:
        if self.L < 1 or self.C < 1 or self.h < 1 or self.d_ff < 1:
            raise ConfigError("L, C, h, d_ff must all be >= 1")
        if self.C % self.h != 0:
            raise ConfigError(f"heads {self.h} must divide hidden size {self.C}")
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"unknown paradigm {self.paradigm!r}")
        if self.cond_kind not in COND_KINDS:
            raise ConfigError(f"unknown conditioner kind {self.cond_kind!r}")
        if self.location not in LOCATIONS:
            raise ConfigError(f"unknown location {self.location!r}")
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("cond_kernel", "cond_token_exp", "cond_channel_exp", "cond_visual_tokens"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.paradigm in ("fmi", "crossattn"):
            select_layers(self.L, self.frequency, self.location)
        if self.paradigm == "fmi" and self.cond_kind == "mlp" and self.cond_visual_tokens is None:
            raise ConfigError("mlp conditioner requires cond_visual_tokens")
        if self.paradigm == "fmi" and self.cond_kind == "conv" and self.cond_kernel % 2 == 0:
            raise ConfigError(f"cond_kernel must be odd, got {self.cond_kernel}")
        if self.paradigm == "crossattn" or (self.paradigm == "fmi" and self.cond_kind == "attn"):
            if self.C % default_heads(self.C) != 0:
                raise ConfigError(f"attention heads {default_heads(self.C)} must divide hidden size {self.C}")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def select_layers(layers: int, frequency: float, location: str) -> tuple[int, ...]:
    """Pick round(frequency * layers) sorted block indices per the location strategy.

    shallow: the first k. deep: the last k. middle: a centered contiguous
    run starting at floor((L - k) / 2). uniform: round(j * L / k), half up,
    which is j * (L / k) when k divides L. As 1 <= k <= L, the k picks are
    distinct: uniform positions lie at least 1 apart before rounding.
    """
    if not 0.0 < frequency <= 1.0:
        raise ConfigError(f"frequency {frequency} outside (0, 1]")
    k = round_half_up(frequency * layers)
    if k < 1:
        raise ConfigError(f"frequency {frequency} selects no layers out of {layers}")
    if location == "shallow":
        picked = list(range(k))
    elif location == "deep":
        picked = list(range(layers - k, layers))
    elif location == "middle":
        start = (layers - k) // 2
        picked = list(range(start, start + k))
    elif location == "uniform":
        picked = [round_half_up(j * layers / k) for j in range(k)]
    else:
        raise ConfigError(f"unknown location {location!r}")
    return tuple(picked)


@dataclass
class InsertParams:
    """Inserted interaction module: cross-attention plus a small FFN."""

    attn: AttnCondParams
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class Modulation:
    """A modulated block's conditioner and the projection of its output to affine deltas."""

    cond: AttnCondParams | ConvCondParams | MlpCondParams
    proj: DeltaProjection


@dataclass
class BlockParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1: LNParams
    ln2: LNParams
    modulation: Modulation | None = None
    insert: InsertParams | None = None


@dataclass
class Model:
    cfg: ModelConfig
    blocks: list[BlockParams]
    connector_w: np.ndarray | None = None
    connector_b: np.ndarray | None = None


@dataclass
class ForwardCapture:
    """Per-layer observations collected during one forward pass.

    hidden holds a copy of the hidden states after every block. modulation
    maps a modulated layer index to its two (plain normalization output,
    modulated output) pairs, pre-attention slot first.
    """

    hidden: list[np.ndarray] = field(default_factory=list)
    modulation: dict[int, list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=dict)


def _component_rng(seed: int, block: int, component: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, block, component)))
    )


def _init_cond_params(cfg: ModelConfig, rng: np.random.Generator):
    if cfg.cond_kind == "attn":
        return AttnCondParams.init(rng, cfg.C, std=_WEIGHT_STD)
    if cfg.cond_kind == "conv":
        return ConvCondParams.init(rng, cfg.C, kernel=cfg.cond_kernel, std=_WEIGHT_STD)
    return MlpCondParams.init(
        rng,
        cfg.C,
        cfg.cond_visual_tokens,
        token_exp=cfg.cond_token_exp,
        channel_exp=cfg.cond_channel_exp,
        std=_WEIGHT_STD,
    )


def init_model(cfg: ModelConfig) -> Model:
    """Build a model from its config; all draws derive from cfg.seed."""
    cfg.validate()
    selected = select_layers(cfg.L, cfg.frequency, cfg.location) if cfg.paradigm in ("fmi", "crossattn") else ()
    c, d_ff = cfg.C, cfg.d_ff
    blocks = []
    for l in range(cfg.L):
        rng = _component_rng(cfg.seed, l, 0)
        block = BlockParams(
            wq=rng.normal(scale=_WEIGHT_STD, size=(c, c)),
            wk=rng.normal(scale=_WEIGHT_STD, size=(c, c)),
            wv=rng.normal(scale=_WEIGHT_STD, size=(c, c)),
            wo=rng.normal(scale=_WEIGHT_STD, size=(c, c)),
            w1=rng.normal(scale=_WEIGHT_STD, size=(c, d_ff)),
            b1=np.zeros(d_ff),
            w2=rng.normal(scale=_WEIGHT_STD, size=(d_ff, c)),
            b2=np.zeros(c),
            ln1=LNParams.identity(c),
            ln2=LNParams.identity(c),
        )
        if cfg.paradigm == "fmi" and l in selected:
            cond = _init_cond_params(cfg, _component_rng(cfg.seed, l, 1))
            block.modulation = Modulation(cond, DeltaProjection.zero_init(c, c))
        if cfg.paradigm == "crossattn" and l in selected:
            extra = _component_rng(cfg.seed, l, 2)
            attn = AttnCondParams.init(extra, c, std=_WEIGHT_STD)
            attn.wo = np.zeros((c, c))
            block.insert = InsertParams(
                attn=attn,
                w1=extra.normal(scale=_WEIGHT_STD, size=(c, d_ff)),
                b1=np.zeros(d_ff),
                w2=np.zeros((d_ff, c)),
                b2=np.zeros(c),
            )
        blocks.append(block)
    connector_w = connector_b = None
    if cfg.paradigm == "incontext":
        rng = _component_rng(cfg.seed, 0, 3)
        connector_w = rng.normal(scale=_WEIGHT_STD, size=(c, c))
        connector_b = np.zeros(c)
    return Model(cfg=cfg, blocks=blocks, connector_w=connector_w, connector_b=connector_b)


def randomize_modulation(model: Model, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Replace the zero delta projections with random ones (diagnostics use)."""
    for block in model.blocks:
        if block.modulation is not None:
            c_cond, width = block.modulation.proj.w.shape
            block.modulation = Modulation(block.modulation.cond, DeltaProjection(
                rng.normal(scale=scale, size=(c_cond, width)),
                rng.normal(scale=scale, size=width),
            ))


def randomize_insert(model: Model, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Replace the zero insert output projections with random ones."""
    for block in model.blocks:
        if block.insert is not None:
            c = block.insert.attn.wo.shape[0]
            d_ff = block.insert.w2.shape[0]
            block.insert.attn.wo = rng.normal(scale=scale, size=(c, c))
            block.insert.w2 = rng.normal(scale=scale, size=(d_ff, c))


# ---------------------------------------------------------------------------
# Forward passes

def _causal_self_attention(h_in: np.ndarray, p: BlockParams, heads: int) -> np.ndarray:
    """Causal multi-head self-attention: tensors.attend between the projections."""
    q = split_heads(rowwise(matmul, h_in, p.wq), heads)
    k = split_heads(rowwise(matmul, h_in, p.wk), heads)
    v = split_heads(rowwise(matmul, h_in, p.wv), heads)
    return rowwise(matmul, merge_heads(attend(q, k, v, causal=True)), p.wo)


def _ffn(x: np.ndarray, p: BlockParams | InsertParams) -> np.ndarray:
    """GELU(x @ w1 + b1) @ w2 + b2, the whole of it per row block (tensors.rowwise)."""
    return rowwise(_ffn_rows, x, p.w1, p.b1, p.w2, p.b2)


def _ffn_rows(
    x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    z = matmul(x, w1)
    z += b1
    return np.add(matmul(gelu(z, out=z), w2), b2, out=out)


def _slot_norm(
    x: np.ndarray,
    ln: LNParams,
    deltas: tuple[np.ndarray, np.ndarray] | None,
    pairs: list[tuple[np.ndarray, np.ndarray]] | None,
) -> np.ndarray:
    """One normalization slot: plain without deltas, modulated with them.
    With pairs, x is normalized once for both the plain and the modulated output."""
    if deltas is None:
        return layer_norm(x, ln)[0]
    if pairs is None:
        return viln_apply(x, deltas, ln)
    plain, xhat = layer_norm(x, ln)
    out = _modulate(xhat, deltas, ln)
    pairs.append((plain, out))
    return out


def block_forward(
    h: np.ndarray,
    p: BlockParams,
    cfg: ModelConfig,
    visual: VisualContext | None = None,
    pairs: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Pre-norm block with its vision extras: h + Att(N1(h)), then h + FFN(N2(h)).

    A block with an insert (crossattn) first runs it over visual. A block
    with a Modulation (fmi) conditions on its incoming hidden states and
    visual, projects per-token affine deltas and applies them at both
    normalization slots. A block with neither ignores visual. pairs, when
    given, receives the (plain, modulated) output of every modulated slot.
    """
    if visual is None and (p.insert is not None or p.modulation is not None):
        raise ConfigError("a block with an insert or a Modulation requires visual input")
    if p.insert is not None:
        h = _insert_forward(h, visual, p.insert)
    slot1 = slot2 = None
    if p.modulation is not None:
        cond = apply_conditioner(cfg.cond_kind, h, visual.v, p.modulation.cond)
        slot1, slot2 = project_deltas(cond, p.modulation.proj)
    h = h + _causal_self_attention(_slot_norm(h, p.ln1, slot1, pairs), p, cfg.h)
    return h + _ffn(_slot_norm(h, p.ln2, slot2, pairs), p)


def _insert_forward(h: np.ndarray, visual: VisualContext, ins: InsertParams) -> np.ndarray:
    h = h + cond_attn(h, visual.v, ins.attn)
    return h + _ffn(h, ins)


def forward(
    model: Model,
    t_emb: np.ndarray,
    visual: VisualContext | None = None,
    capture: ForwardCapture | None = None,
) -> np.ndarray:
    """Run the block stack over the text embeddings, one loop for every paradigm.

    incontext prefixes the connected visual tokens (output length V + T; no
    visual input, no prefix), and positions are added after the prefix.
    Every block gets visual and runs its own extras (see block_forward).
    capture, when given, records every block's output and the slot pairs of
    every modulated block.

    The pass runs inside tensors.checks_at_boundaries, so its ops skip their
    own finite checks. NumericError is raised instead at the boundaries a
    NaN or Inf must cross: each head group's raw logits in tensors.attend
    (self, conditioner and insert), each block's deltas as project_deltas
    returns them, and each block's output.
    """
    cfg = model.cfg
    if visual is None and cfg.paradigm in ("fmi", "crossattn"):
        raise ConfigError(f"paradigm {cfg.paradigm!r} requires visual input")
    if t_emb.ndim != 2 or t_emb.shape[1] != cfg.C:
        raise ShapeError(f"text embeddings must be (T, C={cfg.C}), got {t_emb.shape}")
    with checks_at_boundaries():
        h = t_emb
        if cfg.paradigm == "incontext" and visual is not None:
            prefix = rowwise(matmul, visual.v, model.connector_w) + model.connector_b
            h = np.concatenate([prefix, t_emb], axis=0)
        h = h + sinusoid_positions(np.arange(h.shape[0]), h.shape[1]).astype(h.dtype)
        for l, p in enumerate(model.blocks):
            pairs = None if capture is None else []
            h = check_finite(f"block {l}", block_forward(h, p, cfg, visual, pairs))
            if capture is not None:
                capture.hidden.append(h.copy())
                if pairs:
                    capture.modulation[l] = pairs
    return h


def base_twin(model: Model) -> Model:
    """The text-only stack over this model's own base weights.

    The twin's blocks drop their modulations and inserts but share every
    base array with this model, uncopied: treat the twin as read-only, since
    writing to a weight of either model changes both.
    """
    blocks = [replace(p, modulation=None, insert=None) for p in model.blocks]
    return Model(cfg=replace(model.cfg, paradigm="base"), blocks=blocks)


def cast_model(model: Model, dtype) -> Model:
    """Copy of the model with every array cast to dtype (float32 demos)."""

    def cast(obj):
        if isinstance(obj, np.ndarray):
            return obj.astype(dtype)
        if isinstance(obj, list):
            return [cast(item) for item in obj]
        if is_dataclass(obj):
            return replace(obj, **{f.name: cast(getattr(obj, f.name)) for f in fields(obj)})
        return obj

    return cast(model)


# ---------------------------------------------------------------------------
# Serialization

def config_to_kv(cfg: ModelConfig) -> dict[str, str]:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = "none" if value is None else str(value)
    return out


def config_from_kv(kv: dict[str, str]) -> ModelConfig:
    known = {f.name: f for f in fields(ModelConfig)}
    unknown = set(kv) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, raw in kv.items():
        f = known[name]
        if raw == "none" and f.type == "int | None":
            kwargs[name] = None
        elif f.type in ("int", "int | None", "float"):
            kind = float if f.type == "float" else int
            try:
                kwargs[name] = parse_number(raw, kind)
            except ValueError:
                raise ConfigError(f"config key {name} expects {kind.__name__}, got {raw!r}") from None
        else:
            kwargs[name] = raw
    cfg = ModelConfig(**kwargs)
    cfg.validate()
    return cfg


def model_tensors(model: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of every parameter, in a stable order."""
    named: dict[str, np.ndarray] = {}
    for l, p in enumerate(model.blocks):
        prefix = f"block{l}"
        named[f"{prefix}.ln1.alpha"] = p.ln1.alpha
        named[f"{prefix}.ln1.beta"] = p.ln1.beta
        named[f"{prefix}.ln2.alpha"] = p.ln2.alpha
        named[f"{prefix}.ln2.beta"] = p.ln2.beta
        named[f"{prefix}.attn.wq"] = p.wq
        named[f"{prefix}.attn.wk"] = p.wk
        named[f"{prefix}.attn.wv"] = p.wv
        named[f"{prefix}.attn.wo"] = p.wo
        named[f"{prefix}.ffn.w1"] = p.w1
        named[f"{prefix}.ffn.b1"] = p.b1
        named[f"{prefix}.ffn.w2"] = p.w2
        named[f"{prefix}.ffn.b2"] = p.b2
        if p.modulation is not None:
            named[f"{prefix}.delta_proj.W"] = p.modulation.proj.w
            named[f"{prefix}.delta_proj.b"] = p.modulation.proj.b
            for field_name, arr in param_arrays(p.modulation.cond):
                named[f"{prefix}.cond.{model.cfg.cond_kind}.{field_name}"] = arr
        if p.insert is not None:
            for field_name, arr in param_arrays(p.insert.attn):
                named[f"{prefix}.insert.attn.{field_name}"] = arr
            named[f"{prefix}.insert.ffn.w1"] = p.insert.w1
            named[f"{prefix}.insert.ffn.b1"] = p.insert.b1
            named[f"{prefix}.insert.ffn.w2"] = p.insert.w2
            named[f"{prefix}.insert.ffn.b2"] = p.insert.b2
    if model.connector_w is not None:
        named["connector.w"] = model.connector_w
        named["connector.b"] = model.connector_b
    return named


def save_model(model: Model, descriptor_path: str | Path, weights_path: str | Path) -> None:
    write_kv(descriptor_path, config_to_kv(model.cfg))
    save_tensors(weights_path, model_tensors(model))


def load_model(descriptor_path: str | Path, weights_path: str | Path) -> Model:
    cfg = config_from_kv(read_kv(descriptor_path))
    model = init_model(cfg)
    stored = load_tensors(weights_path)
    expected = model_tensors(model)
    if set(stored) != set(expected):
        missing = set(expected) - set(stored)
        extra = set(stored) - set(expected)
        raise ConfigError(f"weight file mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, arr in expected.items():
        if stored[name].shape != arr.shape:
            raise ShapeError(f"tensor {name} has shape {stored[name].shape}, expected {arr.shape}")
        arr[...] = stored[name]
    return model
