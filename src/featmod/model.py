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

Weight draws are keyed by (seed, block index, component) so the base weights
of every paradigm built from one seed are bit-identical; paradigm extras
never shift the base stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .conditioning import (
    AttnCondParams,
    ConvCondParams,
    MlpCondParams,
    VisualContext,
    apply_conditioner,
    cond_attn,
    default_heads,
)
from .configfile import read_kv, write_kv
from .norm import DeltaProjection, LNParams, layer_norm, project_deltas, viln_apply
from .tensors import (
    ConfigError,
    ShapeError,
    gelu,
    matmul,
    merge_heads,
    sinusoid_positions,
    softmax_lastdim,
    split_heads,
    save_tensors,
    load_tensors,
)

PARADIGMS = ("fmi", "incontext", "crossattn", "base")
LOCATIONS = ("shallow", "middle", "deep", "uniform")

_WEIGHT_STD = 0.02


@dataclass
class ModelConfig:
    """Architecture plus every ablation toggle.

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
    modulate_attn: bool = True
    modulate_ffn: bool = True
    use_delta_alpha: bool = True
    use_delta_beta: bool = True
    norm_mode: str = "ln"
    eps: float = 1e-5
    seed: int = 0
    cond_heads: int | None = None
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
        if self.cond_kind not in ("mlp", "conv", "attn"):
            raise ConfigError(f"unknown conditioner kind {self.cond_kind!r}")
        if self.location not in LOCATIONS:
            raise ConfigError(f"unknown location {self.location!r}")
        if self.norm_mode not in ("ln", "rms"):
            raise ConfigError(f"unknown norm mode {self.norm_mode!r}")
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.paradigm in ("fmi", "crossattn"):
            if not 0.0 < self.frequency <= 1.0:
                raise ConfigError(f"frequency {self.frequency} outside (0, 1]")
            if round_half_up(self.frequency * self.L) < 1:
                raise ConfigError(
                    f"frequency {self.frequency} selects no layers out of {self.L}"
                )
        if self.paradigm == "fmi" and not (self.modulate_attn or self.modulate_ffn):
            raise ConfigError("fmi needs at least one of modulate_attn / modulate_ffn")
        if self.paradigm == "fmi" and self.cond_kind == "mlp" and self.cond_visual_tokens is None:
            raise ConfigError("mlp conditioner requires cond_visual_tokens")


@dataclass
class LayerPlan:
    """Sorted indices of the blocks that receive vision injection."""

    modulated: tuple[int, ...]

    def __contains__(self, layer: int) -> bool:
        return layer in self.modulated


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def select_layers(layers: int, frequency: float, location: str) -> LayerPlan:
    """Pick round(frequency * layers) block indices per the location strategy.

    shallow: the first k. deep: the last k. middle: a centered contiguous
    run starting at floor((L - k) / 2). uniform: j * floor(L / k) when k
    divides L, otherwise round(j * L / k).
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
        if layers % k == 0:
            step = layers // k
            picked = [j * step for j in range(k)]
        else:
            picked = sorted({round_half_up(j * layers / k) for j in range(k)})
    else:
        raise ConfigError(f"unknown location {location!r}")
    if len(picked) != k or any(b <= a for a, b in zip(picked, picked[1:])):
        raise ConfigError(f"layer selection degenerated: {picked}")
    return LayerPlan(tuple(picked))


@dataclass
class InsertParams:
    """Inserted interaction module: cross-attention plus a small FFN."""

    attn: AttnCondParams
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


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
    delta_proj: DeltaProjection | None = None
    cond_params: object | None = None
    insert: InsertParams | None = None


@dataclass
class Model:
    cfg: ModelConfig
    plan: LayerPlan
    blocks: list[BlockParams]
    connector_w: np.ndarray | None = None
    connector_b: np.ndarray | None = None


@dataclass
class ForwardCapture:
    """Per-layer observations collected during one forward pass.

    hidden holds a copy of the hidden states after every block. modulation
    maps a modulated layer index to the list of (plain normalization output,
    modulated output) pairs actually applied there, one per active slot.
    """

    hidden: list[np.ndarray] = field(default_factory=list)
    modulation: dict[int, list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=dict)


def _component_rng(seed: int, block: int, component: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, block, component)))
    )


def _init_cond_params(cfg: ModelConfig, rng: np.random.Generator):
    if cfg.cond_kind == "attn":
        heads = cfg.cond_heads if cfg.cond_heads is not None else default_heads(cfg.C)
        return AttnCondParams.init(rng, cfg.C, heads=heads, std=_WEIGHT_STD)
    if cfg.cond_kind == "conv":
        return ConvCondParams.init(rng, cfg.C, kernel=cfg.cond_kernel, std=_WEIGHT_STD)
    if cfg.cond_kind == "mlp":
        return MlpCondParams.init(
            rng,
            cfg.C,
            cfg.cond_visual_tokens,
            token_exp=cfg.cond_token_exp,
            channel_exp=cfg.cond_channel_exp,
            std=_WEIGHT_STD,
        )
    raise ConfigError(f"unknown conditioner kind {cfg.cond_kind!r}")


def make_plan(cfg: ModelConfig) -> LayerPlan:
    if cfg.paradigm in ("fmi", "crossattn"):
        return select_layers(cfg.L, cfg.frequency, cfg.location)
    return LayerPlan(())


def init_model(cfg: ModelConfig) -> Model:
    """Build a model from its config; all draws derive from cfg.seed."""
    cfg.validate()
    plan = make_plan(cfg)
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
            ln1=LNParams.identity(c, cfg.eps),
            ln2=LNParams.identity(c, cfg.eps),
        )
        if cfg.paradigm == "fmi" and l in plan:
            extra = _component_rng(cfg.seed, l, 1)
            block.delta_proj = DeltaProjection.zero_init(c, c)
            block.cond_params = _init_cond_params(cfg, extra)
        if cfg.paradigm == "crossattn" and l in plan:
            extra = _component_rng(cfg.seed, l, 2)
            heads = cfg.cond_heads if cfg.cond_heads is not None else default_heads(c)
            attn = AttnCondParams.init(extra, c, heads=heads, std=_WEIGHT_STD)
            attn.w_o = np.zeros((c, c))
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
    return Model(cfg=cfg, plan=plan, blocks=blocks, connector_w=connector_w, connector_b=connector_b)


def randomize_modulation(model: Model, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Replace the zero delta projections with random ones (diagnostics use)."""
    for block in model.blocks:
        if block.delta_proj is not None:
            c_cond, width = block.delta_proj.w.shape
            block.delta_proj = DeltaProjection(
                rng.normal(scale=scale, size=(c_cond, width)),
                rng.normal(scale=scale, size=width),
            )


def randomize_insert(model: Model, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Replace the zero insert output projections with random ones."""
    for block in model.blocks:
        if block.insert is not None:
            c = block.insert.attn.w_o.shape[0]
            d_ff = block.insert.w2.shape[0]
            block.insert.attn.w_o = rng.normal(scale=scale, size=(c, c))
            block.insert.w2 = rng.normal(scale=scale, size=(d_ff, c))


# ---------------------------------------------------------------------------
# Forward passes

def _causal_self_attention(h_in: np.ndarray, p: BlockParams, heads: int) -> np.ndarray:
    s, c = h_in.shape
    q = split_heads(matmul(h_in, p.wq), heads)
    k = split_heads(matmul(h_in, p.wk), heads)
    v = split_heads(matmul(h_in, p.wv), heads)
    mask = np.triu(np.full((s, s), -np.inf, dtype=h_in.dtype), k=1)
    # (heads, s, s) logits scaled and masked in place: no second logits-sized array
    logits = matmul(q, k.swapaxes(-1, -2))
    logits *= float(1.0 / np.sqrt(c // heads))
    logits += mask
    ctx = matmul(softmax_lastdim(logits), v)
    return matmul(merge_heads(ctx), p.wo)


def _ffn(x: np.ndarray, p: BlockParams) -> np.ndarray:
    return matmul(gelu(matmul(x, p.w1) + p.b1), p.w2) + p.b2


def block_forward_base(h: np.ndarray, p: BlockParams, cfg: ModelConfig) -> np.ndarray:
    """Pre-norm block: h + Att(LN1(h)), then h + FFN(LN2(h))."""
    normed1, _ = layer_norm(h, p.ln1, cfg.norm_mode)
    h = h + _causal_self_attention(normed1, p, cfg.h)
    normed2, _ = layer_norm(h, p.ln2, cfg.norm_mode)
    return h + _ffn(normed2, p)


def _masked_deltas(deltas, cfg: ModelConfig):
    d_a1, d_b1 = deltas.slot(1)
    d_a2, d_b2 = deltas.slot(2)
    if not cfg.use_delta_alpha:
        d_a1 = np.zeros_like(d_a1)
        d_a2 = np.zeros_like(d_a2)
    if not cfg.use_delta_beta:
        d_b1 = np.zeros_like(d_b1)
        d_b2 = np.zeros_like(d_b2)
    return (d_a1, d_b1), (d_a2, d_b2)


def block_forward_fmi(
    h: np.ndarray,
    visual: VisualContext,
    p: BlockParams,
    cfg: ModelConfig,
    capture: ForwardCapture | None = None,
    layer: int | None = None,
) -> np.ndarray:
    """Modulated block: conditions on the incoming hidden states and applies
    the projected deltas at the normalization slots enabled by the config."""
    if p.delta_proj is None or p.cond_params is None:
        raise ConfigError("block is in the layer plan but has no conditioner attached")
    cond = apply_conditioner(cfg.cond_kind, h, visual, p.cond_params)
    slot1, slot2 = _masked_deltas(project_deltas(cond, p.delta_proj), cfg)

    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    if cfg.modulate_attn:
        normed1 = viln_apply(h, slot1, p.ln1, cfg.norm_mode)
        if capture is not None:
            pairs.append((layer_norm(h, p.ln1, cfg.norm_mode)[0], normed1))
    else:
        normed1, _ = layer_norm(h, p.ln1, cfg.norm_mode)
    h = h + _causal_self_attention(normed1, p, cfg.h)

    if cfg.modulate_ffn:
        normed2 = viln_apply(h, slot2, p.ln2, cfg.norm_mode)
        if capture is not None:
            pairs.append((layer_norm(h, p.ln2, cfg.norm_mode)[0], normed2))
    else:
        normed2, _ = layer_norm(h, p.ln2, cfg.norm_mode)
    out = h + _ffn(normed2, p)

    if capture is not None and layer is not None:
        capture.modulation[layer] = pairs
    return out


def _insert_forward(h: np.ndarray, visual: VisualContext, ins: InsertParams) -> np.ndarray:
    h = h + cond_attn(h, visual, ins.attn)
    return h + (matmul(gelu(matmul(h, ins.w1) + ins.b1), ins.w2) + ins.b2)


def _add_positions(x: np.ndarray) -> np.ndarray:
    return x + sinusoid_positions(np.arange(x.shape[0]), x.shape[1]).astype(x.dtype)


def forward_base(model: Model, t_emb: np.ndarray, capture: ForwardCapture | None = None) -> np.ndarray:
    h = _add_positions(t_emb)
    for p in model.blocks:
        h = block_forward_base(h, p, model.cfg)
        if capture is not None:
            capture.hidden.append(h.copy())
    return h


def forward_fmi(
    model: Model,
    t_emb: np.ndarray,
    visual: VisualContext,
    capture: ForwardCapture | None = None,
) -> np.ndarray:
    """Run all blocks at sequence length T; planned blocks modulate."""
    if model.cfg.paradigm != "fmi":
        raise ConfigError(f"model paradigm is {model.cfg.paradigm!r}, expected fmi")
    h = _add_positions(t_emb)
    for l, p in enumerate(model.blocks):
        if l in model.plan:
            h = block_forward_fmi(h, visual, p, model.cfg, capture, l)
        else:
            h = block_forward_base(h, p, model.cfg)
        if capture is not None:
            capture.hidden.append(h.copy())
    return h


def forward_incontext(
    model: Model,
    t_emb: np.ndarray,
    visual: VisualContext | None,
    capture: ForwardCapture | None = None,
) -> np.ndarray:
    """Prefix the connected visual tokens; output keeps length V + T.

    With no visual input the prefix is empty and the pass degenerates to the
    base stack.
    """
    if model.cfg.paradigm != "incontext":
        raise ConfigError(f"model paradigm is {model.cfg.paradigm!r}, expected incontext")
    if visual is None:
        h = _add_positions(t_emb)
    else:
        prefix = matmul(visual.v, model.connector_w) + model.connector_b
        h = _add_positions(np.concatenate([prefix, t_emb], axis=0))
    for p in model.blocks:
        h = block_forward_base(h, p, model.cfg)
        if capture is not None:
            capture.hidden.append(h.copy())
    return h


def forward_crossattn(
    model: Model,
    t_emb: np.ndarray,
    visual: VisualContext,
    capture: ForwardCapture | None = None,
) -> np.ndarray:
    """Planned blocks are preceded by the inserted interaction module."""
    if model.cfg.paradigm != "crossattn":
        raise ConfigError(f"model paradigm is {model.cfg.paradigm!r}, expected crossattn")
    h = _add_positions(t_emb)
    for l, p in enumerate(model.blocks):
        if l in model.plan:
            if p.insert is None:
                raise ConfigError("block is in the layer plan but has no insert attached")
            h = _insert_forward(h, visual, p.insert)
        h = block_forward_base(h, p, model.cfg)
        if capture is not None:
            capture.hidden.append(h.copy())
    return h


def forward(
    model: Model,
    t_emb: np.ndarray,
    visual: VisualContext | None = None,
    capture: ForwardCapture | None = None,
) -> np.ndarray:
    paradigm = model.cfg.paradigm
    if paradigm == "base":
        return forward_base(model, t_emb, capture)
    if paradigm == "incontext":
        return forward_incontext(model, t_emb, visual, capture)
    if visual is None:
        raise ConfigError(f"paradigm {paradigm!r} requires visual input")
    if paradigm == "fmi":
        return forward_fmi(model, t_emb, visual, capture)
    if paradigm == "crossattn":
        return forward_crossattn(model, t_emb, visual, capture)
    raise ConfigError(f"unknown paradigm {paradigm!r}")


def base_twin(model: Model) -> Model:
    """The text-only stack sharing this model's seed and base weights."""
    cfg = replace(model.cfg, paradigm="base")
    return init_model(cfg)


def cast_model(model: Model, dtype) -> Model:
    """Copy of the model with every array cast to dtype (float32 demos)."""

    def cast(obj):
        if isinstance(obj, np.ndarray):
            return obj.astype(dtype)
        if isinstance(obj, LNParams):
            return LNParams(cast(obj.alpha), cast(obj.beta), obj.eps)
        if isinstance(obj, DeltaProjection):
            return DeltaProjection(cast(obj.w), cast(obj.b))
        if isinstance(obj, (AttnCondParams, ConvCondParams, MlpCondParams, InsertParams, BlockParams)):
            kwargs = {f.name: cast(getattr(obj, f.name)) for f in fields(obj)}
            return type(obj)(**kwargs)
        return obj

    return Model(
        cfg=model.cfg,
        plan=model.plan,
        blocks=[cast(b) for b in model.blocks],
        connector_w=cast(model.connector_w),
        connector_b=cast(model.connector_b),
    )


# ---------------------------------------------------------------------------
# Serialization

_BOOL_STRINGS = {"true": True, "false": False}


def config_to_kv(cfg: ModelConfig) -> dict[str, str]:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            out[f.name] = "none"
        elif isinstance(value, bool):
            out[f.name] = "true" if value else "false"
        else:
            out[f.name] = str(value)
    return out


def config_from_kv(kv: dict[str, str]) -> ModelConfig:
    known = {f.name: f for f in fields(ModelConfig)}
    unknown = set(kv) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, raw in kv.items():
        f = known[name]
        if raw == "none":
            kwargs[name] = None
        elif f.type in ("int", "int | None", "float"):
            convert = float if f.type == "float" else int
            try:
                kwargs[name] = convert(raw)
            except ValueError:
                raise ConfigError(f"config key {name} expects {convert.__name__}, got {raw!r}") from None
        elif f.type == "bool":
            if raw not in _BOOL_STRINGS:
                raise ConfigError(f"boolean key {name} must be true/false, got {raw!r}")
            kwargs[name] = _BOOL_STRINGS[raw]
        else:
            kwargs[name] = raw
    cfg = ModelConfig(**kwargs)
    cfg.validate()
    return cfg


def _cond_param_items(kind: str, params) -> list[tuple[str, np.ndarray]]:
    if kind == "attn":
        return [("wq", params.w_q), ("wk", params.w_k), ("wv", params.w_v), ("wo", params.w_o)]
    if kind == "conv":
        return [("depthwise", params.depthwise), ("pointwise", params.pointwise)]
    return [
        ("token_w1", params.token_w1), ("token_b1", params.token_b1),
        ("token_w2", params.token_w2), ("token_b2", params.token_b2),
        ("channel_w1", params.channel_w1), ("channel_b1", params.channel_b1),
        ("channel_w2", params.channel_w2), ("channel_b2", params.channel_b2),
    ]


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
        if p.delta_proj is not None:
            named[f"{prefix}.delta_proj.W"] = p.delta_proj.w
            named[f"{prefix}.delta_proj.b"] = p.delta_proj.b
            for field_name, arr in _cond_param_items(model.cfg.cond_kind, p.cond_params):
                named[f"{prefix}.cond.{model.cfg.cond_kind}.{field_name}"] = arr
        if p.insert is not None:
            for field_name, arr in _cond_param_items("attn", p.insert.attn):
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
