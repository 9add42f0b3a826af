"""Vision-conditioned feature modulation for transformer stacks.

The package centers on a modulated layer normalization whose affine
parameters receive per-token, vision-conditioned deltas, three
interchangeable conditioning modules that produce those deltas, two baseline
injection paradigms (visual prefix concatenation and inserted
cross-attention) for comparison, an analytic FLOPs/memory cost model
validated against the executable stack, and diagnostic probes over hidden
states.
"""

from .conditioning import (
    AttnCondParams,
    ConvCondParams,
    MlpCondParams,
    VisualContext,
    attn_oracle,
    cond_attn,
    cond_conv,
    cond_mlp,
    gradcheck_conditioner,
)
from .costs import CostConfig, CostReport, cost_paradigm, flops_cond, sweep_frames
from .diagnostics import DiagnosticTrace, cosine_distance, diagnose, feature_drift, modulation_influence
from .model import (
    Model,
    ModelConfig,
    base_twin,
    forward,
    init_model,
    load_model,
    save_model,
    select_layers,
)
from .norm import (
    DeltaProjection,
    LNParams,
    gradcheck_viln,
    layer_norm,
    project_deltas,
    viln_apply,
)
from .tensors import (
    ConfigError,
    MacCounter,
    NumericError,
    ShapeError,
    count_macs,
    depthwise_conv1d,
    load_tensors,
    make_rng,
    matmul,
    save_tensors,
    softmax_lastdim,
    swish,
)
from .vision import (
    FrameSet,
    ImageGrid,
    encode_stub,
    pool_adaptive_2x2,
    sample_frames,
    temporal_encode,
    tile_image,
)

__version__ = "0.1.0"
