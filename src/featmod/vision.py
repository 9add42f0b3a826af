"""Deterministic toy visual pipeline.

Stands in for a pretrained vision tower: images are padded to a patch grid,
flattened patch-wise and sent through a fixed seeded linear projection. On
top of that sit the scaling helpers: non-overlapping tiling for large images,
uniform frame sampling for video, per-frame 2x2 adaptive average pooling and
a shared sinusoidal temporal offset per frame.

No image decoding here; tests and the CLI build synthetic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import VisualContext
from .tensors import (
    ConfigError,
    ShapeError,
    make_rng,
    matmul,
    sinusoid_positions,
)


@dataclass
class ImageGrid:
    """Dense (H, W, channels) pixel block."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 3 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ShapeError(f"image must be (H>=1, W>=1, ch), got {self.data.shape}")

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class FrameSet:
    frames: list[ImageGrid]
    timestamps: list[int]

    def __post_init__(self) -> None:
        if len(self.frames) != len(self.timestamps):
            raise ShapeError("frames and timestamps must align")
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise ConfigError("timestamps must be strictly increasing")


def sample_frames(video_len: int, k: int) -> list[int]:
    """Uniformly spaced frame indices: round(j * (video_len - 1) / (k - 1)), half up,
    distinct as 2 <= k <= video_len puts the positions at least 1 apart."""
    if k < 1 or k > video_len:
        raise ConfigError(f"cannot pick {k} frames from a video of {video_len}")
    if k == 1:
        return [0]
    return [int(np.floor(j * (video_len - 1) / (k - 1) + 0.5)) for j in range(k)]


def _pad_to_multiple(data: np.ndarray, multiple: int) -> np.ndarray:
    h, w, ch = data.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return data
    # np.zeros checks the padded size first: np.pad rejects a pad past int64 with a TypeError
    padded = np.zeros((h + ph, w + pw, ch), dtype=data.dtype)
    padded[:h, :w] = data
    return padded


def tile_image(img: ImageGrid, tile: int) -> list[ImageGrid]:
    """Zero-pad right/bottom to tile multiples, split row-major into tiles."""
    if tile < 1:
        raise ConfigError(f"tile side must be >= 1, got {tile}")
    padded = _pad_to_multiple(img.data, tile)
    rows = padded.shape[0] // tile
    cols = padded.shape[1] // tile
    tiles = []
    for r in range(rows):
        for c in range(cols):
            tiles.append(ImageGrid(padded[r * tile:(r + 1) * tile, c * tile:(c + 1) * tile]))
    return tiles


def pool_adaptive_2x2(tokens: np.ndarray) -> np.ndarray:
    """Adaptive average pooling of a (g, g, C) grid to ceil(g/2) per side.

    Bin i covers rows floor(i*g/t) .. floor((i+1)*g/t)-1 with t the target
    side, so odd grids keep their trailing row/column.
    """
    if tokens.ndim != 3 or tokens.shape[0] != tokens.shape[1]:
        raise ShapeError(f"expected square (g, g, C) grid, got {tokens.shape}")
    g = tokens.shape[0]
    target = (g + 1) // 2
    if g % 2 == 0:
        return tokens.reshape(target, 2, target, 2, -1).mean(axis=(1, 3))
    starts = np.arange(target) * g // target
    sums = np.add.reduceat(np.add.reduceat(tokens, starts, axis=0), starts, axis=1)
    sizes = np.diff(starts, append=g)
    sums /= np.multiply.outer(sizes, sizes)[:, :, None]
    return sums


def temporal_encode(frame_tokens: list[np.ndarray]) -> np.ndarray:
    """Concatenate frames in time order, adding one shared sinusoidal offset
    per frame so every token of a frame shifts identically."""
    if not frame_tokens:
        raise ShapeError("need at least one frame")
    shapes = {f.shape for f in frame_tokens}
    if len(shapes) != 1:
        raise ShapeError(f"frames disagree on token shape: {shapes}")
    n, channels = frame_tokens[0].shape
    offsets = sinusoid_positions(np.arange(len(frame_tokens)), channels)
    return np.concatenate(
        [tokens + offsets[i] for i, tokens in enumerate(frame_tokens)], axis=0
    )


def make_patch_projection(
    seed: int, patch: int, channels_in: int, channels_out: int
) -> np.ndarray:
    """Fixed seeded projection from flattened patches to model space."""
    rng = make_rng(seed)
    dim = patch * patch * channels_in
    # the draw checks the size before anything converts dim, which may pass int64
    return rng.standard_normal((dim, channels_out)) * (1.0 / math.sqrt(dim))


def encode_stub(img: ImageGrid, patch: int, proj: np.ndarray) -> np.ndarray:
    """Patchify (pad to patch multiples), flatten, project. Returns (N, C)."""
    if patch < 1:
        raise ConfigError(f"patch side must be >= 1, got {patch}")
    padded = _pad_to_multiple(img.data, patch)
    gh = padded.shape[0] // patch
    gw = padded.shape[1] // patch
    dim = patch * patch * img.channels
    if proj.shape[0] != dim:
        raise ShapeError(f"projection expects {proj.shape[0]} inputs, patches give {dim}")
    flat = (
        padded.reshape(gh, patch, gw, patch, img.channels)
        .transpose(0, 2, 1, 3, 4)
        .reshape(gh * gw, dim)
    )
    return matmul(flat, proj)


def grid_side(image_px: int, patch: int) -> int:
    return -(-image_px // patch)


# ---------------------------------------------------------------------------
# Synthetic inputs and end-to-end helpers

def gradient_image(height: int, width: int, channels: int = 3) -> ImageGrid:
    y = np.linspace(0.0, 1.0, height).reshape(-1, 1, 1)
    x = np.linspace(0.0, 1.0, width).reshape(1, -1, 1)
    c = np.arange(1, channels + 1).reshape(1, 1, -1)
    return ImageGrid(y * x * c)


def image_tokens(
    img: ImageGrid, patch: int, proj: np.ndarray, tile: int | None = None
) -> np.ndarray:
    """Visual tokens for one image; tiles are encoded independently and
    concatenated in row-major tile order."""
    if tile is None:
        return encode_stub(img, patch, proj)
    parts = [encode_stub(t, patch, proj) for t in tile_image(img, tile)]
    return np.concatenate(parts, axis=0)


def video_tokens(frames: FrameSet, patch: int, proj: np.ndarray) -> np.ndarray:
    """Per-frame encode, 2x2 adaptive pool, temporal offsets, concatenation."""
    pooled = []
    for frame in frames.frames:
        tokens = encode_stub(frame, patch, proj)
        g = int(np.sqrt(tokens.shape[0]))
        if g * g != tokens.shape[0]:
            raise ShapeError(f"frame token count {tokens.shape[0]} is not a square grid")
        grid = pool_adaptive_2x2(tokens.reshape(g, g, -1))
        pooled.append(grid.reshape(-1, grid.shape[2]))
    return temporal_encode(pooled)


def image_context(img: ImageGrid, patch: int, proj: np.ndarray, tile: int | None = None) -> VisualContext:
    tag = "tiles" if tile is not None else "image"
    return VisualContext(image_tokens(img, patch, proj, tile), source_tag=tag)


def video_context(frames: FrameSet, patch: int, proj: np.ndarray) -> VisualContext:
    return VisualContext(video_tokens(frames, patch, proj), source_tag="frames")
