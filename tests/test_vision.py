import numpy as np
import pytest

from featmod.tensors import ConfigError, ShapeError, make_rng
from featmod.vision import (
    FrameSet,
    ImageGrid,
    encode_stub,
    gradient_image,
    grid_side,
    image_tokens,
    make_patch_projection,
    pool_adaptive_2x2,
    sample_frames,
    temporal_encode,
    tile_image,
    video_tokens,
)


class TestSampleFrames:
    """Criterion 11 checks sample_frames(100, 4)."""

    def test_identity_sampling(self):
        assert sample_frames(8, 8) == list(range(8))

    def test_single_frame(self):
        assert sample_frames(1, 1) == [0]

    def test_endpoints_and_monotonic(self):
        rng = make_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 500))
            k = int(rng.integers(2, n + 1))
            picks = sample_frames(n, k)
            assert picks[0] == 0 and picks[-1] == n - 1
            assert all(b > a for a, b in zip(picks, picks[1:]))

    def test_too_many_frames_rejected(self):
        with pytest.raises(ValueError):
            sample_frames(3, 4)


class TestTiling:
    def test_exact_2x2_split(self):
        img = gradient_image(672, 672)
        tiles = tile_image(img, 336)
        assert len(tiles) == 4
        assert all(t.data.shape == (336, 336, 3) for t in tiles)

    def test_padding_rule(self):
        img = gradient_image(400, 336)
        tiles = tile_image(img, 336)
        assert len(tiles) == 2

    def test_identity_tile(self):
        img = gradient_image(336, 336)
        tiles = tile_image(img, 336)
        assert len(tiles) == 1
        assert np.array_equal(tiles[0].data, img.data)

    def test_lossless_reassembly(self):
        board = (np.arange(50)[:, None] // 6 + np.arange(70) // 6) % 2  # 6-px cells
        img = ImageGrid(np.repeat(board[:, :, None].astype(np.float64), 2, axis=2))
        tile = 16
        tiles = tile_image(img, tile)
        rows = -(-50 // tile)
        cols = -(-70 // tile)
        rebuilt = np.zeros((rows * tile, cols * tile, 2))
        for idx, t in enumerate(tiles):
            r, c = divmod(idx, cols)
            rebuilt[r * tile:(r + 1) * tile, c * tile:(c + 1) * tile] = t.data
        assert np.array_equal(rebuilt[:50, :70], img.data)
        assert np.all(rebuilt[50:] == 0.0) and np.all(rebuilt[:, 70:] == 0.0)


def pool_loop(tokens):
    """Reference: one mean per bin, bin i spanning rows floor(i*g/t)..floor((i+1)*g/t)-1."""
    g = tokens.shape[0]
    target = (g + 1) // 2
    bounds = [int(np.floor(i * g / target)) for i in range(target + 1)]
    out = np.empty((target, target, tokens.shape[2]), dtype=tokens.dtype)
    for i in range(target):
        for j in range(target):
            block = tokens[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]]
            out[i, j] = block.mean(axis=(0, 1))
    return out


class TestAdaptivePooling:
    """Criterion 11 checks the hand-averaged 4x4 grid."""

    def test_single_bin(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        assert np.array_equal(pool_adaptive_2x2(grid), np.array([[[2.5]]]))

    def test_1x1_unchanged(self):
        grid = np.array([[[7.0, -2.0]]])
        assert np.array_equal(pool_adaptive_2x2(grid), grid)

    def test_even_grid_preserves_mean(self):
        rng = make_rng(1)
        grid = rng.normal(size=(6, 6, 3))
        out = pool_adaptive_2x2(grid)
        assert np.allclose(out.mean(axis=(0, 1)), grid.mean(axis=(0, 1)), atol=1e-12)

    def test_matches_loop_reference(self):
        rng = make_rng(4)
        even = rng.normal(size=(24, 24, 8))
        assert np.array_equal(pool_adaptive_2x2(even), pool_loop(even))
        # odd grids sum each bin in another order: allow a few ulps of the inputs
        odd = rng.normal(size=(5, 5, 8))
        atol = 4 * np.finfo(np.float64).eps * np.max(np.abs(odd))
        np.testing.assert_allclose(pool_adaptive_2x2(odd), pool_loop(odd), rtol=0, atol=atol)

    def test_odd_grid_target_side(self):
        rng = make_rng(2)
        out = pool_adaptive_2x2(rng.normal(size=(5, 5, 2)))
        assert out.shape == (3, 3, 2)


class TestTemporalEncode:
    def test_frame_zero_gets_phase_zero_offset(self):
        tokens = np.zeros((3, 8))
        out = temporal_encode([tokens])
        assert np.array_equal(out[:, 0::2], np.zeros((3, 4)))
        assert np.array_equal(out[:, 1::2], np.ones((3, 4)))

    def test_within_frame_differences_preserved(self):
        rng = make_rng(3)
        frames = [rng.normal(size=(4, 6)) for _ in range(3)]
        out = temporal_encode(frames)
        for f in range(3):
            block = out[f * 4:(f + 1) * 4]
            diffs = block - block[0]
            raw_diffs = frames[f] - frames[f][0]
            assert np.allclose(diffs, raw_diffs, atol=1e-12)

    def test_concatenation_order(self):
        a = np.zeros((3, 4))
        b = np.ones((3, 4))
        out = temporal_encode([a, b])
        assert out.shape == (6, 4)
        assert np.array_equal(out[:3], temporal_encode([a]))

    def test_heterogeneous_frames_rejected(self):
        with pytest.raises(ShapeError):
            temporal_encode([np.zeros((3, 4)), np.zeros((2, 4))])


class TestEncodeStub:
    def test_336px_patch14_gives_576_tokens(self):
        proj = make_patch_projection(0, 14, 3, 32)
        tokens = encode_stub(gradient_image(336, 336), 14, proj)
        assert tokens.shape == (576, 32)

    def test_378px_patch14_gives_729_tokens(self):
        # 27x14 grid: the 384px encoder geometry reduced to its patch-exact size
        proj = make_patch_projection(0, 14, 3, 32)
        tokens = encode_stub(gradient_image(378, 378), 14, proj)
        assert tokens.shape == (729, 32)

    def test_zero_image_gives_zero_tokens(self):
        proj = make_patch_projection(1, 8, 1, 16)
        img = ImageGrid(np.zeros((24, 24, 1)))
        assert np.array_equal(encode_stub(img, 8, proj), np.zeros((9, 16)))

    def test_deterministic_for_seed(self):
        img = gradient_image(28, 28)
        a = encode_stub(img, 14, make_patch_projection(5, 14, 3, 8))
        b = encode_stub(img, 14, make_patch_projection(5, 14, 3, 8))
        assert np.array_equal(a, b)

    def test_grid_side(self):
        assert grid_side(336, 14) == 24
        assert grid_side(384, 14) == 28
        assert grid_side(400, 336) == 2


class TestPipelines:
    def test_tiled_image_tokens(self):
        proj = make_patch_projection(2, 8, 3, 16)
        img = gradient_image(32, 48)
        tokens = image_tokens(img, 8, proj, tile=16)
        # 2x3 tiles, each 2x2 patches
        assert tokens.shape == (6 * 4, 16)

    def test_video_token_count(self):
        proj = make_patch_projection(3, 8, 3, 16)
        frames = FrameSet(
            frames=[gradient_image(40, 40) for _ in range(3)],
            timestamps=[0, 5, 9],
        )
        tokens = video_tokens(frames, 8, proj)
        # grid 5x5 pools to 3x3 per frame
        assert tokens.shape == (3 * 9, 16)

    def test_frameset_timestamps_strictly_increasing(self):
        with pytest.raises(ConfigError):
            FrameSet(frames=[gradient_image(8, 8)] * 2, timestamps=[3, 3])
