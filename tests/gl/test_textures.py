"""Tests for textures: sampling and addressing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.gl.textures import (
    BLOCK,
    TEXEL_BYTES,
    Texture2D,
    checkerboard,
    gradient,
    marble,
)


def solid(color, size=8):
    data = np.tile(np.asarray(color, dtype=np.float64), (size, size, 1))
    return Texture2D(data)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Texture2D(np.zeros((4, 4, 3)))

    def test_size_bytes_padded_to_blocks(self):
        t = Texture2D(np.zeros((5, 5, 4)))
        blocks = 2 * 2    # ceil(5/4)^2
        assert t.size_bytes == blocks * BLOCK * BLOCK * TEXEL_BYTES


class TestAddressing:
    def test_block_linear_within_block_is_contiguous(self):
        t = Texture2D(np.zeros((8, 8, 4)))
        addr0 = t.texel_address(0, 0)
        addr1 = t.texel_address(1, 0)
        assert addr1 - addr0 == TEXEL_BYTES

    def test_block_linear_vertical_neighbor_in_same_block(self):
        t = Texture2D(np.zeros((8, 8, 4)))
        # (0,0) and (0,1) are in the same 4x4 block: 4 texels apart.
        assert t.texel_address(0, 1) - t.texel_address(0, 0) == 4 * TEXEL_BYTES

    def test_blocks_are_16_texels_apart(self):
        t = Texture2D(np.zeros((8, 8, 4)))
        assert t.texel_address(4, 0) - t.texel_address(0, 0) == 16 * TEXEL_BYTES

    def test_addresses_unique(self):
        t = Texture2D(np.zeros((8, 8, 4)))
        addrs = {t.texel_address(x, y) for x in range(8) for y in range(8)}
        assert len(addrs) == 64

    def test_out_of_range_clamped(self):
        t = Texture2D(np.zeros((8, 8, 4)))
        assert t.texel_address(-5, 0) == t.texel_address(0, 0)
        assert t.texel_address(100, 0) == t.texel_address(7, 0)

    def test_base_address_offsets(self):
        t = Texture2D(np.zeros((8, 8, 4)))
        t.base_address = 0x1000
        assert t.texel_address(0, 0) == 0x1000


class TestSampling:
    def test_bilinear_solid_texture_is_exact(self):
        t = solid((0.25, 0.5, 0.75, 1.0))
        rgba, footprint = t.sample_bilinear(0.37, 0.61)
        assert np.allclose(rgba, [0.25, 0.5, 0.75, 1.0])
        assert len(footprint[0]) == 4

    def test_bilinear_interpolates_between_texels(self):
        # Two-texel-wide texture: left black, right white.
        data = np.zeros((4, 2, 4))
        data[:, 1, :3] = 1.0
        data[:, :, 3] = 1.0
        t = Texture2D(data)
        # Sample exactly between the two texel centers.
        rgba, _ = t.sample_bilinear(0.5, 0.25)
        assert rgba[0] == pytest.approx(0.5)

    def test_bilinear_vectorized(self):
        t = checkerboard(size=8, squares=2)
        us = np.array([0.1, 0.6, 0.9])
        vs = np.array([0.1, 0.6, 0.9])
        rgba, footprint = t.sample_bilinear(us, vs)
        assert rgba.shape == (3, 4)
        assert len(footprint) == 3

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bilinear_output_in_range(self, u, v):
        t = checkerboard(size=8, squares=2)
        rgba, _ = t.sample_bilinear(u, v)
        assert np.all(rgba >= 0.0) and np.all(rgba <= 1.0)


class TestProceduralTextures:
    def test_checkerboard_alternates(self):
        t = checkerboard(size=8, squares=2)
        assert not np.allclose(t.data[0, 0], t.data[0, 7])
        assert np.allclose(t.data[0, 0], t.data[7, 7])

    def test_checkerboard_validates(self):
        with pytest.raises(ValueError):
            checkerboard(size=10, squares=3)

    def test_marble_deterministic(self):
        assert np.allclose(marble(seed=3).data, marble(seed=3).data)
        assert not np.allclose(marble(seed=3).data, marble(seed=4).data)

    def test_gradient_ramps(self):
        t = gradient(size=16)
        assert t.data[0, 15, 0] > t.data[0, 0, 0]
        assert t.data[15, 0, 1] > t.data[0, 0, 1]
