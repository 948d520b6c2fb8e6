"""Texture objects: storage layout, sampling, and texel addressing.

Textures carry both *values* (for functional shading) and *addresses* (for
the timing model's L1T / DRAM traffic).  Storage uses a block-linear layout
(4x4 texel tiles laid out row-major) like real GPUs, so 2D-local sampling
maps to DRAM-row-local addresses — this is what makes the row-buffer
locality findings of case study I's Fig. 11 meaningful.
"""

from __future__ import annotations

import math

import numpy as np

TEXEL_BYTES = 4       # RGBA8
BLOCK = 4             # block-linear tile edge in texels


class Texture2D:
    """An RGBA texture with bilinear sampling and texel addressing.

    ``data`` is a float array of shape (height, width, 4) in [0, 1].
    ``base_address`` is assigned when the texture is bound into the GPU
    address map (see :mod:`repro.gpu.memmap`).
    """

    def __init__(self, data: np.ndarray, name: str = "texture") -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 4:
            raise ValueError(f"texture data must be (H, W, 4), got {data.shape}")
        self.data = data
        self.name = name
        self.base_address: int = 0

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def size_bytes(self) -> int:
        # Block-linear layout pads to whole blocks.
        bw = (self.width + BLOCK - 1) // BLOCK
        bh = (self.height + BLOCK - 1) // BLOCK
        return bw * bh * BLOCK * BLOCK * TEXEL_BYTES

    def texel_address(self, tx: int, ty: int) -> int:
        """Byte address of texel (tx, ty) under the block-linear layout."""
        tx = min(max(tx, 0), self.width - 1)
        ty = min(max(ty, 0), self.height - 1)
        bw = (self.width + BLOCK - 1) // BLOCK
        block_index = (ty // BLOCK) * bw + (tx // BLOCK)
        within = (ty % BLOCK) * BLOCK + (tx % BLOCK)
        return self.base_address + (block_index * BLOCK * BLOCK + within) * TEXEL_BYTES

    def texel_addresses(self, txs: np.ndarray, tys: np.ndarray) -> np.ndarray:
        """Vectorized block-linear byte addresses for texel coordinate arrays."""
        txs = np.clip(np.asarray(txs, dtype=np.int64), 0, self.width - 1)
        tys = np.clip(np.asarray(tys, dtype=np.int64), 0, self.height - 1)
        bw = (self.width + BLOCK - 1) // BLOCK
        block_index = (tys // BLOCK) * bw + (txs // BLOCK)
        within = (tys % BLOCK) * BLOCK + (txs % BLOCK)
        return (self.base_address
                + (block_index * BLOCK * BLOCK + within) * TEXEL_BYTES)

    def sample_bilinear(self, u, v):
        """Bilinear sample; returns (rgba, texel coordinate footprint).

        The footprint (up to 4 texels per lane) feeds the timing model's
        texture-cache accesses.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        x = u * self.width - 0.5
        y = v * self.height - 0.5
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        fx = (x - x0)[..., None]
        fy = (y - y0)[..., None]
        x0w = np.mod(x0, self.width)
        x1w = np.mod(x0 + 1, self.width)
        y0w = np.mod(y0, self.height)
        y1w = np.mod(y0 + 1, self.height)
        c00 = self.data[y0w, x0w]
        c10 = self.data[y0w, x1w]
        c01 = self.data[y1w, x0w]
        c11 = self.data[y1w, x1w]
        top = c00 * (1 - fx) + c10 * fx
        bottom = c01 * (1 - fx) + c11 * fx
        result = top * (1 - fy) + bottom * fy
        footprint = []
        for xa, xb, ya, yb in zip(np.atleast_1d(x0w), np.atleast_1d(x1w),
                                  np.atleast_1d(y0w), np.atleast_1d(y1w)):
            footprint.append([(int(xa), int(ya)), (int(xb), int(ya)),
                              (int(xa), int(yb)), (int(xb), int(yb))])
        return result, footprint

    def sample_bilinear_arrays(self, u, v):
        """Like :meth:`sample_bilinear` but returns the footprint as four
        wrapped coordinate arrays (x0, x1, y0, y1) for vectorized
        addressing — the timing model's fast path."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        x = u * self.width - 0.5
        y = v * self.height - 0.5
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        fx = (x - x0)[..., None]
        fy = (y - y0)[..., None]
        x0w = np.mod(x0, self.width)
        x1w = np.mod(x0 + 1, self.width)
        y0w = np.mod(y0, self.height)
        y1w = np.mod(y0 + 1, self.height)
        c00 = self.data[y0w, x0w]
        c10 = self.data[y0w, x1w]
        c01 = self.data[y1w, x0w]
        c11 = self.data[y1w, x1w]
        top = c00 * (1 - fx) + c10 * fx
        bottom = c01 * (1 - fx) + c11 * fx
        result = top * (1 - fy) + bottom * fy
        return result, (x0w, x1w, y0w, y1w)


def checkerboard(size: int = 64, squares: int = 8,
                 color_a=(1.0, 1.0, 1.0, 1.0),
                 color_b=(0.2, 0.2, 0.2, 1.0),
                 name: str = "checker") -> Texture2D:
    """The canonical test texture."""
    if size % squares != 0:
        raise ValueError("size must be a multiple of squares")
    cell = size // squares
    data = np.empty((size, size, 4))
    ys, xs = np.mgrid[0:size, 0:size]
    mask = ((xs // cell) + (ys // cell)) % 2 == 0
    data[mask] = color_a
    data[~mask] = color_b
    return Texture2D(data, name=name)


def gradient(size: int = 64, name: str = "gradient") -> Texture2D:
    """Horizontal R ramp, vertical G ramp — handy for sampling tests."""
    data = np.zeros((size, size, 4))
    ramp = np.linspace(0.0, 1.0, size)
    data[:, :, 0] = ramp[None, :]
    data[:, :, 1] = ramp[:, None]
    data[:, :, 3] = 1.0
    return Texture2D(data, name=name)


def marble(size: int = 64, seed: int = 7, name: str = "marble") -> Texture2D:
    """Deterministic sinusoidal-noise texture for the model zoo."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * math.pi, size=4)
    ys, xs = np.mgrid[0:size, 0:size] / size
    value = (
        0.5
        + 0.25 * np.sin(8 * math.pi * xs + phases[0])
        + 0.15 * np.sin(14 * math.pi * (xs + ys) + phases[1])
        + 0.10 * np.sin(22 * math.pi * ys + phases[2])
    )
    value = np.clip(value, 0.0, 1.0)
    data = np.stack([value, value * 0.9, value * 0.8, np.ones_like(value)],
                    axis=-1)
    return Texture2D(data, name=name)
