"""Fragment-stage execution environment and varying linkage.

:func:`build_varying_link` resolves each fragment-program varying scalar to
its producer (a vertex-program varying slot, the interpolated depth, or a
``gl_FragCoord`` component).  :class:`FragmentShaderEnv` services a warp of
fragments: varyings from the rasterizer, textures with real texel
addresses, depth/color buffer access with real framebuffer addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gl.context import DrawCall
from repro.pipeline.framebuffer import Framebuffer
from repro.pipeline.vertex import build_constant_bank
from repro.shader.isa import MemSpace
from repro.shader.program import Program

# Varying-source kinds.
_VS_SLOT = "vs"
_FRAG_Z = "fragz"
_FRAGCOORD = "fragcoord"


def build_varying_link(vs_program: Program, fs_program: Program) -> list[tuple[str, int]]:
    """Map each FS varying scalar slot to its source.

    Returns a list indexed by FS scalar slot holding ``(kind, index)``:
    ``("vs", vs_slot)``, ``("fragz", 0)`` or ``("fragcoord", component)``.
    """
    link: list[tuple[str, int]] = [("", 0)] * fs_program.varyings.total
    for name, (base, width) in fs_program.varyings.items():
        if name == "frag_z":
            link[base] = (_FRAG_Z, 0)
            continue
        if name == "gl_FragCoord":
            for comp in range(width):
                link[base + comp] = (_FRAGCOORD, comp)
            continue
        if name not in vs_program.varyings:
            raise ValueError(
                f"fragment shader reads varying {name!r} the vertex shader "
                f"never writes (VS provides {vs_program.varyings.names()})")
        vs_base, vs_width = vs_program.varyings.lookup(name)
        if width > vs_width:
            raise ValueError(
                f"varying {name!r}: FS wants {width} floats, VS writes {vs_width}")
        for comp in range(width):
            link[base + comp] = (_VS_SLOT, vs_base + comp)
    return link


@dataclass
class FragmentWarp:
    """One warp's worth of fragments headed for shading.

    All arrays have warp_size entries; ``active`` masks real fragments.
    ``varyings`` is in the *vertex* program's varying layout.
    """

    xs: np.ndarray
    ys: np.ndarray
    z: np.ndarray
    inv_w: np.ndarray
    varyings: np.ndarray
    active: np.ndarray

    @property
    def warp_size(self) -> int:
        return len(self.xs)

    @property
    def num_fragments(self) -> int:
        return int(self.active.sum())


def pack_fragments(xs, ys, z, inv_w, varyings, warp_size: int = 32) -> list[FragmentWarp]:
    """Chunk fragment arrays into warp-sized :class:`FragmentWarp` packets.

    One padded bulk copy per array, then disjoint slice views per warp —
    value-identical to packing each warp separately (zero-padded tails,
    ``inv_w`` padded with ones), without 6 allocations per warp.
    """
    total = len(xs)
    if total == 0:
        return []
    num_vary = varyings.shape[1] if varyings.ndim == 2 else 1
    num_warps = -(-total // warp_size)
    padded = num_warps * warp_size
    all_xs = np.zeros(padded, dtype=np.int64)
    all_ys = np.zeros(padded, dtype=np.int64)
    all_z = np.zeros(padded)
    all_inv_w = np.ones(padded)
    all_vary = np.zeros((padded, num_vary))
    all_active = np.zeros(padded, dtype=bool)
    all_xs[:total] = xs
    all_ys[:total] = ys
    all_z[:total] = z
    all_inv_w[:total] = inv_w
    all_vary[:total] = varyings
    all_active[:total] = True
    return [
        FragmentWarp(
            xs=all_xs[start:start + warp_size],
            ys=all_ys[start:start + warp_size],
            z=all_z[start:start + warp_size],
            inv_w=all_inv_w[start:start + warp_size],
            varyings=all_vary[start:start + warp_size],
            active=all_active[start:start + warp_size],
        )
        for start in range(0, padded, warp_size)
    ]


class FragmentShaderEnv:
    """ExecEnv for one fragment warp."""

    def __init__(self, draw: DrawCall, program: Program,
                 vs_program: Program, warp: FragmentWarp,
                 framebuffer: Framebuffer,
                 link: list[tuple[str, int]] | None = None) -> None:
        self.draw = draw
        self.program = program
        self.warp = warp
        self.fb = framebuffer
        self.warp_size = warp.warp_size
        self.link = link if link is not None else build_varying_link(
            vs_program, program)
        self.constant_bank = build_constant_bank(draw, program)
        self._unit_textures = {}
        for name, unit in program.textures.items():
            if name not in draw.textures:
                raise ValueError(
                    f"shader samples {name!r} but draw call binds "
                    f"{sorted(draw.textures)}")
            self._unit_textures[unit] = draw.textures[name]
        self.outputs: dict[int, np.ndarray] = {}

    # -- ExecEnv --------------------------------------------------------------

    def attribute(self, slot, mask):
        raise RuntimeError("fragment shaders have no vertex attributes")

    def varying(self, slot: int, mask: np.ndarray) -> np.ndarray:
        kind, index = self.link[slot]
        if kind == _VS_SLOT:
            return self.warp.varyings[:, index]
        if kind == _FRAG_Z:
            return self.warp.z
        if kind == _FRAGCOORD:
            if index == 0:
                return self.warp.xs + 0.5
            if index == 1:
                return self.warp.ys + 0.5
            if index == 2:
                return self.warp.z
            return self.warp.inv_w
        raise RuntimeError(f"unlinked varying slot {slot}")

    def constant(self, slot: int, mask: np.ndarray):
        value = float(self.constant_bank[slot])
        return value, (MemSpace.CONST,
                       (self.draw.uniform_base + slot * 4,), 4, False)

    def tex(self, unit: int, u: np.ndarray, v: np.ndarray, mask: np.ndarray):
        texture = self._unit_textures[unit]
        rgba, (x0, x1, y0, y1) = texture.sample_bilinear_arrays(u, v)
        # The four bilinear corners of every active lane, corner-major:
        # all (x0, y0) texels, then (x1, y0), (x0, y1) and (x1, y1).
        x0, x1, y0, y1 = x0[mask], x1[mask], y0[mask], y1[mask]
        addresses = texture.texel_addresses(np.concatenate((x0, x1, x0, x1)),
                                            np.concatenate((y0, y0, y1, y1)))
        return rgba, (MemSpace.TEXTURE, addresses, 4, False)

    def zread(self, mask: np.ndarray):
        xs, ys = self.warp.xs, self.warp.ys
        values = self.fb.read_depth(xs, ys)
        addresses = self.fb.depth_address(xs, ys)[mask]
        return values, (MemSpace.DEPTH, addresses, 4, False)

    def zwrite(self, values: np.ndarray, mask: np.ndarray):
        xs, ys = self.warp.xs[mask], self.warp.ys[mask]
        self.fb.write_depth(xs, ys, values[mask])
        return MemSpace.DEPTH, self.fb.depth_address(xs, ys), 4, True

    def sread(self, mask: np.ndarray):
        xs, ys = self.warp.xs, self.warp.ys
        values = self.fb.read_stencil(xs, ys).astype(np.float64)
        addresses = self.fb.stencil_address(xs, ys)[mask]
        return values, (MemSpace.DEPTH, addresses, 1, False)

    def swrite(self, values: np.ndarray, mask: np.ndarray):
        xs, ys = self.warp.xs[mask], self.warp.ys[mask]
        self.fb.write_stencil(xs, ys, values[mask])
        return MemSpace.DEPTH, self.fb.stencil_address(xs, ys), 1, True

    def fb_read(self, mask: np.ndarray):
        xs, ys = self.warp.xs, self.warp.ys
        rgba = self.fb.read_color(xs, ys)
        addresses = self.fb.color_address(xs, ys)[mask]
        return rgba, (MemSpace.COLOR, addresses, 4, False)

    def fb_write(self, rgba: np.ndarray, mask: np.ndarray):
        xs, ys = self.warp.xs[mask], self.warp.ys[mask]
        self.fb.write_color(xs, ys, rgba[mask])
        return MemSpace.COLOR, self.fb.color_address(xs, ys), 4, True

    def ld_global(self, addresses, mask):
        raise RuntimeError("generic global loads unused in fragment stage")

    def st_global(self, addresses, values, mask):
        raise RuntimeError("generic global stores unused in fragment stage")

    def store_output(self, slot: int, values: np.ndarray, mask: np.ndarray) -> None:
        if slot not in self.outputs:
            self.outputs[slot] = np.zeros(self.warp_size)
        self.outputs[slot][mask] = values[mask]
