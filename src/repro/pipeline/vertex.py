"""Vertex shading: executes the vertex program over a draw call's vertices.

Provides :class:`VertexShaderEnv` (the ExecEnv backing vertex-stage
execution — attribute fetches carry real VBO byte addresses, uniform reads
carry constant-bank addresses), :func:`shading_passes`, which splits a
functional shading job into wide passes, and :func:`run_vertex_shading`,
which shades every vertex of a draw call in those passes and returns
clip-space positions and varyings (in the vertex program's varying layout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gl.context import DrawCall
from repro.shader.compiler import compile_shader
from repro.shader.interpreter import WarpInterpreter
from repro.shader.isa import MemSpace
from repro.shader.program import Program


def build_constant_bank(draw: DrawCall, program: Program) -> np.ndarray:
    """Flatten the draw call's uniforms into the program's constant layout."""
    bank = np.zeros(max(program.uniforms.total, 1))
    for name, (offset, width) in program.uniforms.items():
        flat = draw.flat_uniform(name)
        if flat.size != width:
            raise ValueError(
                f"uniform {name!r}: shader declares {width} floats, "
                f"draw call supplies {flat.size}")
        bank[offset:offset + width] = flat
    return bank


class VertexShaderEnv:
    """ExecEnv for one warp of vertices."""

    def __init__(self, draw: DrawCall, program: Program,
                 vertex_ids: np.ndarray, warp_size: int = 32) -> None:
        self.draw = draw
        self.program = program
        self.warp_size = warp_size
        ids = np.full(warp_size, -1, dtype=np.int64)
        ids[:len(vertex_ids)] = vertex_ids
        self.vertex_ids = ids
        self.active = ids >= 0
        self._safe_ids = np.where(self.active, ids, 0)
        self.constant_bank = build_constant_bank(draw, program)
        # Reverse map: scalar attribute slot -> (attr name, vbo float offset).
        self._slot_map: dict[int, tuple[str, int]] = {}
        for name, (base, width) in program.attributes.items():
            vbo_offset, vbo_width = draw.vbo.attribute_offset(name)
            if width > vbo_width:
                raise ValueError(
                    f"shader wants {width} floats of attribute {name!r}, "
                    f"VBO provides {vbo_width}")
            for comp in range(width):
                self._slot_map[base + comp] = (name, vbo_offset + comp)
        # Outputs: 0-3 clip position, 4+ varyings.
        self.clip = np.zeros((warp_size, 4))
        self.varyings = np.zeros((warp_size, max(program.varyings.total, 1)))

    # -- ExecEnv ------------------------------------------------------------

    def attribute(self, slot: int, mask: np.ndarray):
        name, float_offset = self._slot_map[slot]
        values = self.draw.vbo.data[self._safe_ids, float_offset]
        stride = self.draw.vbo.stride_bytes
        base = self.draw.vbo.base_address + float_offset * 4
        addresses = base + self.vertex_ids[mask & self.active] * stride
        return values, (MemSpace.VERTEX, addresses, 4, False)

    def varying(self, slot: int, mask: np.ndarray):
        raise RuntimeError("vertex shaders have no input varyings")

    def constant(self, slot: int, mask: np.ndarray):
        value = float(self.constant_bank[slot])
        return value, (MemSpace.CONST,
                       (self.draw.uniform_base + slot * 4,), 4, False)

    def tex(self, unit, u, v, mask):
        raise RuntimeError("vertex-stage texturing is not supported")

    def zread(self, mask):
        raise RuntimeError("vertex shaders cannot access the depth buffer")

    def zwrite(self, values, mask):
        raise RuntimeError("vertex shaders cannot access the depth buffer")

    def sread(self, mask):
        raise RuntimeError("vertex shaders cannot access the stencil buffer")

    def swrite(self, values, mask):
        raise RuntimeError("vertex shaders cannot access the stencil buffer")

    def fb_read(self, mask):
        raise RuntimeError("vertex shaders cannot access the framebuffer")

    def fb_write(self, rgba, mask):
        raise RuntimeError("vertex shaders cannot access the framebuffer")

    def ld_global(self, addresses, mask):
        raise RuntimeError("global loads are not used by vertex shaders")

    def st_global(self, addresses, values, mask):
        raise RuntimeError("global stores are not used by vertex shaders")

    def store_output(self, slot: int, values: np.ndarray, mask: np.ndarray) -> None:
        mask = mask & self.active
        if slot < Program.POSITION_SLOTS:
            self.clip[mask, slot] = values[mask]
        else:
            self.varyings[mask, slot - Program.POSITION_SLOTS] = values[mask]


#: Widest functional shading pass, in lanes.  The cap bounds a pass's
#: register file (registers x lanes float64 values) and so the memory a
#: replay keeps resident.
MAX_PASS_LANES = 1024


def shading_passes(count: int, warp_size: int):
    """Split ``count`` lanes into functional shading passes.

    Yields ``(start, stop, width)``: lanes ``start:stop`` run as one pass
    of ``width = warp_size * 2**k`` lanes, the smallest such width that
    holds them, at most :data:`MAX_PASS_LANES` (or one warp, if wider).
    Few distinct widths means few compiled dispatch tables per program.
    """
    widest = warp_size
    while widest * 2 <= MAX_PASS_LANES:
        widest *= 2
    for start in range(0, count, widest):
        stop = min(start + widest, count)
        width = warp_size
        while width < stop - start:
            width *= 2
        yield start, stop, width


@dataclass
class ShadedVertices:
    """All vertex shading results for one draw call."""

    clip: np.ndarray              # (N, 4) clip-space positions
    varyings: np.ndarray          # (N, V) in the VS varying layout
    program: Program

    @property
    def num_vertices(self) -> int:
        return len(self.clip)


def run_vertex_shading(draw: DrawCall, warp_size: int = 32) -> ShadedVertices:
    """Shade every VBO vertex of a draw call in :func:`shading_passes`.

    Vertex shading is lane-independent, so a pass of many warps writes
    what those warps would write one at a time.
    """
    program = compile_shader(draw.vs_source, "vertex", name=f"{draw.name}_vs")
    n = draw.vbo.num_vertices
    clip = np.zeros((n, 4))
    varyings = np.zeros((n, max(program.varyings.total, 1)))
    for start, stop, width in shading_passes(n, warp_size):
        env = VertexShaderEnv(draw, program, np.arange(start, stop), width)
        WarpInterpreter(program, env).run(initial_mask=env.active)
        clip[start:stop] = env.clip[:stop - start]
        varyings[start:stop] = env.varyings[:stop - start]
    return ShadedVertices(clip=clip, varyings=varyings, program=program)
