"""Render-state snapshot: depth, blending, culling, clears.

A :class:`GLState` is captured per draw call, exactly the role Mesa's state
tracker plays for Emerald.  The in-shader raster-ops epilogue
(:mod:`repro.shader.rop_epilogue`) is generated from this state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class DepthFunc(enum.Enum):
    """Subset of OpenGL depth comparison functions used by the workloads."""

    LESS = "less"
    LEQUAL = "lequal"
    GREATER = "greater"
    GEQUAL = "gequal"
    EQUAL = "equal"
    NOTEQUAL = "notequal"
    ALWAYS = "always"
    NEVER = "never"

    def compare(self, new, old):
        """Vectorized comparison; works on scalars and numpy arrays."""
        if self is DepthFunc.LESS:
            return new < old
        if self is DepthFunc.LEQUAL:
            return new <= old
        if self is DepthFunc.GREATER:
            return new > old
        if self is DepthFunc.GEQUAL:
            return new >= old
        if self is DepthFunc.EQUAL:
            return new == old
        if self is DepthFunc.NOTEQUAL:
            return new != old
        if self is DepthFunc.ALWAYS:
            return new == new          # broadcasting all-True
        return new != new              # NEVER: broadcasting all-False


class BlendFactor(enum.Enum):
    """Blend factors for the standard alpha-blending equations."""

    ZERO = "zero"
    ONE = "one"
    SRC_ALPHA = "src_alpha"
    ONE_MINUS_SRC_ALPHA = "one_minus_src_alpha"


class CullMode(enum.Enum):
    NONE = "none"
    BACK = "back"
    FRONT = "front"


class StencilOp(enum.Enum):
    """What to write to the stencil buffer when a fragment passes.

    A simplification of OpenGL's three-op model (sfail/zfail/zpass): this
    pipeline applies ``stencil_pass_op`` when the fragment survives both
    stencil and depth tests, and leaves the buffer unchanged otherwise —
    sufficient for the masking/portal workloads stencil is used for.
    """

    KEEP = "keep"
    REPLACE = "replace"
    INCR = "incr"
    DECR = "decr"
    ZERO = "zero"
    INVERT = "invert"


@dataclass(frozen=True)
class GLState:
    """Immutable render state captured at draw-call time."""

    depth_test: bool = True
    depth_write: bool = True
    depth_func: DepthFunc = DepthFunc.LESS
    blend: bool = False
    blend_src: BlendFactor = BlendFactor.SRC_ALPHA
    blend_dst: BlendFactor = BlendFactor.ONE_MINUS_SRC_ALPHA
    cull: CullMode = CullMode.BACK
    stencil_test: bool = False
    stencil_func: DepthFunc = DepthFunc.ALWAYS
    stencil_ref: int = 0
    stencil_pass_op: StencilOp = StencilOp.KEEP
    clear_color: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)
    clear_depth: float = 1.0
    clear_stencil: int = 0
    viewport: tuple[int, int] = (256, 192)

    def with_(self, **changes) -> "GLState":
        """Functional update (GLState is frozen)."""
        return replace(self, **changes)

    @property
    def rop_reads_depth(self) -> bool:
        return self.depth_test

    @property
    def rop_reads_color(self) -> bool:
        return self.blend
