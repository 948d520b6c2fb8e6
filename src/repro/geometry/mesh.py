"""Mesh representation and primitive iteration.

A :class:`Mesh` carries per-vertex attribute arrays (position, normal, uv,
color) plus an index array and a primitive mode.  Primitive modes with
vertex sharing (strips, fans) matter to the timing model: the vertex
launcher overlaps warp batches so primitive assembly never needs vertices
from another warp (paper §3.3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np


class PrimitiveMode(enum.Enum):
    """Supported OpenGL primitive topologies."""

    TRIANGLES = "triangles"
    TRIANGLE_STRIP = "triangle_strip"
    TRIANGLE_FAN = "triangle_fan"

    @property
    def verts_shared(self) -> int:
        """Vertices shared between consecutive primitives (drives warp overlap)."""
        if self is PrimitiveMode.TRIANGLES:
            return 0
        return 2


@dataclass
class Mesh:
    """Indexed triangle mesh with optional per-vertex attributes.

    ``positions`` is (N, 3); ``normals`` (N, 3), ``uvs`` (N, 2) and
    ``colors`` (N, 4) are optional and default to sensible constants when
    absent (flat normals derived later, uv = 0, color = white).
    """

    positions: np.ndarray
    indices: np.ndarray
    normals: Optional[np.ndarray] = None
    uvs: Optional[np.ndarray] = None
    colors: Optional[np.ndarray] = None
    mode: PrimitiveMode = PrimitiveMode.TRIANGLES
    name: str = field(default="mesh")

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got {self.indices.shape}")
        n = len(self.positions)
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("index out of vertex range")
        for attr_name, width in (("normals", 3), ("uvs", 2), ("colors", 4)):
            attr = getattr(self, attr_name)
            if attr is not None:
                attr = np.asarray(attr, dtype=np.float64)
                if attr.shape != (n, width):
                    raise ValueError(
                        f"{attr_name} must be ({n}, {width}), got {attr.shape}"
                    )
                setattr(self, attr_name, attr)

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    @property
    def num_primitives(self) -> int:
        k = len(self.indices)
        if self.mode is PrimitiveMode.TRIANGLES:
            return k // 3
        return max(0, k - 2)

    def triangles(self) -> Iterator[tuple[int, int, int]]:
        """Yield index triples in draw-call order, unrolling strips/fans.

        Strip winding alternates per OpenGL so all triangles keep a
        consistent facing.
        """
        idx = self.indices
        if self.mode is PrimitiveMode.TRIANGLES:
            for i in range(0, len(idx) - 2, 3):
                yield int(idx[i]), int(idx[i + 1]), int(idx[i + 2])
        elif self.mode is PrimitiveMode.TRIANGLE_STRIP:
            for i in range(len(idx) - 2):
                if i % 2 == 0:
                    yield int(idx[i]), int(idx[i + 1]), int(idx[i + 2])
                else:
                    yield int(idx[i + 1]), int(idx[i]), int(idx[i + 2])
        elif self.mode is PrimitiveMode.TRIANGLE_FAN:
            for i in range(1, len(idx) - 1):
                yield int(idx[0]), int(idx[i]), int(idx[i + 1])
        else:  # pragma: no cover - enum is exhaustive
            raise AssertionError(f"unhandled mode {self.mode}")

    def with_computed_normals(self) -> "Mesh":
        """Return a copy with area-weighted smooth vertex normals."""
        normals = np.zeros_like(self.positions)
        for a, b, c in self.triangles():
            face = np.cross(
                self.positions[b] - self.positions[a],
                self.positions[c] - self.positions[a],
            )
            normals[a] += face
            normals[b] += face
            normals[c] += face
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        lengths[lengths == 0.0] = 1.0
        return Mesh(
            positions=self.positions,
            indices=self.indices,
            normals=normals / lengths,
            uvs=self.uvs,
            colors=self.colors,
            mode=self.mode,
            name=self.name,
        )

    def transformed(self, matrix: np.ndarray) -> "Mesh":
        """Return a copy with positions transformed by a 4x4 matrix."""
        homo = np.hstack([self.positions, np.ones((self.num_vertices, 1))])
        moved = (matrix @ homo.T).T
        positions = moved[:, :3] / moved[:, 3:4]
        normals = self.normals
        if normals is not None:
            nmat = np.linalg.inv(matrix[:3, :3]).T
            normals = (nmat @ normals.T).T
            lengths = np.linalg.norm(normals, axis=1, keepdims=True)
            lengths[lengths == 0.0] = 1.0
            normals = normals / lengths
        return Mesh(
            positions=positions,
            indices=self.indices,
            normals=normals,
            uvs=self.uvs,
            colors=self.colors,
            mode=self.mode,
            name=self.name,
        )

    def merged_with(self, other: "Mesh") -> "Mesh":
        """Concatenate two TRIANGLES meshes into one."""
        if self.mode is not PrimitiveMode.TRIANGLES or other.mode is not PrimitiveMode.TRIANGLES:
            raise ValueError("merging requires TRIANGLES meshes (unroll strips first)")

        def _attr(mesh: Mesh, name: str, width: int, default: float) -> np.ndarray:
            attr = getattr(mesh, name)
            if attr is None:
                attr = np.full((mesh.num_vertices, width), default)
            return attr

        positions = np.vstack([self.positions, other.positions])
        indices = np.concatenate([self.indices, other.indices + self.num_vertices])
        return Mesh(
            positions=positions,
            indices=indices,
            normals=np.vstack([_attr(self, "normals", 3, 0.0),
                               _attr(other, "normals", 3, 0.0)]),
            uvs=np.vstack([_attr(self, "uvs", 2, 0.0),
                           _attr(other, "uvs", 2, 0.0)]),
            colors=np.vstack([_attr(self, "colors", 4, 1.0),
                              _attr(other, "colors", 4, 1.0)]),
            mode=PrimitiveMode.TRIANGLES,
            name=self.name,
        )

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min, max) corners of the mesh."""
        return self.positions.min(axis=0), self.positions.max(axis=0)
