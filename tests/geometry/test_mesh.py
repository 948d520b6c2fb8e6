"""Tests for Mesh and primitive iteration."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.mesh import Mesh, PrimitiveMode
from repro.geometry.transforms import rotate_y, translate


def quad_mesh(mode=PrimitiveMode.TRIANGLES):
    positions = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
    ])
    if mode is PrimitiveMode.TRIANGLES:
        indices = [0, 1, 2, 1, 3, 2]
    else:
        indices = [0, 1, 2, 3]
    return Mesh(positions=positions, indices=np.array(indices), mode=mode)


class TestMeshValidation:
    def test_bad_positions_shape(self):
        with pytest.raises(ValueError):
            Mesh(positions=np.zeros((3, 2)), indices=np.array([0, 1, 2]))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            Mesh(positions=np.zeros((3, 3)), indices=np.array([0, 1, 3]))

    def test_attr_shape_mismatch(self):
        with pytest.raises(ValueError):
            Mesh(positions=np.zeros((3, 3)), indices=np.array([0, 1, 2]),
                 uvs=np.zeros((2, 2)))


class TestPrimitiveIteration:
    def test_triangles_mode(self):
        mesh = quad_mesh(PrimitiveMode.TRIANGLES)
        assert list(mesh.triangles()) == [(0, 1, 2), (1, 3, 2)]
        assert mesh.num_primitives == 2

    def test_strip_mode_alternates_winding(self):
        mesh = quad_mesh(PrimitiveMode.TRIANGLE_STRIP)
        tris = list(mesh.triangles())
        assert tris == [(0, 1, 2), (2, 1, 3)]
        assert mesh.num_primitives == 2

    def test_fan_mode(self):
        positions = np.zeros((5, 3))
        mesh = Mesh(positions=positions, indices=np.arange(5),
                    mode=PrimitiveMode.TRIANGLE_FAN)
        assert list(mesh.triangles()) == [(0, 1, 2), (0, 2, 3), (0, 3, 4)]

    def test_strip_winding_consistent_facing(self):
        """All strip triangles must face the same way (+z here)."""
        mesh = quad_mesh(PrimitiveMode.TRIANGLE_STRIP)
        for a, b, c in mesh.triangles():
            pa, pb, pc = (mesh.positions[i] for i in (a, b, c))
            normal = np.cross(pb - pa, pc - pa)
            assert normal[2] > 0

    def test_shared_vertices_property(self):
        assert PrimitiveMode.TRIANGLES.verts_shared == 0
        assert PrimitiveMode.TRIANGLE_STRIP.verts_shared == 2
        assert PrimitiveMode.TRIANGLE_FAN.verts_shared == 2


class TestMeshOps:
    def test_computed_normals_flat_quad(self):
        mesh = quad_mesh().with_computed_normals()
        assert np.allclose(mesh.normals, [[0, 0, 1]] * 4)

    def test_transform_moves_positions(self):
        mesh = quad_mesh().transformed(translate(5.0, 0.0, 0.0))
        assert mesh.positions[:, 0].min() == pytest.approx(5.0)

    def test_transform_rotates_normals(self):
        mesh = quad_mesh().with_computed_normals()
        rotated = mesh.transformed(rotate_y(np.pi / 2))
        assert np.allclose(rotated.normals, [[1, 0, 0]] * 4, atol=1e-12)

    def test_merge_offsets_indices(self):
        a = quad_mesh()
        b = quad_mesh().transformed(translate(2.0, 0.0, 0.0))
        merged = a.merged_with(b)
        assert merged.num_vertices == 8
        assert merged.num_primitives == 4
        assert merged.indices.max() == 7

    def test_merge_requires_triangles(self):
        a = quad_mesh(PrimitiveMode.TRIANGLE_STRIP)
        with pytest.raises(ValueError):
            a.merged_with(quad_mesh())

    def test_bounds(self):
        lo, hi = quad_mesh().bounds()
        assert np.allclose(lo, [0, 0, 0])
        assert np.allclose(hi, [1, 1, 0])

    @given(st.integers(3, 40))
    def test_fan_primitive_count(self, n):
        mesh = Mesh(positions=np.zeros((n, 3)), indices=np.arange(n),
                    mode=PrimitiveMode.TRIANGLE_FAN)
        assert mesh.num_primitives == n - 2
        assert len(list(mesh.triangles())) == n - 2

    @given(st.integers(3, 40))
    def test_strip_primitive_count(self, n):
        mesh = Mesh(positions=np.zeros((n, 3)), indices=np.arange(n),
                    mode=PrimitiveMode.TRIANGLE_STRIP)
        assert mesh.num_primitives == n - 2
