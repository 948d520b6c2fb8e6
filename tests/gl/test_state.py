"""Tests for GL render state."""

import numpy as np
import pytest

from repro.gl.state import DepthFunc, GLState


class TestDepthFunc:
    @pytest.mark.parametrize("func,new,old,expected", [
        (DepthFunc.LESS, 0.4, 0.5, True),
        (DepthFunc.LESS, 0.5, 0.5, False),
        (DepthFunc.LEQUAL, 0.5, 0.5, True),
        (DepthFunc.GREATER, 0.6, 0.5, True),
        (DepthFunc.GEQUAL, 0.5, 0.5, True),
        (DepthFunc.EQUAL, 0.5, 0.5, True),
        (DepthFunc.NOTEQUAL, 0.5, 0.5, False),
        (DepthFunc.ALWAYS, 9.0, 0.0, True),
        (DepthFunc.NEVER, 0.0, 9.0, False),
    ])
    def test_compare_scalar(self, func, new, old, expected):
        assert bool(func.compare(new, old)) is expected

    def test_compare_vectorized(self):
        new = np.array([0.1, 0.5, 0.9])
        old = np.array([0.5, 0.5, 0.5])
        result = DepthFunc.LESS.compare(new, old)
        assert result.tolist() == [True, False, False]

    def test_always_never_vectorized(self):
        new = np.array([0.1, 0.9])
        old = np.array([0.5, 0.5])
        assert DepthFunc.ALWAYS.compare(new, old).tolist() == [True, True]
        assert DepthFunc.NEVER.compare(new, old).tolist() == [False, False]


class TestGLState:
    def test_defaults(self):
        s = GLState()
        assert s.depth_test
        assert not s.blend

    def test_with_updates(self):
        s = GLState().with_(blend=True)
        assert s.blend
        assert not GLState().blend    # original untouched

    def test_rop_flags(self):
        assert GLState(depth_test=True).rop_reads_depth
        assert not GLState(depth_test=False).rop_reads_depth
        assert GLState(blend=True).rop_reads_color
