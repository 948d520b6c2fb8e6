"""Tests for the work-tile ownership hash."""

import pytest
from hypothesis import given, strategies as st

from repro.common.geometry2d import work_tile_owner


class TestWorkTileOwner:
    def test_wt1_is_pure_round_robin(self):
        # With WT=1 consecutive TC tiles go to consecutive cores.
        owners = [work_tile_owner(c, 0, tc_cols=8, wt_size=1, num_cores=4)
                  for c in range(8)]
        assert owners == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_wt2_groups_2x2_blocks(self):
        # 4 TC columns, WT=2 -> 2 WT columns; block (0,0) all core 0.
        for c in range(2):
            for r in range(2):
                assert work_tile_owner(c, r, tc_cols=4, wt_size=2, num_cores=4) == 0
        assert work_tile_owner(2, 0, tc_cols=4, wt_size=2, num_cores=4) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            work_tile_owner(0, 0, 4, 0, 4)
        with pytest.raises(ValueError):
            work_tile_owner(0, 0, 4, 1, 0)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(1, 64),
           st.integers(1, 10), st.integers(1, 8))
    def test_owner_in_range(self, col, row, cols, wt, cores):
        assert 0 <= work_tile_owner(col, row, cols, wt, cores) < cores

    @given(st.integers(1, 10), st.integers(2, 8))
    def test_large_wt_covers_all_tiles_with_one_core_per_block(self, wt, cores):
        """All TC tiles inside one WT block map to the same core."""
        base = work_tile_owner(0, 0, tc_cols=wt * cores, wt_size=wt, num_cores=cores)
        for dc in range(wt):
            for dr in range(wt):
                assert work_tile_owner(dc, dr, wt * cores, wt, cores) == base
