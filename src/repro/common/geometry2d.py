"""Screen-tile ownership: which SIMT core shades a TC tile.

Screen space is carved into a hierarchy of tiles:

* *raster tiles* — the unit the fine rasterizer emits (e.g. 4x4 pixels);
* *TC tiles* — groups of raster tiles coalesced for fragment shading
  (e.g. 2x2 raster tiles = 8x8 pixels);
* *work tiles (WT)* — groups of TC tiles used as the round-robin mapping
  granularity onto SIMT cores (case study II's knob).
"""

from __future__ import annotations


def work_tile_owner(
    tc_col: int, tc_row: int, tc_cols: int, wt_size: int, num_cores: int
) -> int:
    """Core owning a TC tile under work-tile granularity ``wt_size``.

    TC tiles are grouped into WT blocks of ``wt_size`` x ``wt_size`` TC
    tiles; WT blocks are assigned round-robin (row-major) to cores.  This is
    the modular screen-space hash of Section 3.4 with the WT knob of
    Section 6 layered on top.
    """
    if wt_size <= 0:
        raise ValueError(f"wt_size must be positive, got {wt_size}")
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    wt_col = tc_col // wt_size
    wt_row = tc_row // wt_size
    wt_cols = (tc_cols + wt_size - 1) // wt_size
    return (wt_row * wt_cols + wt_col) % num_cores
