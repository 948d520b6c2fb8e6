"""Warp memory-access coalescing (Table 2's coalescing logic).

The lanes of one warp memory instruction are merged into cache-line-sized
transactions — the classic GPGPU coalescer.  A warp reading 32
consecutive floats produces one 128B transaction; a scattered read
produces up to 32.  The instruction arrives as one record (space, write
flag, access size and every active lane's address), so all its
transactions share a space and a direction.
"""

from __future__ import annotations

import numpy as np


def coalesce(addresses: np.ndarray | tuple[int, ...], size: int,
             line_bytes: int) -> list[int]:
    """Line addresses one warp memory instruction touches.

    ``addresses`` holds the active lanes' byte addresses in lane order (an
    int64 array or a tuple of ints); each lane accesses ``size`` bytes.
    Lines come out in first-touch order: lane by lane, and within a lane
    that straddles a line boundary, line by line.
    """
    first = np.floor_divide(addresses, line_bytes)
    if size > 1:
        last = np.floor_divide(np.add(addresses, size - 1), line_bytes)
        if last.tobytes() != first.tobytes():
            lines: list[int] = []
            for low, high in zip(first.tolist(), last.tolist()):
                lines.extend(range(low, high + 1))
            return [line * line_bytes for line in dict.fromkeys(lines)]
    # dict.fromkeys keeps each line's first insertion, in C.
    return [line * line_bytes for line in dict.fromkeys(first.tolist())]
