"""Checkpoint round-trip verification.

A checkpoint is only worth taking if it can actually resurrect the run,
so the sanitizer exercises every snapshot the moment it is taken: it
reads the text written for it (its checkpoint file; the snapshot is
encoded here only when nothing was written) back through the strict
validator, which replays the trace once into a shadow GL context, and
diffs the shadow against the frames in hand — scalar state (tick, frame
index, RNG streams), frame/draw counts, and a CRC over the canonical
trace encoding.  The snapshot's own encoding is the trace it already
holds (:attr:`GraphicsCheckpoint.trace_json`), so only the shadow is
re-recorded.  Because the frames in hand are not replayed, a replay that
loses state fails the CRC check instead of cancelling out on both sides
(capture -> replay -> re-capture is a fixed point, so an honest replay
matches).
Any divergence raises :class:`~repro.sanitize.violations.
CheckpointMismatchViolation` naming the first field that differs, at the
moment the corrupt snapshot is produced rather than hours later when a
crashed run tries to resume from it.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Optional

from repro.gl.context import Frame
from repro.gl.trace import TraceRecorder
from repro.soc.checkpoint import CheckpointError, GraphicsCheckpoint
from repro.sanitize.violations import CheckpointMismatchViolation


def frames_crc(frames: Iterable[Frame]) -> int:
    """CRC32 over the canonical encoding of ``frames``: the trace a
    :class:`TraceRecorder` writes for them."""
    recorder = TraceRecorder()
    for frame in frames:
        recorder.record_frame(frame)
    return zlib.crc32(recorder.to_json().encode())


def verify_roundtrip(checkpoint: GraphicsCheckpoint, tick: int = 0,
                     written: Optional[str] = None) -> dict:
    """Round-trip ``checkpoint`` through restore and shadow replay.

    ``written`` is the text written for ``checkpoint`` (the manager's
    checkpoint file); None encodes it here.  Returns a summary dict
    (``frames``, ``draws``, ``crc``) on success; raises
    :class:`CheckpointMismatchViolation` on any divergence.  ``tick``
    stamps the violation with the simulation time of the check.
    """

    def fail(message: str, **details) -> None:
        raise CheckpointMismatchViolation(
            message, tick=tick, owner="checkpoint",
            details={"frame_index": checkpoint.frame_index, **details})

    try:
        restored = GraphicsCheckpoint.from_json(
            checkpoint.to_json() if written is None else written)
    except CheckpointError as exc:
        fail(f"snapshot does not survive its own validator: {exc}",
             field=exc.field)

    for field in ("tick", "frame_index", "rng"):
        ours, theirs = getattr(checkpoint, field), getattr(restored, field)
        if ours != theirs:
            fail(f"{field} changed across the round trip "
                 f"({ours!r} -> {theirs!r})", field=field)

    shadow = restored.frames
    original = checkpoint.frames
    if len(shadow) != len(original):
        fail(f"frame count changed across the round trip "
             f"({len(original)} -> {len(shadow)})", field="trace.frames",
             original=len(original), restored=len(shadow))

    crc_original = zlib.crc32(checkpoint.trace_json.encode())
    crc_shadow = frames_crc(shadow)
    if crc_original != crc_shadow:
        fail(f"trace CRC mismatch after round trip "
             f"(0x{crc_original:08x} -> 0x{crc_shadow:08x})",
             field="trace", original_crc=crc_original,
             restored_crc=crc_shadow)

    draws = sum(len(frame.draw_calls) for frame in shadow)
    return {"frames": len(shadow), "draws": draws, "crc": crc_original}
