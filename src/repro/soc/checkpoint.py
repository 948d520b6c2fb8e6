"""Graphics checkpointing (paper §4.2).

Booting a full system is expensive; Emerald checkpoints the graphics state
by recording all draw calls and replaying them through the functional model
at restore.  Here a checkpoint holds the rendered frames, the simulated
time and the app-side frame counter; its file form carries the frames
as a recorded draw-call trace (the same JSON format as
:mod:`repro.gl.trace`).  Frames are the only in-memory form: a snapshot
encodes its trace only when something reads it, restoring hands out the
frames it holds, and reading a file back (:meth:`GraphicsCheckpoint.
from_json`) parses it once and replays its trace once, rebuilding the
frames through the functional GL model.  Writing a snapshot parses its
trace zero times.

Checkpoints are the crash-recovery substrate of the health subsystem
(:mod:`repro.health.recovery`), so :meth:`GraphicsCheckpoint.from_json`
validates its input strictly: a truncated or corrupted snapshot, one
whose trace does not replay included, raises :class:`CheckpointError`
naming the offending field instead of resuming a run from garbage.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.gl.context import Frame
from repro.gl.trace import TraceDecodeError, TraceRecorder, replay


class CheckpointError(ValueError):
    """A checkpoint document failed validation.

    ``field`` names the offending key (dotted path) so a crashed-run
    post-mortem can say *which* part of the snapshot is damaged.
    """

    def __init__(self, message: str, field: str) -> None:
        super().__init__(f"checkpoint field {field!r}: {message}")
        self.field = field


class CheckpointTopologyError(CheckpointError):
    """The snapshot was taken on a different SoC topology.

    A checkpoint records the topology hash of the system that produced it
    (:meth:`repro.common.config.SoCTopology.topology_hash`); restoring it
    onto a system assembled from a *different* descriptor would replay
    graphics state into mismatched hardware — addresses would interleave
    across a different channel count, timing would diverge silently.
    ``snapshot_hash`` / ``config_hash`` carry both sides of the mismatch.
    """

    def __init__(self, snapshot_hash: str, config_hash: str) -> None:
        super().__init__(
            f"snapshot taken on topology {snapshot_hash}, but the resume "
            f"config assembles topology {config_hash}; refusing to restore "
            f"graphics state onto mismatched hardware", field="topology")
        self.snapshot_hash = snapshot_hash
        self.config_hash = config_hash


class CheckpointCorruptError(CheckpointError):
    """The snapshot bytes themselves are damaged (truncation, bit rot).

    Distinct from a schema problem: the file is not a well-formed snapshot
    at all — it was cut short mid-write or its embedded CRC no longer
    matches the payload.  Callers holding an alternative (an older
    snapshot, or a from-scratch rerun) should treat this as "discard and
    fall back", which is exactly what the fleet's resume path does.
    ``expected_crc`` / ``actual_crc`` carry the mismatch detail (None for
    truncation, where no CRC could be read at all).
    """

    def __init__(self, message: str, field: str,
                 expected_crc: Optional[int] = None,
                 actual_crc: Optional[int] = None) -> None:
        if expected_crc is not None and actual_crc is not None:
            message = (f"{message} (crc 0x{expected_crc:08x} recorded, "
                       f"0x{actual_crc:08x} computed)")
        super().__init__(message, field=field)
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


CHECKPOINT_VERSION = 1

# Execution engines that can stamp a snapshot (provenance, not payload —
# snapshots restore across modes; see GraphicsCheckpoint docstring).
CHECKPOINT_MODES = frozenset({"functional", "detailed"})


def _payload_crc(doc: dict) -> int:
    """CRC32 over the canonical serialization of everything but ``crc``.

    Canonical (sorted keys, no whitespace) so the digest is independent of
    the formatting the snapshot happened to be written with.
    """
    body = {key: value for key, value in doc.items() if key != "crc"}
    return zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode())


@dataclass(eq=False)
class GraphicsCheckpoint:
    """A serializable snapshot of graphics + loop state.

    A snapshot holds ``frames``: the ones it was captured from
    (:func:`capture`) or, for one read back from a file
    (:meth:`from_json`), the ones replaying its trace rebuilt.  It
    encodes :attr:`trace_json` on first read and caches it, and
    :meth:`restore_frames` hands out the held frames without a replay.
    Capture -> replay -> re-capture is a fixed point, so a snapshot read
    back encodes the bytes it was read from, and ``==`` (the encoded
    trace and every other field), :meth:`to_json` and a resume do not
    depend on whether a consumer was handed the captured snapshot or
    its read-back twin.

    ``rng`` (optional) carries the fault injector's serialized RNG stream
    states (:meth:`repro.health.faults.FaultInjector.rng_state`) so a
    resumed run reproduces the *same* downstream fault pattern as an
    uninterrupted one.  Absent (None) on runs without injection.

    ``job`` (optional) names the owning run — the fleet stores the job's
    cache key here — so a resume path can refuse a snapshot left behind
    by a *different* job in a reused directory instead of silently
    replaying foreign state.  Absent (None) outside the fleet.

    ``topology`` is the producing system's topology hash
    (:meth:`repro.common.config.SoCTopology.topology_hash`); every
    snapshot carries one, and a resume onto a differently-assembled SoC
    raises :class:`CheckpointTopologyError` instead of replaying state
    into mismatched hardware.

    ``mode`` (optional) records which execution engine produced the
    snapshot: ``"detailed"`` (the full timing model) or ``"functional"``
    (the zero-event replay mode, :mod:`repro.sampling.functional`).  It is
    provenance only — the snapshot payload is the *architectural* state
    both engines agree on, so the detailed engine resumes a functional
    snapshot exactly as it resumes one of its own (the fast-forward
    contract, DESIGN.md §13).

    ``claim`` (optional) names the *supervisor incarnation* that owned
    the attempt which wrote the snapshot — the fleet server stamps its
    journaled claim token (server id + attempt sequence) here.  Unlike
    ``job`` it is pure provenance: ownership decisions key on ``job``
    alone (any incarnation of the same job may resume the snapshot —
    that is exactly what server crash-recovery does), but a triage
    bundle can attribute the snapshot to the exact server process and
    claim that produced it.  Absent (None) outside server-claimed jobs.
    """

    # Kept as a tuple; compared through their encoding (``__eq__``).
    frames: Sequence[Frame] = field(repr=False)
    tick: int
    frame_index: int
    topology: str
    rng: Optional[dict] = None
    job: Optional[str] = None
    mode: Optional[str] = None
    claim: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode is not None and self.mode not in CHECKPOINT_MODES:
            raise CheckpointError(
                f"expected one of {sorted(CHECKPOINT_MODES)}, "
                f"got {self.mode!r}", field="mode")
        self.frames = tuple(self.frames)
        self._trace_json: Optional[str] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in ("tick", "frame_index", "topology", "rng",
                                "job", "mode", "claim", "trace_json"))

    @property
    def trace_json(self) -> str:
        """The draw-call trace of the held frames, encoded on first read
        (then cached)."""
        if self._trace_json is None:
            self._trace_json = json.dumps(self._trace_doc())
        return self._trace_json

    def _trace_doc(self) -> dict:
        """The trace document the held frames record to."""
        recorder = TraceRecorder()
        for frame in self.frames:
            recorder.record_frame(frame)
        return recorder.to_doc()

    def to_json(self) -> str:
        trace = self._trace_doc()
        if self._trace_json is None:
            self._trace_json = json.dumps(trace)
        head = {
            "version": CHECKPOINT_VERSION,
            "tick": self.tick,
            "frame_index": self.frame_index,
        }
        tail = {}
        if self.rng is not None:
            tail["rng"] = self.rng
        if self.job is not None:
            tail["job"] = self.job
        tail["topology"] = self.topology
        if self.mode is not None:
            tail["mode"] = self.mode
        if self.claim is not None:
            tail["claim"] = self.claim
        tail["crc"] = _payload_crc({**head, "trace": trace, **tail})
        # json.dumps({**head, "trace": trace, **tail}), with the trace's
        # cached encoding spliced in instead of encoding it a second time.
        return (f'{json.dumps(head)[:-1]}, "trace": {self.trace_json}, '
                f'{json.dumps(tail)[1:]}')

    @classmethod
    def from_json(cls, text: str) -> "GraphicsCheckpoint":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            # A process killed mid-write leaves a JSON prefix, not a
            # document; that is corruption, not a schema mismatch.
            raise CheckpointCorruptError(
                f"truncated or not JSON ({exc})", field="$") from exc
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"expected an object, got {type(doc).__name__}", field="$")
        if "crc" not in doc:
            raise CheckpointCorruptError("missing", field="crc")
        crc = doc["crc"]
        if isinstance(crc, bool) or not isinstance(crc, int):
            raise CheckpointCorruptError(
                f"expected an integer, got {type(crc).__name__}",
                field="crc")
        actual = _payload_crc(doc)
        if actual != crc:
            raise CheckpointCorruptError(
                "payload does not match its recorded CRC", field="crc",
                expected_crc=crc, actual_crc=actual)
        version = doc.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported version {version!r} "
                f"(expected {CHECKPOINT_VERSION})", field="version")
        tick = _require_int(doc, "tick")
        frame_index = _require_int(doc, "frame_index")
        if "trace" not in doc:
            raise CheckpointError("missing", field="trace")
        trace = doc["trace"]
        if not isinstance(trace, dict):
            raise CheckpointError(
                f"expected an object, got {type(trace).__name__}",
                field="trace")
        if not isinstance(trace.get("frames"), list):
            raise CheckpointError(
                "missing or not a list", field="trace.frames")
        rng = doc.get("rng")
        if rng is not None and not isinstance(rng, dict):
            raise CheckpointError(
                f"expected an object, got {type(rng).__name__}", field="rng")
        job = doc.get("job")
        if job is not None and not isinstance(job, str):
            raise CheckpointError(
                f"expected a string, got {type(job).__name__}", field="job")
        if "topology" not in doc:
            raise CheckpointError("missing", field="topology")
        topology = doc["topology"]
        if not isinstance(topology, str):
            raise CheckpointError(
                f"expected a string, got {type(topology).__name__}",
                field="topology")
        claim = doc.get("claim")
        if claim is not None and not isinstance(claim, str):
            raise CheckpointError(
                f"expected a string, got {type(claim).__name__}",
                field="claim")
        try:
            frames = replay(trace)
        except TraceDecodeError as exc:
            raise CheckpointError(
                exc.message, field="trace" if exc.detail == "$"
                else f"trace.{exc.detail}") from exc
        return cls(frames, tick=tick, frame_index=frame_index, rng=rng,
                   job=job, topology=topology, mode=doc.get("mode"),
                   claim=claim)

    def restore_frames(self) -> list[Frame]:
        """A new list of the held frames."""
        return list(self.frames)

    def require_topology(self, run_config) -> None:
        """Refuse to restore onto the topology ``run_config`` assembles
        unless it is the one this snapshot was taken on (the one guard
        every resume path runs first)."""
        config_hash = run_config.topology.topology_hash()
        if self.topology != config_hash:
            raise CheckpointTopologyError(
                snapshot_hash=self.topology, config_hash=config_hash)

    def rewind(self, count: int) -> "GraphicsCheckpoint":
        """A copy without the last ``count`` frames, ``frame_index``
        backed up by ``count``.

        A snapshot whose ``frame_index`` already covers a run's *final*
        frame cannot be resumed as-is: the render loop would have zero
        frames left, and the framebuffer pixels — which live only in the
        process that wrote the snapshot — would never be redrawn.
        Rewinding re-enters the run one (or more) frames earlier so the
        resume re-renders them; frame content is a pure function of the
        frame index, so the re-rendered framebuffer is bit-identical to
        the one the dead process held.

        The snapshot ``tick`` is kept: pixels do not depend on when a
        frame starts in simulated time, and keeping it preserves tick
        monotonicity for the resumed event clock.  Timing results of the
        re-rendered frames are therefore not comparable to the original
        run's — only the architectural state (and the payload derived
        from it) is.

        Rewinding slices the held frames, so neither it nor restoring
        the copy parses, encodes or replays a trace.
        """
        if count <= 0:
            raise ValueError(f"rewind count must be positive, got {count}")
        if count > self.frame_index or count > len(self.frames):
            raise ValueError(
                f"cannot rewind {count} frame(s): snapshot holds "
                f"{len(self.frames)} recorded frame(s) at frame_index "
                f"{self.frame_index}")
        return replace(self, frames=self.frames[:-count],
                       frame_index=self.frame_index - count)


def _require_int(doc: dict, key: str) -> int:
    """A present, non-negative integer (bool is not an int here)."""
    if key not in doc:
        raise CheckpointError("missing", field=key)
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise CheckpointError(
            f"expected an integer, got {type(value).__name__}", field=key)
    if value < 0:
        raise CheckpointError(f"must be non-negative, got {value}", field=key)
    return value


def capture(frames: list[Frame], tick: int, frame_index: int,
            topology: str,
            rng: Optional[dict] = None,
            job: Optional[str] = None,
            mode: Optional[str] = None,
            claim: Optional[str] = None) -> GraphicsCheckpoint:
    """Snapshot rendered frames on the machine whose topology hash is
    ``topology``.

    The snapshot keeps ``tuple(frames)`` and encodes their trace only
    when :attr:`GraphicsCheckpoint.trace_json` is first read, possibly
    long after this call.  That is exact because a frame's encoding does
    not change once :meth:`repro.gl.context.GLContext.end_frame` has
    built it: ``GLState`` is frozen, scenes build fresh uniform arrays
    per frame, texture and vertex data are only read, and
    :func:`repro.gl.trace.replay` sets clear fields only on frames it
    just built.  Code that mutates a built frame breaks this.
    """
    return GraphicsCheckpoint(frames, tick, frame_index, topology, rng=rng,
                              job=job, mode=mode, claim=claim)
