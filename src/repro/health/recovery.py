"""Periodic checkpointing and crash recovery for full-system runs.

A :class:`CheckpointManager` rides an :class:`~repro.soc.soc.EmeraldSoC`
render loop and snapshots the graphics + loop state every N completed
frames (draw-call trace, simulated tick, app frame counter — the same
checkpoint format as :mod:`repro.soc.checkpoint`).  A run killed mid-frame
resumes from its last snapshot with :func:`resume_run`: the recorded draw
calls are replayed through the functional model to rebuild GL state, the
event clock is advanced to the snapshot tick, and the render loop restarts
at the snapshot's frame index.  Because frame content is a deterministic
function of the frame index, the resumed run renders the same remaining
frames — and the same final framebuffer — as an uninterrupted run.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.common.events import SimulationError
from repro.gl.context import Frame
from repro.soc.checkpoint import GraphicsCheckpoint, capture


class PreemptionRequested(SimulationError):
    """A run stopped cooperatively at a checkpoint boundary.

    Raised by :class:`CheckpointManager` immediately *after* a snapshot is
    taken (and persisted, when a path is configured), so the interrupted
    run can always be resumed from the snapshot it just wrote.  This is a
    control-flow signal, not a failure: supervisors (the fleet) requeue
    the job for a checkpoint resume instead of writing a triage bundle.

    Subclasses :class:`SimulationError` so the event loop's ``wrap``
    policy re-raises it unchanged instead of burying it in a wrapper.
    """

    def __init__(self, frame_index: int, tick: int) -> None:
        super().__init__(
            f"preempted at checkpoint boundary (frame {frame_index}, "
            f"tick {tick})", tick=tick, owner="checkpoints")
        self.frame_index = frame_index


class CheckpointManager:
    """Collects rendered frames and emits periodic checkpoints.

    Wire it up with :meth:`wrap_source` (observes every frame the loop
    renders) and :meth:`on_frame_done` (the render loop's per-frame hook).
    ``path`` (when given) receives the latest snapshot as JSON after every
    checkpoint — the on-disk state a crashed process recovers from — and
    :attr:`written` keeps that text, which the sanitizer's round trip
    checks instead of encoding the snapshot again.
    """

    def __init__(self, every: int, topology: str,
                 path: Optional[str] = None,
                 injector=None,
                 preempt_check: Optional[Callable[[int], bool]] = None,
                 job: Optional[str] = None,
                 claim: Optional[str] = None) -> None:
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, "
                             f"got {every}")
        self.every = every
        self.path = path
        # Ownership token stamped into every snapshot (the fleet passes
        # the job's cache key) so a resume in a reused directory can tell
        # this job's snapshots from a previous occupant's.
        self.job = job
        # Claim provenance (fleet-server incarnation + attempt sequence):
        # recorded in every snapshot for triage, never consulted for
        # ownership — any later claim of the same job may resume it.
        self.claim = claim
        # Topology hash of the producing system, stamped at snapshot time
        # so a resume onto differently-assembled hardware can be refused.
        self.topology = topology
        # ``preempt_check(frames_done)`` is consulted right after each
        # snapshot lands; returning True raises PreemptionRequested, so a
        # preempted run always holds a fresh resume point.
        self.preempt_check = preempt_check
        # When a FaultInjector rides the run, its RNG stream states are
        # captured into every snapshot so a resume reproduces the same
        # downstream fault pattern as an uninterrupted run.
        self.injector = injector
        self.last: Optional[GraphicsCheckpoint] = None
        self.written: Optional[str] = None   # ``last`` as written to path
        self.checkpoints_taken = 0
        self._frames: list[Frame] = []

    def seed(self, frames: list[Frame]) -> None:
        """Pre-load the frames a checkpoint restored so snapshots taken
        after a resume still cover the whole run."""
        self._frames = list(frames)

    def wrap_source(self, frame_source: Callable[[int], Frame]
                    ) -> Callable[[int], Frame]:
        def observing_source(index: int) -> Frame:
            frame = frame_source(index)
            self._frames.append(frame)
            return frame
        return observing_source

    def on_frame_done(self, frame_index: int, tick: int) -> None:
        """Called after frame ``frame_index`` completes at ``tick``."""
        if (frame_index + 1) % self.every != 0:
            return
        rng = (self.injector.rng_state()
               if self.injector is not None else None)
        self.last = capture(self._frames, tick=tick,
                            frame_index=frame_index + 1, rng=rng,
                            job=self.job, topology=self.topology,
                            mode="detailed", claim=self.claim)
        self.checkpoints_taken += 1
        if self.path is not None:
            # A process SIGKILL'd mid-write leaves the previous complete
            # snapshot at ``path`` for resume to pick up.
            self.written = self.last.to_json()
            publish_text(self.path, self.written)
        if (self.preempt_check is not None
                and self.preempt_check(frame_index + 1)):
            raise PreemptionRequested(frame_index + 1, tick)


def publish_text(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` write-then-rename.

    A process killed mid-write leaves a stale temp file behind, never a
    truncated ``path``: a reader sees the previous complete version or
    the new one.  The temp name is per process, so two processes
    publishing one path (a fleet worker orphaned by a killed server
    beside its successor, two ``fleet submit`` runs dropping one spec
    name) never rename each other's half-written file into place.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> GraphicsCheckpoint:
    """Read and validate an on-disk checkpoint."""
    with open(path) as handle:
        return GraphicsCheckpoint.from_json(handle.read())


def resume_soc(checkpoint: GraphicsCheckpoint, run_config,
               frame_source: Callable[[int], Frame],
               framebuffer_address: int):
    """Build the SoC that resumes ``checkpoint``, not yet run.

    Restores the frames the snapshot holds (for one read back from a
    file, the ones :meth:`GraphicsCheckpoint.from_json` rebuilt by
    replaying its trace, so nothing replays here), then constructs a
    fresh SoC that re-enters simulated time at the snapshot tick and the
    render loop at the snapshot frame index.
    A snapshot stamped with a topology hash is checked against the
    topology ``run_config`` would assemble *before* the SoC is built;
    a mismatch raises :class:`CheckpointTopologyError`.
    """
    from repro.soc.soc import EmeraldSoC   # late import: soc imports health

    checkpoint.require_topology(run_config)
    restored = checkpoint.restore_frames()
    soc = EmeraldSoC(run_config, frame_source, framebuffer_address,
                     start_frame=checkpoint.frame_index,
                     start_tick=checkpoint.tick)
    if soc.checkpoints is not None:
        soc.checkpoints.seed(restored)
    if checkpoint.rng is not None and soc.injector is not None:
        # Re-align the fault RNG streams with the crashed run's position;
        # without this a resume re-draws the whole fault sequence from the
        # seed and diverges from the uninterrupted run.
        soc.injector.restore_rng(checkpoint.rng)
    return soc


def resume_run(checkpoint: GraphicsCheckpoint, run_config,
               frame_source: Callable[[int], Frame],
               framebuffer_address: int,
               max_events: Optional[int] = None):
    """Resume a crashed run from ``checkpoint``: :func:`resume_soc`, run.

    Returns ``(soc, results)`` — the results cover the resumed frames
    only, but the final framebuffer matches an uninterrupted run.
    """
    soc = resume_soc(checkpoint, run_config, frame_source,
                     framebuffer_address)
    results = soc.run(max_events=max_events) if max_events is not None \
        else soc.run()
    return soc, results
