"""Worker liveness: file-based heartbeats + the server-side monitor.

Workers beat by atomically rewriting a small JSON file at every frame
boundary (the same cadence as checkpoints).  The server polls the
file and applies the watchdog's deadline idiom (``repro.health.watchdog``)
to it: a worker whose process is alive but whose heartbeat has made no
*progress* within the timeout is *hung* — killed and requeued — while a
dead process with no result is *crashed*.  Files survive SIGKILL, so a
violently killed worker leaves its last observed progress behind for the
triage bundle.

Clock discipline (ISSUE 10): staleness must survive system clock jumps
in both directions.  Two rules enforce that:

* the monitor measures elapsed time with ``time.monotonic()`` only — a
  wall-clock step (NTP slew, suspend/resume, a VM migration) can neither
  mass-expire every healthy worker nor rewind a deadline;
* "alive" means the **monotonic attempt-progress counter** advanced, not
  "the file changed".  Heartbeats carry a wall-clock ``time`` field for
  humans and triage bundles, but a worker that keeps rewriting its file
  with a fresh timestamp and a frozen ``progress`` counter is hung and
  times out on schedule.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.health.recovery import publish_text


def write_heartbeat(path: str, *, frame: int, tick: int, beats: int,
                    progress: Optional[int] = None,
                    resumed_from: int = 0) -> None:
    """Atomically publish one heartbeat (write-then-rename).

    ``progress`` is the monotonic attempt-progress counter the staleness
    verdict keys on; it defaults to ``beats`` (which the worker's frame
    hook increments every call).  ``resumed_from`` is the frame the
    attempt started at, so the server learns a dead attempt's resume
    point without parsing its snapshot.  ``time`` is wall-clock
    provenance for humans reading a triage bundle — the monitor never
    consults it.
    """
    publish_text(path, json.dumps({
        "frame": frame, "tick": tick, "beats": beats,
        "progress": beats if progress is None else progress,
        "resumed_from": resumed_from,
        "time": time.time(), "pid": os.getpid()}))


def read_heartbeat(path: str) -> Optional[dict]:
    """The last complete heartbeat, or None (absent / torn write)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


class HeartbeatMonitor:
    """Tracks one worker's heartbeat file; answers "is it stale?".

    ``timeout`` is seconds (measured monotonically) without observed
    *progress* before the worker counts as hung.  The clock starts at
    construction (process launch), so a worker that never beats at all
    also times out.
    """

    def __init__(self, path: str, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.path = path
        self.timeout = timeout
        self._last_seen: Optional[dict] = None
        self._last_progress = None
        self._changed_at = time.monotonic()

    def poll(self) -> Optional[dict]:
        """Re-read the file; returns the latest heartbeat (or None)."""
        doc = read_heartbeat(self.path)
        if doc is not None:
            # Only the monotonic counter counts; a doc without one (or
            # whose only change is its wall-clock ``time``) is no progress.
            progress = doc.get("progress")
            if progress != self._last_progress:
                self._last_progress = progress
                self._changed_at = time.monotonic()
            self._last_seen = doc
        return self._last_seen

    @property
    def last(self) -> Optional[dict]:
        return self._last_seen

    def age(self) -> float:
        """Seconds since progress was last observed (or since launch)."""
        return time.monotonic() - self._changed_at

    def stale(self) -> bool:
        return self.age() > self.timeout
