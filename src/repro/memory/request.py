"""Memory request records shared by every IP model and the DRAM system."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional


class SourceType(enum.Enum):
    """Which IP issued a request — drives scheduler classification."""

    CPU = "cpu"
    GPU = "gpu"
    DISPLAY = "display"


@dataclass
class MemRequest:
    """One DRAM transaction (typically a cache-line fill or writeback).

    ``source``/``source_id`` identify the requester (e.g. CPU core 2);
    ``callback`` fires at completion with the request as argument.
    ``deadline`` is an optional absolute tick by which the issuer expects a
    reply — the health watchdog reports requests that outlive it;
    ``attempt`` counts NoC-level retries (0 = first issue).

    ``route`` is the response path: every
    :class:`~repro.common.ports.RequestPort` the packet traverses pushes
    itself here, and :func:`~repro.common.ports.respond` unwinds the stack
    LIFO at completion before firing ``callback``.
    """

    address: int
    size: int
    write: bool
    source: SourceType
    source_id: int = 0
    issue_time: int = 0
    callback: Optional[Callable[["MemRequest"], Any]] = None
    metadata: dict = field(default_factory=dict)
    complete_time: Optional[int] = None
    deadline: Optional[int] = None
    attempt: int = 0
    route: list = field(default_factory=list, repr=False)

    @property
    def latency(self) -> int:
        if self.complete_time is None:
            raise RuntimeError("request not complete yet")
        return self.complete_time - self.issue_time

    @property
    def owner(self) -> str:
        """Human-readable requester tag (e.g. ``cpu2``, ``display``)."""
        if self.source is SourceType.CPU:
            return f"{self.source.value}{self.source_id}"
        return self.source.value

    def clone_for_retry(self) -> "MemRequest":
        """A fresh copy to re-inject after a lost reply.

        Completion state is reset and the attempt counter bumped; the clone
        carries its own callback wiring and response route (built as the
        retry layer re-injects it), never the original's.  ``metadata`` IS
        shared — the retry layer keys its flight state there so original
        and clones resolve to one delivery decision.
        """
        return replace(self, callback=None, complete_time=None,
                       issue_time=0, attempt=self.attempt + 1, route=[])

