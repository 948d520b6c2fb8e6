"""Display controller: vsync-paced scanout DMA with deadline aborts.

Every refresh period the controller scans the front buffer out of DRAM in
sequential bursts — the canonical "IP with sequential accesses" HMC was
designed around.  Scanout is paced so that, when memory keeps up, the last
burst completes just before the next vsync.  When the controller falls
behind its expected progress by more than ``abort_fraction`` of a period,
it aborts the frame (re-using the previous image) and retries at the next
vsync — the feedback loop Fig. 14's analysis hinges on.

Progress is reported into the DASH state (when present) so the scheduler
sees the display the way the paper's does: a frame that just started has
low expected progress and is therefore *non-urgent* (Fig. 14-6).
"""

from __future__ import annotations

from typing import Optional

from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.common.stats import StatGroup
from repro.memory.dash import DashState
from repro.memory.request import MemRequest, SourceType


class DisplayController:
    def __init__(self, events: EventQueue, memory_port,
                 framebuffer_address: int, frame_bytes: int,
                 period_ticks: int, burst_bytes: int = 256,
                 outstanding: int = 4, abort_fraction: float = 0.5,
                 dash_state: Optional[DashState] = None,
                 injector=None) -> None:
        if frame_bytes <= 0 or period_ticks <= 0:
            raise ValueError("frame_bytes and period_ticks must be positive")
        self.events = events
        # Scanout bursts leave through a timing port so a bounded NoC link
        # can backpressure the DMA engine (stalled bursts count toward the
        # deadline, feeding the abort loop).
        self.port = RequestPort("display.mem", owner=self,
                                on_retry=self._retry_send)
        self.port.connect(memory_port)
        self._blocked: Optional[MemRequest] = None
        self.injector = injector
        self.framebuffer_address = framebuffer_address
        self.frame_bytes = frame_bytes
        self.period_ticks = period_ticks
        self.burst_bytes = burst_bytes
        self.outstanding_limit = outstanding
        self.abort_fraction = abort_fraction
        self.dash_state = dash_state
        self.stats = StatGroup("display")
        self._running = False
        self._cursor = 0
        self._in_flight = 0
        self._frame_start = 0
        self._aborted = False
        self._trace_open = False    # a scanout span is open on "display"
        self._bursts_per_frame = (frame_bytes + burst_bytes - 1) // burst_bytes
        # Pace issue so the frame finishes with ~10% slack.
        self._issue_interval = max(1, int(period_ticks * 0.9
                                          / self._bursts_per_frame))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.events.schedule(0, self._vsync)

    def stop(self) -> None:
        self._running = False

    # -- scanout ------------------------------------------------------------------

    def _vsync(self) -> None:
        if not self._running:
            return
        # A span still open from the previous period means scanout never
        # finished before this vsync.
        self._trace_scanout_end("overrun")
        self.stats.counter("vsyncs").add()
        self._frame_start = self.events.now
        self._cursor = 0
        self._aborted = False
        self._blocked = None        # a stale-frame burst is dropped
        self._trace_scanout_begin()
        if self.dash_state is not None:
            self.dash_state.start_ip_period(SourceType.DISPLAY,
                                            self.events.now)
        if (self.injector is not None
                and self.injector.display_underrun_now()):
            # Injected underrun: the scanout engine misses its fetch window
            # this refresh; the frame aborts and the old image is re-shown.
            self.stats.counter("underruns").add()
            self._abort_frame()
        self._issue()
        self.events.schedule(self.period_ticks, self._vsync, owner="display")

    def _progress(self) -> float:
        return self._cursor / self._bursts_per_frame

    def _behind_schedule(self) -> bool:
        elapsed = self.events.now - self._frame_start
        expected = elapsed / self.period_ticks
        return (expected - self._progress()) > self.abort_fraction

    def _issue(self) -> None:
        if self._aborted or not self._running:
            return
        if self._cursor >= self._bursts_per_frame:
            return
        if self._behind_schedule():
            self._abort_frame()
            return
        while (self._blocked is None
               and self._in_flight < self.outstanding_limit
               and self._cursor < self._bursts_per_frame):
            address = (self.framebuffer_address
                       + self._cursor * self.burst_bytes)
            request = MemRequest(address=address, size=self.burst_bytes,
                                 write=False, source=SourceType.DISPLAY,
                                 callback=self._completed)
            if not self.port.try_send(request):
                # Backpressure: park the burst until the port's retry.
                self.stats.counter("stalled_sends").add()
                self._blocked = request
                break
            self._cursor += 1
            self._in_flight += 1
            self.stats.counter("requests").add()
        if self.dash_state is not None:
            self.dash_state.report_ip_progress(SourceType.DISPLAY,
                                               self._progress(),
                                               self.events.now)

    def _completed(self, request: MemRequest) -> None:
        self._in_flight -= 1
        self.stats.counter("bytes").add(request.size)
        self.stats.histogram("latency").record(request.latency)
        if self._aborted:
            return
        if self._cursor >= self._bursts_per_frame and self._in_flight == 0:
            self._trace_scanout_end("complete")
            self.stats.counter("frames_completed").add()
            margin = (self._frame_start + self.period_ticks
                      - self.events.now)
            self.stats.histogram("completion_margin").record(margin)
            return
        # Pace the next burst.
        self.events.schedule(self._issue_interval, self._issue,
                             owner="display")

    def _retry_send(self) -> None:
        request = self._blocked
        if request is None:
            return
        if self._aborted or not self._running:
            self._blocked = None
            return
        if self.port.try_send(request):
            self._blocked = None
            self._cursor += 1
            self._in_flight += 1
            self.stats.counter("requests").add()
            self._issue()

    def _abort_frame(self) -> None:
        self._aborted = True
        self._blocked = None
        self._trace_scanout_end("abort")
        tracer = self.events.tracer
        if tracer is not None:
            tracer.instant("display", "frame_abort")
        self.stats.counter("frames_aborted").add()

    # -- tracing ---------------------------------------------------------------

    def _trace_scanout_begin(self) -> None:
        tracer = self.events.tracer
        if tracer is not None:
            tracer.begin("display", "scanout")
            self._trace_open = True

    def _trace_scanout_end(self, outcome: str) -> None:
        if not self._trace_open:
            return
        self._trace_open = False
        tracer = self.events.tracer
        if tracer is not None:
            tracer.end("display", "scanout", args={"outcome": outcome})

    # -- results ---------------------------------------------------------------

    @property
    def frames_completed(self) -> int:
        return self.stats.counter("frames_completed").value

    @property
    def frames_aborted(self) -> int:
        return self.stats.counter("frames_aborted").value

    @property
    def requests_serviced(self) -> int:
        return self.stats.counter("requests").value
