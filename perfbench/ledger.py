"""Host-time ledger: per-layer self time, measured from outside the simulator.

The ledger never edits the program.  It rides two public seams:

* the event kernel's ``EventQueue.tracer`` hook.  Every queue built while
  the ledger is installed gets it as its tracer (a duck-typed
  ``repro.trace.Tracer`` whose span and counter hooks do nothing).
  ``kernel_fired`` stamps ``perf_counter_ns`` and charges the interval to
  the layer that owns the firing callback; a ``Ticker`` event is charged to
  the component that registered the ticker.  The callback runs through a
  trampoline that stamps its return, so the time between one callback's
  return and the next fire is the kernel's own;
* wrappers around public entry points that run nested inside callbacks
  (shader warps, rasterization, the DRAM schedulers' ``choose``, checkpoint
  capture and restore, the fleet journal and cache).  A wrapper switches the
  charged layer for its duration, so each layer's total is its *self* time:
  its own time minus the nested layers it called.

Every interval is charged to exactly one layer, so the layers sum to the
ledger's lifetime.  Time spent outside every kernel callback and wrapper
(the benchmark's own loop, system assembly) lands in ``harness``; the
ledger's per-event callback lookup lands in ``ledger``.  The rest of its
cost (the hook calls themselves) stays in the layers it interrupts, which
is why a traced run reports its overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns

#: Module prefix -> layer, most specific first.  Frame generation
#: (``harness.scenes`` and ``gl``) is GL command-stream work, charged with
#: the functional pipeline; ``gl.trace`` is checkpoint serialization.
MODULE_LAYERS = (
    ("repro.common.events", "events"),
    ("repro.gpu.simt_core", "simt"),
    ("repro.shader", "shader"),
    ("repro.pipeline.raster", "raster"),
    ("repro.pipeline", "pipeline"),
    ("repro.gl.trace", "checkpoint"),
    ("repro.gl", "pipeline"),
    ("repro.harness.scenes", "pipeline"),
    ("repro.gpu", "gpu"),
    ("repro.memory.frfcfs", "memory.frfcfs"),
    ("repro.memory.dash", "memory.dash"),
    ("repro.memory", "memory"),
    ("repro.common.ports", "noc"),
    ("repro.soc.noc", "noc"),
    ("repro.soc.checkpoint", "checkpoint"),
    ("repro.soc", "soc"),
    ("repro.sampling", "sampling"),
    ("repro.fleet", "fleet"),
)

#: Layers the benchmark reports a ``<layer>.self_s`` for.  ``other``
#: (modules no row above names), ``harness`` and ``ledger`` (the ledger's
#: own bookkeeping per event) make up the unaccounted part.
LAYERS = ("events", "simt", "shader", "raster", "pipeline", "gpu", "memory",
          "memory.frfcfs", "memory.dash", "noc", "soc", "checkpoint",
          "sampling", "fleet")
UNACCOUNTED = ("other", "harness", "ledger")

#: Nested entry points: (module, attribute path, layer, span name).  A span
#: accumulates the call's inclusive time and call count.
SIM_ENTRY_POINTS = (
    ("repro.common.events", "EventQueue.run", "events", None),
    ("repro.shader.dispatch", "CompiledProgram.run", "shader", "shader.run"),
    ("repro.pipeline.raster", "rasterize", "raster", None),
    ("repro.pipeline.vertex", "run_vertex_shading", "pipeline", None),
    ("repro.pipeline.clip", "assemble_and_clip", "pipeline", None),
    ("repro.pipeline.shading_env", "FragmentShaderEnv.tex", "pipeline", None),
    ("repro.pipeline.shading_env", "FragmentShaderEnv.fb_read", "pipeline",
     None),
    ("repro.pipeline.shading_env", "FragmentShaderEnv.fb_write", "pipeline",
     None),
    ("repro.pipeline.shading_env", "FragmentShaderEnv.zread", "pipeline",
     None),
    ("repro.pipeline.shading_env", "FragmentShaderEnv.zwrite", "pipeline",
     None),
    ("repro.harness.scenes", "SceneSession.frame", "pipeline", None),
    ("repro.memory.frfcfs", "FRFCFSScheduler.choose", "memory.frfcfs", None),
    ("repro.memory.dash", "DashScheduler.choose", "memory.dash", None),
    ("repro.soc.checkpoint", "capture", "checkpoint", "checkpoint.capture"),
    ("repro.soc.checkpoint", "GraphicsCheckpoint.to_json", "checkpoint",
     "checkpoint.capture"),
    ("repro.soc.checkpoint", "GraphicsCheckpoint.from_json", "checkpoint",
     "checkpoint.restore"),
    ("repro.soc.checkpoint", "GraphicsCheckpoint.restore_frames",
     "checkpoint", "checkpoint.restore"),
    ("repro.sampling.functional", "FunctionalSim.run", "sampling", None),
)
FLEET_ENTRY_POINTS = (
    ("repro.fleet.journal", "JobJournal.append", "fleet",
     "journal.append"),
    ("repro.fleet.cache", "ResultCache.lookup", "fleet", "cache.lookup"),
    ("repro.fleet.cache", "ResultCache.store", "fleet", "cache.store"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Ledger:
    """Installable host-time ledger; use as a context manager.

    ``self_ns[layer]`` is the layer's self time; ``span_ns`` / ``span_calls``
    the inclusive time and call count of each named span;
    ``shader_insts`` the dynamic warp instructions the shader spans
    executed; ``checkpoint_bytes`` the trace bytes the captures recorded.
    """

    def __init__(self, entry_points=SIM_ENTRY_POINTS,
                 kernel: bool = True) -> None:
        """``kernel`` attaches the ledger to every event queue built while
        it is installed; off for the fleet, whose simulators run in forked
        workers that would inherit it."""
        self.entry_points = entry_points
        self.kernel = kernel
        self.self_ns: dict = defaultdict(int)
        self.span_ns: dict = defaultdict(int)
        self.span_calls: dict = defaultdict(int)
        self.fired = 0
        self.shader_insts = 0
        self.checkpoint_bytes = 0
        self.current = "harness"
        self._t = 0
        self._pending = None
        self._layer_cache: dict = {}
        self._restore: list = []
        from repro.common.events import Ticker
        self._ticker_fire = Ticker._fire

    # -- charging --------------------------------------------------------

    def _switch(self, layer: str) -> None:
        now = perf_ns()
        self.self_ns[self.current] += now - self._t
        self._t = now
        self.current = layer

    def close(self) -> None:
        """Charge the open interval (call before reading ``self_ns``)."""
        self._switch(self.current)

    def snapshot(self) -> dict:
        """Every accumulator, charged up to now, as one flat dict."""
        self.close()
        flat = {("self", layer): ns for layer, ns in self.self_ns.items()}
        flat.update({("span", span): ns for span, ns in self.span_ns.items()})
        flat.update({("calls", span): calls
                     for span, calls in self.span_calls.items()})
        flat.update({("count", "fired"): self.fired,
                     ("count", "shader_insts"): self.shader_insts,
                     ("count", "checkpoint_bytes"): self.checkpoint_bytes})
        return flat

    def _callback_layer(self, callback) -> str:
        func = getattr(callback, "__func__", callback)
        if func is self._ticker_fire:
            # A Ticker reschedules itself; the work is its client's.
            callback = callback.__self__._callback
            func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", None) or type(func)
        layer = self._layer_cache.get(key)
        if layer is None:
            module = (getattr(func, "__module__", None)
                      or type(func).__module__)
            layer = self._layer_cache[key] = layer_of_module(module)
        return layer

    # -- EventQueue.tracer duck type --------------------------------------

    def kernel_fired(self, event) -> None:
        start = perf_ns()
        self.self_ns[self.current] += start - self._t
        self.fired += 1
        callback = event.callback
        self.current = self._callback_layer(callback)
        self._pending = (event, callback)
        event.callback = self._trampoline
        # The lookup above is the ledger's own cost, not the kernel's.
        self._t = perf_ns()
        self.self_ns["ledger"] += self._t - start

    def _trampoline(self, *args) -> None:
        event, callback = self._pending
        event.callback = callback
        try:
            callback(*args)
        finally:
            self._switch("events")

    def kernel_scheduled(self, event) -> None:
        pass

    def begin(self, *args, **kwargs) -> None:
        pass

    end = complete = instant = counter = begin
    async_begin = async_end = snapshot_stats = begin

    def enabled(self, cat: str) -> bool:
        return False

    def next_async_id(self) -> int:
        return 0

    # -- installation -----------------------------------------------------

    def _wrap(self, func, layer: str, span):
        ledger = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            start = perf_ns()
            ledger.self_ns[ledger.current] += start - ledger._t
            ledger._t = start
            previous, ledger.current = ledger.current, layer
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_ns()
                ledger.self_ns[ledger.current] += end - ledger._t
                ledger._t = end
                ledger.current = previous
                if span is not None:
                    ledger.span_ns[span] += end - start
                    ledger.span_calls[span] += 1
            if span == "shader.run":
                ledger.shader_insts += len(result.trace.ops)
            elif span == "checkpoint.capture" and hasattr(result,
                                                           "trace_json"):
                ledger.checkpoint_bytes += len(result.trace_json)
            return result

        return timed

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Ledger":
        for module_name, path, layer, span in self.entry_points:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr,
                                classmethod(self._wrap(raw.__func__, layer,
                                                       span)))
                else:
                    self._patch(owner, attr, self._wrap(raw, layer, span))
                continue
            # A module-level function is also bound by name wherever it
            # was imported with ``from ... import``; patch every binding.
            original = getattr(module, path)
            timed = self._wrap(original, layer, span)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and loaded.__dict__.get(path) is original):
                    self._patch(loaded, path, timed)
        if self.kernel:
            from repro.common.events import EventQueue
            init = EventQueue.__init__
            ledger = self

            def attach(queue, *args, **kwargs):
                init(queue, *args, **kwargs)
                queue.tracer = ledger

            self._patch(EventQueue, "__init__", attach)
        self._t = perf_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)
