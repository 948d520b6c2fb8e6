"""Tracing a bounded-NoC run: completes, stays bit-identical, records
the backpressure (regression for the tap-retry livelock)."""

import zlib

import pytest

from repro.harness.scenes import SceneSession
from repro.soc.soc import EmeraldSoC
from repro.trace import TraceConfig, validate_trace
from tests.health.full_system import (HEIGHT, WIDTH, tiny_config,
                                     with_link_budget)

pytestmark = [pytest.mark.slow, pytest.mark.full_system]


def _bounded_soc(traced):
    session = SceneSession("cube", WIDTH, HEIGHT)
    config = with_link_budget(tiny_config(num_frames=2),
                              capacity=32, bytes_per_cycle=4.0)
    if traced:
        config.trace = TraceConfig()
    return EmeraldSoC(config, session.frame, session.framebuffer_address)


def test_traced_bounded_run_is_bit_identical_to_untraced():
    base = _bounded_soc(traced=False)
    base_results = base.run()
    traced = _bounded_soc(traced=True)
    traced_results = traced.run()

    assert traced_results.end_tick == base_results.end_tick
    assert traced.events.events_fired == base.events.events_fired
    assert (zlib.crc32(traced.gpu.fb.color.tobytes())
            == zlib.crc32(base.gpu.fb.color.tobytes()))
    assert traced_results.mean_latency == base_results.mean_latency

    trace = traced.tracer.to_dict()
    warnings = validate_trace(trace)
    assert all("async" in w for w in warnings)
    # Backpressure is visible: every reject ("busy") has a matching wake.
    instants = [r["name"] for r in trace["traceEvents"] if r["ph"] == "i"]
    assert instants.count("busy") > 0
    assert instants.count("busy") == instants.count("retry")
