"""run_sampled: refusals before it simulates, independent windows.

``extrapolate`` needs at least two measured windows.  A schedule that
yields fewer must fail before the first window runs, with the same
:class:`ExtrapolationError` ``extrapolate`` would raise after the last.

Each detailed window starts from the functional pass's snapshot at its
start and from nothing else, so it must run exactly as if it had been
entered from a *detailed* snapshot at that boundary (check 4 of the
mode-switch contract, window by window), and no window's SoC may still
be alive when the next one is built.
"""

import gc
import weakref
from dataclasses import replace

import pytest

import repro.sampling.sampler as sampler
from repro.harness.case_study1 import CS1Config, make_cs1_setup
from repro.health import HealthConfig
from repro.sampling import (ExtrapolationError, WindowSchedule,
                            parse_sample_spec, run_sampled,
                            switch_fingerprint)
from repro.soc.soc import EmeraldSoC

from tests.sampling.test_handoff import micro_point


def _no_session():
    raise AssertionError("run_sampled started a window of a schedule it "
                         "must refuse")


@pytest.mark.parametrize("schedule,windows", [
    # The CLI's one-window case: 2:12:1 over 5 frames.
    (parse_sample_spec("2:12:1", 5), 1),
    # A leading functional window covers the whole run.
    (WindowSchedule(total_frames=3, period=8, detail=2, warmup=1,
                    offset=5), 0),
])
def test_too_few_measured_windows_are_refused_before_any_window(schedule,
                                                               windows):
    assert schedule.measured_windows() == windows
    run_config, _ = make_cs1_setup(
        "M1", "BAS", "high", CS1Config(num_frames=schedule.total_frames))
    with pytest.raises(ExtrapolationError) as excinfo:
        run_sampled(run_config, _no_session, schedule)
    assert excinfo.value.windows == windows


def detailed_snapshot(run_config, factory, frame_index):
    """A detailed-mode snapshot at ``frame_index`` (None at frame 0)."""
    if frame_index == 0:
        return None
    config = replace(run_config, num_frames=frame_index,
                     health=HealthConfig(checkpoint_every=frame_index))
    session = factory()
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    soc.run()
    return soc.checkpoints.last


@pytest.mark.slow
@pytest.mark.full_system
@pytest.mark.parametrize("schedule", [
    # offset > 0: F[0,1) D[1,3) F[3,4) D[4,6)
    WindowSchedule(total_frames=6, period=3, detail=2, warmup=1, offset=1),
    # detail == period, back to back: D[0,2) D[2,4)
    WindowSchedule(total_frames=4, period=2, detail=2, warmup=1),
    # truncated final window measuring nothing: ... D[6,7)
    WindowSchedule(total_frames=7, period=3, detail=2, warmup=1),
], ids=["offset", "back-to-back", "truncated-tail"])
def test_each_window_runs_as_if_entered_from_a_detailed_snapshot(
        monkeypatch, schedule):
    run_config, factory, _ = micro_point()
    run_config = replace(run_config, num_frames=schedule.total_frames)
    observed = []
    original = sampler.measure_window

    def observing(config, window, session, checkpoint=None):
        soc, results, sample = original(config, window, session, checkpoint)
        observed.append((window, sample, switch_fingerprint(soc, results)))
        return soc, results, sample

    monkeypatch.setattr(sampler, "measure_window", observing)
    run_sampled(run_config, factory, schedule)

    detailed = [w for w in schedule.windows() if w.kind == "detailed"]
    assert [window for window, _, _ in observed] == detailed
    for window, sample, fingerprint in observed:
        config = replace(run_config, num_frames=window.end,
                         health=HealthConfig())
        soc, results, oracle_sample = original(
            config, window, factory(),
            detailed_snapshot(run_config, factory, window.start))
        # A window measuring nothing (the truncated tail) yields None.
        assert (sample is None) == (window.measured_frames == 0)
        assert sample == oracle_sample, window
        assert fingerprint == switch_fingerprint(soc, results), window


@pytest.mark.full_system
def test_a_window_soc_is_freed_before_the_next_window_is_built(
        monkeypatch):
    built = []
    original_init = EmeraldSoC.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(EmeraldSoC, "__init__", recording_init)
    run_config, factory, schedule = micro_point()
    alive_at_each_call = []

    def checking_factory():
        alive_at_each_call.append(
            sum(ref() is not None for ref in built))
        return factory()

    # With the collector off, only an explicit collection frees a SoC
    # (it sits in reference cycles).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_sampled(run_config, checking_factory, schedule)
    finally:
        if was_enabled:
            gc.enable()
    assert len(built) == 2
    # The functional pass, then one call per detailed window.
    assert alive_at_each_call == [0, 0, 0]
    assert [ref() for ref in built] == [None, None]
