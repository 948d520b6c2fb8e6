"""run_sampled refuses a schedule it cannot extrapolate before it simulates.

``extrapolate`` needs at least two measured windows.  A schedule that
yields fewer must fail before the first window runs, with the same
:class:`ExtrapolationError` ``extrapolate`` would raise after the last.
"""

import pytest

from repro.harness.case_study1 import CS1Config, make_cs1_setup
from repro.sampling import (ExtrapolationError, WindowSchedule,
                            parse_sample_spec, run_sampled)


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
