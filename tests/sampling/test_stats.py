"""Hand-computed extrapolation statistics (the SimPoint error-bar math).

Every expected value here is worked by hand from the formulas in the
:mod:`repro.sampling.stats` docstring, so a regression in the math cannot
hide behind the code computing its own expectations.
"""

import math

import pytest

from repro.sampling.stats import (SAMPLE_METRICS, ExtrapolatedRun,
                                  ExtrapolationError, SampledEstimate,
                                  WindowSample, extrapolate, t975)


def sample(start, gpu=0.0, total=0.0, dram=0.0, energy=0.0):
    return WindowSample(start=start, end=start + 2, measured_frames=1,
                        gpu_time=gpu, total_time=total, dram_bytes=dram,
                        energy_uj=energy)


class TestExtrapolate:
    def test_hand_computed_mean_std_stderr(self):
        # gpu_time observations 2, 4, 6: mean 4, variance (4+0+4)/2 = 4,
        # std 2, stderr 2/sqrt(3).
        samples = [sample(0, gpu=2.0), sample(8, gpu=4.0), sample(16, gpu=6.0)]
        est = extrapolate(samples)["gpu_time"]
        assert est.mean == pytest.approx(4.0)
        assert est.std == pytest.approx(2.0)
        assert est.stderr == pytest.approx(2.0 / math.sqrt(3.0))
        assert est.windows == 3

    def test_ci95_is_mean_plus_minus_t_stderr(self):
        samples = [sample(0, total=10.0), sample(8, total=14.0)]
        est = extrapolate(samples)["total_time"]
        # mean 12, std sqrt((4+4)/1) = 2*sqrt(2), stderr std/sqrt(2) = 2;
        # 2 windows -> 1 degree of freedom, t(0.975, 1) = 12.706.
        assert est.mean == pytest.approx(12.0)
        assert est.stderr == pytest.approx(2.0)
        low, high = est.ci95
        assert low == pytest.approx(12.0 - 12.706 * 2.0)
        assert high == pytest.approx(12.0 + 12.706 * 2.0)

    def test_three_window_ci95_uses_t_with_two_degrees_of_freedom(self):
        # gpu_time observations 2, 4, 6: mean 4, stderr 2/sqrt(3);
        # t(0.975, 2) = 4.303.
        samples = [sample(0, gpu=2.0), sample(8, gpu=4.0), sample(16, gpu=6.0)]
        low, high = extrapolate(samples)["gpu_time"].ci95
        half = 4.303 * 2.0 / math.sqrt(3.0)
        assert low == pytest.approx(4.0 - half)
        assert high == pytest.approx(4.0 + half)

    def test_identical_windows_have_zero_error_bar(self):
        samples = [sample(0, dram=512.0), sample(8, dram=512.0)]
        est = extrapolate(samples)["dram_bytes"]
        assert est.mean == pytest.approx(512.0)
        assert est.std == 0.0
        assert est.stderr == 0.0
        assert est.relative_stderr == 0.0

    def test_every_sample_metric_is_estimated(self):
        samples = [sample(0, 1, 2, 3, 4), sample(8, 5, 6, 7, 8)]
        estimates = extrapolate(samples)
        assert set(estimates) == set(SAMPLE_METRICS)
        assert estimates["energy_uj"].mean == pytest.approx(6.0)

    def test_zero_windows_is_a_typed_error_not_nan(self):
        with pytest.raises(ExtrapolationError) as excinfo:
            extrapolate([])
        assert excinfo.value.windows == 0

    def test_single_window_is_a_typed_error_not_nan(self):
        with pytest.raises(ExtrapolationError) as excinfo:
            extrapolate([sample(0, gpu=3.0)])
        assert excinfo.value.windows == 1

    def test_unknown_metric_name_rejected(self):
        with pytest.raises(KeyError):
            sample(0).metric("row_hit_rate")


class TestExtrapolatedRun:
    def run(self, total_time=20.0, dram=100.0, energy=3.0):
        samples = [sample(0, 1.0, total_time, dram, energy),
                   sample(8, 1.0, total_time, dram, energy)]
        return ExtrapolatedRun(estimates=extrapolate(samples),
                               total_frames=24, frame_period_ticks=1000,
                               samples=samples)

    def test_fps_follows_the_fleet_convention(self):
        # 1e6 ticks / mean total frame time.
        assert self.run(total_time=20.0).fps == pytest.approx(1e6 / 20.0)

    def test_totals_scale_per_frame_means_by_run_length(self):
        run = self.run(dram=100.0, energy=3.0)
        assert run.dram_bytes_total == pytest.approx(100.0 * 24)
        assert run.energy_uj_total == pytest.approx(3.0 * 24)
        assert run.dram_bandwidth == pytest.approx(100.0 / 1000)

    def test_as_dict_carries_windows_and_estimates(self):
        doc = self.run().as_dict()
        assert doc["total_frames"] == 24
        assert len(doc["windows"]) == 2
        assert set(doc["estimates"]) == set(SAMPLE_METRICS)
        est = doc["estimates"]["total_time"]
        assert est["mean"] == pytest.approx(20.0)
        assert est["ci95"] == [pytest.approx(20.0), pytest.approx(20.0)]


class TestT975:
    @pytest.mark.parametrize("df,quantile", [
        (1, 12.706), (2, 4.303), (3, 3.182), (10, 2.228), (120, 1.980)])
    def test_tabulated_quantiles(self, df, quantile):
        assert t975(df) == quantile

    @pytest.mark.parametrize("df,quantile", [
        (11, 2.228), (14, 2.228), (59, 2.042), (1000, 1.980)])
    def test_untabulated_df_takes_the_next_smaller_row(self, df, quantile):
        # The smaller df's quantile is the larger one: the interval errs
        # wide, never narrow.
        assert t975(df) == quantile

    def test_zero_degrees_of_freedom_rejected(self):
        with pytest.raises(ValueError):
            t975(0)


class TestSampledEstimate:
    def test_relative_stderr_guards_zero_mean(self):
        est = SampledEstimate(metric="gpu_time", mean=0.0, std=1.0,
                              stderr=0.5, windows=4)
        assert est.relative_stderr == 0.0

    def test_as_dict_shape(self):
        # 4 windows -> 3 degrees of freedom, t(0.975, 3) = 3.182.
        est = SampledEstimate(metric="gpu_time", mean=10.0, std=2.0,
                              stderr=1.0, windows=4)
        doc = est.as_dict()
        assert doc == {
            "metric": "gpu_time", "mean": 10.0, "std": 2.0, "stderr": 1.0,
            "ci95": [pytest.approx(10.0 - 3.182),
                     pytest.approx(10.0 + 3.182)],
            "windows": 4,
        }
