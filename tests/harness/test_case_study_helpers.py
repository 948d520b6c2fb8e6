"""Unit tests for case-study sweep helpers (with synthetic results)."""

import pytest

from repro.harness.case_study1 import CS1Sweep
from repro.harness.case_study2 import PolicyComparison
from repro.soc.soc import SoCResults


def fake_results(gpu=100.0, total=200.0, display=1000, hit=0.8, bpa=400.0,
                 latency=None):
    return SoCResults(
        config_name="X", frames=[], mean_gpu_time=gpu, mean_total_time=total,
        fps_fraction=1.0, display_requests=display, display_completed=10,
        display_aborted=0, row_hit_rate=hit, bytes_per_activation=bpa,
        dram_bytes={"cpu": 0, "gpu": 0, "display": 0},
        mean_latency=latency or {"cpu": 100.0, "gpu": 200.0,
                                 "display": 50.0},
        bandwidth={"cpu": [], "gpu": [], "display": []})


class TestCS1Sweep:
    def make_sweep(self):
        sweep = CS1Sweep(load="regular")
        sweep.results[("M1", "BAS")] = fake_results(gpu=100, total=200,
                                                    display=1000)
        sweep.results[("M1", "HMC")] = fake_results(gpu=200, total=300,
                                                    display=1500, hit=0.6,
                                                    bpa=200.0)
        return sweep

    def test_normalized_gpu_time(self):
        normalized = self.make_sweep().normalized_gpu_time()
        assert normalized["M1"]["BAS"] == 1.0
        assert normalized["M1"]["HMC"] == 2.0

    def test_normalized_total_time(self):
        normalized = self.make_sweep().normalized_total_time()
        assert normalized["M1"]["HMC"] == 1.5

    def test_normalized_display_service(self):
        normalized = self.make_sweep().normalized_display_service()
        assert normalized["M1"]["HMC"] == 1.5

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            self.make_sweep().get("M9", "BAS")


class TestPolicyComparison:
    def test_speedups(self):
        comp = PolicyComparison(workload="W1", mlb=100.0, mlc=200.0,
                                sopt=80.0, dfsl=90.0, dfsl_steady=75.0,
                                dfsl_wt=3)
        assert comp.speedup_over_mlb("mlb") == 1.0
        assert comp.speedup_over_mlb("mlc") == 0.5
        assert comp.speedup_over_mlb("sopt") == pytest.approx(1.25)
        assert comp.speedup_over_mlb("dfsl_steady") == pytest.approx(4 / 3)
