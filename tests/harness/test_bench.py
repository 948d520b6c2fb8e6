"""Tier-1 coverage for the sampled-simulation gate (repro.bench).

The micro scale keeps these fast enough for every test run; CI's ffwd
job runs the smoke scale through the CLI.  The Fig. 14 and pipeline
fingerprints are golden tests (tests/soc/test_port_fabric.py,
``TestBenchPins``).
"""

import json

import pytest

from repro import bench


@pytest.fixture(scope="module")
def micro_ffwd():
    return bench.run_ffwd("micro")


class TestMicroRuns:
    def test_micro_run_reproduces_its_golden(self, micro_ffwd):
        """The estimates, the ground truth and their errors are
        deterministic simulation quantities: pinned to the digit."""
        report = micro_ffwd
        assert report["errors"] == {"gpu_time": 0.04858,
                                    "total_time": 0.06861,
                                    "dram_bytes": 0.04356,
                                    "energy_uj": 0.04406}
        assert report["full_detail"]["per_frame"] == {
            "gpu_time": 6312.1429, "total_time": 20709.4286,
            "dram_bytes": 120265.1429, "energy_uj": 1.0425}
        means = {name: estimate["mean"] for name, estimate
                 in report["sampled"]["estimates"].items()}
        assert means == {"gpu_time": 6005.5, "total_time": 19288.5,
                         "dram_bytes": 125504.0, "energy_uj": 0.99659}
        assert report["sampled"]["windows"] == 2
        assert report["identity"] == {"fb_crc": 1794369063}
        assert report["identical"]

    def test_report_shape(self, micro_ffwd):
        report = micro_ffwd
        for key in ("benchmark", "scale", "workload", "full_detail",
                    "sampled", "ffwd", "errors", "error_bound",
                    "identical", "identity", "speedup_sampled_vs_full",
                    "host"):
            assert key in report
        assert report["benchmark"] == "ffwd"
        assert report["error_bound"] == 0.10
        # The artifact must round-trip through JSON (CI uploads it).
        assert json.loads(json.dumps(report)) == report

    def test_write_report(self, micro_ffwd, tmp_path):
        path = bench.write_report(micro_ffwd, tmp_path / "artifacts")
        assert path.name == "BENCH_ffwd.json"
        assert json.loads(path.read_text())["benchmark"] == "ffwd"

    def test_format_summary(self, micro_ffwd):
        text = bench.format_summary(micro_ffwd)
        assert "ffwd (micro)" in text
        assert "48x36 x8 frames, sample 3:4:2" in text
        assert "(75% coverage, 2 windows)" in text
        assert "fb CRC identical: True" in text
        assert ("extrapolation error (bound 10%): gpu_time 4.86%  "
                "total_time 6.86%  dram_bytes 4.36%  energy_uj 4.41%"
                in text)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            bench.run_ffwd("huge")


def _fake_ffwd_report(**overrides):
    report = {
        "benchmark": "ffwd",
        "identical": True,
        "ffwd": {"final_fb_crc": 7},
        "full_detail": {"fb_crc": 7, "wall_s": 2.0},
        "sampled": {"wall_s": 1.0},
        "errors": {"gpu_time": 0.01, "dram_bytes": 0.02},
        "error_bound": 0.05,
        "speedup_sampled_vs_full": 2.0,
    }
    report.update(overrides)
    return report


class TestGate:
    def test_passes_clean_report(self):
        assert bench.gate(_fake_ffwd_report()) == []

    def test_fails_on_identity_mismatch(self):
        report = _fake_ffwd_report(identical=False,
                                   ffwd={"final_fb_crc": 999})
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "CRC 999 != full-detail 7" in failures[0]

    def test_noise_allowance(self):
        # A sampled run within the noise band of full detail passes; the
        # allowance is the only speed check and it is a ratio of two runs
        # in the same process, never an absolute time.
        report = _fake_ffwd_report(speedup_sampled_vs_full=0.95)
        assert bench.gate(report) == []
        failures = bench.gate(report, min_speedup=0.99)
        assert len(failures) == 1 and "slower" in failures[0]

    def test_ffwd_failures_are_reported(self):
        report = _fake_ffwd_report(identical=False, errors={"gpu_time": 0.08})
        failures = bench.gate(report)
        assert len(failures) == 2
        assert "mode switch" in failures[0]
        assert "gpu_time" in failures[1] and "5% bound" in failures[1]
