"""Tier-1 coverage for the benchmark artifacts and their gate (repro.bench).

The micro scale keeps these fast enough for every test run; CI's bench
smoke job runs the smoke scale through the CLI.
"""

import json

import pytest

from repro import bench


@pytest.fixture(scope="module")
def micro_pipeline():
    return bench.run_pipeline("micro")


@pytest.fixture(scope="module")
def micro_fig14():
    return bench.run_fig14("micro")


class TestMicroRuns:
    def test_pipeline_identity(self, micro_pipeline):
        report = micro_pipeline
        assert report["pinned"] == bench.PINS["pipeline"]["micro"]
        for key, value in report["pinned"].items():
            assert report["run"][key] == value
        assert report["run"]["fragments"] > 0
        assert bench.gate(report) == []

    def test_fig14_identity(self, micro_fig14):
        report = micro_fig14
        assert report["pinned"] == bench.PINS["fig14"]["micro"]
        for key, value in report["pinned"].items():
            assert report["run"][key] == value
        assert report["run"]["events_fired"] > 0
        assert bench.gate(report) == []

    def test_drifted_run_is_reported(self, micro_pipeline):
        run = micro_pipeline["run"]
        report = dict(micro_pipeline,
                      run=dict(run, events_fired=run["events_fired"] + 1))
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "events_fired" in failures[0] and "drifted" in failures[0]
        assert "drifted on events_fired" in bench.format_summary(report)

    def test_report_shape(self, micro_pipeline):
        report = micro_pipeline
        for key in ("benchmark", "scale", "workload", "run", "pinned",
                    "wall_note", "host"):
            assert key in report
        assert "one sample" in report["wall_note"]
        # The artifact must round-trip through JSON (CI uploads it).
        assert json.loads(json.dumps(report)) == report

    def test_write_report(self, micro_pipeline, tmp_path):
        path = bench.write_report(micro_pipeline, tmp_path / "artifacts")
        assert path.name == "BENCH_pipeline.json"
        assert json.loads(path.read_text())["benchmark"] == "pipeline"

    def test_format_summary(self, micro_pipeline):
        text = bench.format_summary(micro_pipeline)
        assert "pipeline (micro)" in text
        assert "one sample" in text
        assert "matches its pins" in text

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            bench.run_pipeline("huge")
        with pytest.raises(ValueError):
            bench.run_fig14("huge")


def _fake_report(**overrides):
    pinned = {"cycles": 100, "fragments": 10, "events_fired": 50,
              "fb_crc": 123, "dram_bytes": 640}
    report = {
        "benchmark": "pipeline",
        "scale": "default",
        "run": dict(pinned, wall_s=1.0),
        "pinned": pinned,
    }
    report.update(overrides)
    return report


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
        assert bench.gate(_fake_report()) == []
        assert bench.gate(_fake_ffwd_report()) == []

    def test_fails_on_identity_mismatch(self):
        report = _fake_report(run=dict(_fake_report()["run"], fb_crc=999))
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "fb_crc 999 != pinned 123" in failures[0]

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

    def test_detects_seed_schedule_drift(self):
        report = _fake_report(run=dict(_fake_report()["run"],
                                       events_fired=51))
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "drifted" in failures[0]
        assert "events_fired" in failures[0]

    def test_seed_match_passes(self):
        # Wall times never enter the gate: only the fingerprint does.
        report = _fake_report(run=dict(_fake_report()["run"], wall_s=99.0))
        assert bench.gate(report) == []


class TestSeedBaseline:
    def test_records_identity_pins(self):
        # The default-scale pins are the schedule recorded at the seed
        # commit; if either workload's schedule legitimately changes,
        # re-pin it together with the golden tests, don't just edit these.
        assert bench.PINS["fig14"]["default"]["end_tick"] == 1_357_432
        assert bench.PINS["fig14"]["default"]["events_fired"] == 274_152
        assert bench.PINS["fig14"]["default"]["fb_crc"] == 967344438
        assert bench.PINS["pipeline"]["default"]["cycles"] == 35_612
        assert bench.PINS["pipeline"]["default"]["events_fired"] == 125_678
        assert bench.PINS["pipeline"]["default"]["fb_crc"] == 2197508556
        for name in ("fig14", "pipeline"):
            assert sorted(bench.PINS[name]) == sorted(bench.SCALES)
