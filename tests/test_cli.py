"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "chair" in out
        assert "M1" in out
        assert "W6" in out

    def test_render(self, capsys, tmp_path):
        output = tmp_path / "cube.ppm"
        assert main(["render", "cube", "--width", "48", "--height", "36",
                     "--clusters", "2", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "cycles=" in out
        assert output.exists()
        assert output.read_bytes().startswith(b"P6\n48 36\n")

    def test_render_with_wt(self, capsys):
        assert main(["render", "triangles", "--width", "48", "--height",
                     "36", "--clusters", "2", "--wt", "3"]) == 0
        assert "WT=3" in capsys.readouterr().out

    def test_unknown_model_errors(self):
        with pytest.raises(KeyError):
            main(["render", "nonexistent", "--width", "32", "--height",
                  "32"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cs1_validation(self):
        with pytest.raises(SystemExit):
            main(["cs1", "M9", "BAS"])

    def test_cs1_bad_inject_spec_rejected(self, capsys):
        """The fault spec is validated before the (expensive) run starts,
        and a bad one is a one-line refusal, not a traceback."""
        assert main(["cs1", "M1", "BAS", "--inject", "bogus=1"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("bad cs1 invocation: unknown fault 'bogus'")
        assert out.count("\n") == 1

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest OK" in out
        assert "watchdog_reports=0" in out

    def test_selftest_sanitize(self, capsys):
        """--sanitize arms the invariant layer AND proves detection works
        by catching one deliberately planted violation."""
        assert main(["selftest", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "selftest OK" in out
        assert "sanitizer: checks=" in out
        assert "violations=0" in out
        assert ("deliberate-violation detection: caught LostRetryViolation"
                in out)

    def test_chaos_unknown_scenario_exits_2(self, capsys):
        assert main(["chaos", "--scenario", "nonexistent"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_chaos_single_scenario(self, capsys, tmp_path):
        assert main(["chaos", "--scenario", "baseline", "--seeds", "1",
                     "--frames", "1", "--budget-events", "400000",
                     "--bundle-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "1 runs:" in out
        assert "CONTRACT BREACH" not in out

    def test_chaos_summary_json(self, capsys, tmp_path):
        import json
        summary = tmp_path / "summary.json"
        assert main(["chaos", "--scenario", "baseline", "--seeds", "1",
                     "--frames", "1", "--budget-events", "400000",
                     "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["schema"] == "repro-chaos-summary/1"
        assert doc["ok"] is True
        assert doc["results"][0]["scenario"] == "baseline"
        assert doc["results"][0]["expected"] == "ok"
        assert doc["unexpected_violations"] == 0

    def test_chaos_expected_violation_exits_0(self, capsys, tmp_path):
        """The catalog documents reply-drop-unprotected as a violation
        scenario; producing one is the contract working, not a failure."""
        assert main(["chaos", "--scenario", "reply-drop-unprotected",
                     "--seeds", "1", "--budget-events", "200000",
                     "--bundle-dir", str(tmp_path)]) == 0
        assert "UNEXPECTED VIOLATION" not in capsys.readouterr().out

    def test_chaos_unexpected_violation_exits_3(self, capsys, monkeypatch,
                                                tmp_path):
        """A violation in a scenario cataloged as clean is a regression:
        still a typed, bundled death, but CI must go red."""
        from repro.sanitize import chaos as chaos_module

        def fake_run_chaos(seeds, **kwargs):
            return chaos_module.ChaosReport(results=[
                chaos_module.ChaosResult("baseline", 1, "violation",
                                         detail="leak", expected="ok")])
        monkeypatch.setattr(chaos_module, "run_chaos", fake_run_chaos)
        summary = tmp_path / "summary.json"
        assert main(["chaos", "--seeds", "1",
                     "--summary", str(summary)]) == 3
        assert "UNEXPECTED VIOLATION: baseline" in capsys.readouterr().out
        import json
        assert json.loads(summary.read_text())["unexpected_violations"] == 1


class TestBenchCLI:
    def test_gate_passes_on_a_micro_run(self, capsys, monkeypatch,
                                        tmp_path):
        from functools import partial

        from repro import bench

        # The sampled-vs-full wall-clock ratio follows the host's speed
        # during two short runs; this checks the machine-independent
        # part of the gate (CRC identity and the error bounds).
        monkeypatch.setattr(bench, "gate",
                            partial(bench.gate, min_speedup=0.0))
        assert main(["bench", "--scale", "micro", "--only", "ffwd",
                     "--gate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH GATE" not in out
        assert (tmp_path / "BENCH_ffwd.json").exists()

    def test_gate_fails_when_a_bound_is_crossed(self, capsys, monkeypatch):
        from repro import bench

        point = bench._ffwd_operating_point
        monkeypatch.setattr(bench, "_ffwd_operating_point",
                            lambda scale: point(scale)[:3] + (0.01,))
        assert main(["bench", "--scale", "micro", "--gate"]) == 1
        out = capsys.readouterr().out
        assert ("BENCH GATE: ffwd: gpu_time extrapolation error 4.86% "
                "exceeds the 1% bound" in out)


class TestFfwdCLI:
    """A frame count, ffwd count or sampling spec the run cannot honour
    is a one-line refusal with exit 2, not a traceback."""

    def _refused(self, capsys, argv) -> str:
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("bad ffwd invocation: ")
        return out

    def test_ffwd_past_the_last_frame_exits_2(self, capsys):
        out = self._refused(capsys, ["ffwd", "M1", "BAS", "--ffwd", "18"])
        assert "need 0 < ffwd < 5, got 18" in out

    def test_malformed_sample_spec_exits_2(self, capsys):
        out = self._refused(capsys, ["ffwd", "M1", "BAS", "--sample", "3:2"])
        assert "detail must be in [1, period=2], got 3" in out

    def test_sample_spec_with_one_window_exits_2(self, capsys):
        out = self._refused(capsys, ["ffwd", "M1", "BAS", "--load", "high",
                                     "--sample", "2:12:1"])
        assert "a single detailed window has no variance estimate" in out


class TestFleetCLI:
    def test_kill_spec_parsing(self):
        from repro.__main__ import _parse_kill_specs
        assert _parse_kill_specs(["cube-s1:1", "cube-s2:0"]) == {
            "cube-s1": [{"kill_at_frame": 1}],
            "cube-s2": [{"kill_at_frame": 0}]}
        assert _parse_kill_specs(None) == {}

    def test_bad_kill_spec_exits_2(self, capsys):
        assert main(["fleet", "--kill", "no-frame"]) == 2
        assert "NAME:FRAME" in capsys.readouterr().out
        assert main(["fleet", "--kill", "job:one"]) == 2

    def test_bad_jobs_file_exits_2(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text('[{"name": "a", "speed": 9}]')
        assert main(["fleet", "--jobs", str(jobs)]) == 2
        assert "unknown job spec" in capsys.readouterr().out
        jobs.write_text('{"name": "a"}')       # not a list
        assert main(["fleet", "--jobs", str(jobs)]) == 2

    def test_unknown_memory_config_exits_2_before_any_worker(self, capsys,
                                                             tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text('[{"name": "x", "memory_config": "XYZ"}]')
        work = tmp_path / "work"
        assert main(["fleet", "sweep", "--jobs", str(jobs),
                     "--workdir", str(work)]) == 2
        out = capsys.readouterr().out
        assert "bad fleet invocation: unknown memory_config 'XYZ'" in out
        assert not work.exists()            # no server, so no worker ran

    def test_job_name_reused_for_different_spec_exits_2(self, capsys,
                                                         tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text('[{"name": "a", "seed": 1}, '
                        '{"name": "a", "seed": 2}]')
        assert main(["fleet", "--jobs", str(jobs),
                     "--workdir", str(tmp_path / "work")]) == 2
        out = capsys.readouterr().out
        assert "bad fleet invocation: job name 'a' already taken" in out

    @pytest.mark.slow
    @pytest.mark.full_system
    def test_fleet_sweep_then_cached_rerun(self, capsys, tmp_path):
        """The CI smoke shape: a 2-job sweep with one injected kill
        completes, and the rerun is served entirely from cache."""
        import json
        cache = str(tmp_path / "cache")
        summary = tmp_path / "summary.json"
        common = ["fleet", "--seeds", "1,2", "--frames", "2",
                  "--workers", "2", "--cache-dir", cache,
                  "--backoff-base", "0.01"]
        assert main(common + ["--workdir", str(tmp_path / "w1"),
                              "--kill", "cube-s1:1",
                              "--summary", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "2 ok" in out
        assert "triage bundles:" in out        # the kill left evidence
        doc = json.loads(summary.read_text())
        assert doc["schema"] == "repro-fleet-report/1"
        assert doc["ok"] is True
        assert doc["executed"] == 3            # 2 jobs + 1 retry

        assert main(common + ["--workdir", str(tmp_path / "w2"),
                              "--expect-cached"]) == 0
        assert "2 cache hits" in capsys.readouterr().out

    @pytest.mark.slow
    @pytest.mark.full_system
    def test_expect_cached_fails_on_cold_cache(self, capsys, tmp_path):
        assert main(["fleet", "--seeds", "1", "--frames", "1",
                     "--workers", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--workdir", str(tmp_path / "work"),
                     "--expect-cached"]) == 1
        assert "EXPECTED CACHE-ONLY RERUN" in capsys.readouterr().out

    @pytest.mark.slow
    @pytest.mark.full_system
    def test_rerun_in_same_workdir_passes_expect_cached(self, capsys,
                                                        tmp_path):
        """The journal serves a finished sweep rerun in its own workdir:
        no worker runs, although no job is a cache hit this time."""
        common = ["fleet", "--seeds", "1", "--frames", "1",
                  "--workers", "1", "--workdir", str(tmp_path / "work")]
        assert main(common) == 0
        capsys.readouterr()
        assert main(common + ["--expect-cached"]) == 0
        assert "1 ok; 0 worker processes" in capsys.readouterr().out

    @pytest.mark.slow
    @pytest.mark.full_system
    def test_dse_grid_changed_in_same_workdir_exits_2(self, capsys,
                                                      tmp_path):
        grid = ["dse", "--clusters", "2", "--stacks", "1", "--rates",
                "1333", "--workers", "1", "--workdir", str(tmp_path / "w")]
        assert main(grid + ["--frames", "1"]) == 0
        capsys.readouterr()
        assert main(grid + ["--frames", "2"]) == 2
        assert "bad dse invocation: job name" in capsys.readouterr().out
