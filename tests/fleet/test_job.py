"""JobSpec validation and the attempt/job failure taxonomy."""

import json

import pytest

from repro.fleet.job import (ATTEMPT_OUTCOMES, JOB_OUTCOMES, RETRYABLE,
                             JobAttempt, JobRecord, JobSpec, JobSpecError)


class TestTaxonomy:
    def test_retryable_outcomes_are_infrastructure_failures(self):
        """Only crash/hang retries; deterministic verdicts are terminal."""
        assert set(RETRYABLE) == {"crashed", "hung"}
        assert set(RETRYABLE) <= set(ATTEMPT_OUTCOMES)
        for deterministic in ("violation", "detected", "error"):
            assert deterministic in ATTEMPT_OUTCOMES
            assert deterministic in JOB_OUTCOMES
            assert deterministic not in RETRYABLE
        assert "shed" in JOB_OUTCOMES          # load shedding is job-level
        assert "shed" not in ATTEMPT_OUTCOMES  # a shed job never ran


class TestJobSpec:
    def test_defaults_round_trip(self):
        spec = JobSpec(name="cube-s7")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_faults_and_retries_round_trip(self):
        spec = JobSpec(name="j", faults={"dram_drop": 0.02}, retries=True)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_empty_name_rejected(self):
        with pytest.raises(JobSpecError, match="non-empty"):
            JobSpec(name="")

    @pytest.mark.parametrize("field", ["width", "height", "frames"])
    def test_dimensions_must_be_positive_integers(self, field):
        with pytest.raises(JobSpecError, match=field):
            JobSpec(name="j", **{field: 0})

    def test_unknown_fault_rejected(self):
        with pytest.raises(JobSpecError, match="unknown fault"):
            JobSpec(name="j", faults={"cosmic_rays": 0.5})

    def test_non_numeric_fault_rejected(self):
        with pytest.raises(JobSpecError, match="must be a number"):
            JobSpec(name="j", faults={"dram_drop": "lots"})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError, match="unknown job spec"):
            JobSpec.from_dict({"name": "j", "speed": "ludicrous"})

    def test_from_dict_requires_name(self):
        with pytest.raises(JobSpecError, match="missing 'name'"):
            JobSpec.from_dict({"seed": 1})

    def test_unknown_memory_config_rejected(self):
        with pytest.raises(JobSpecError) as excinfo:
            JobSpec(name="x", memory_config="XYZ")
        message = str(excinfo.value)
        assert "'XYZ'" in message
        assert "BAS, DCB, DTB, HMC" in message         # the Table 6 names

    def test_repro_command_carries_the_whole_spec(self):
        spec = JobSpec(name="j", width=40, height=30, frames=3,
                       memory_config="HMC", seed=4,
                       faults={"dram_drop": 0.01}, retries=True, ffwd=1)
        command = spec.repro_command()
        assert command.startswith("python -m repro fleet sweep ")
        assert '--workdir "$(mktemp -d)"' in command
        heredoc = command.split("--jobs - <<'EOF'\n", 1)[1]
        body, end = heredoc.rsplit("\n", 1)
        assert end == "EOF"
        assert [JobSpec.from_dict(doc) for doc in json.loads(body)] == [spec]

    def test_identity_excludes_the_scheduling_label(self):
        """Two names, same physics -> same identity (and same cache key)."""
        a = JobSpec(name="first", seed=3)
        b = JobSpec(name="second", seed=3)
        assert a.identity() == b.identity()
        assert "name" not in a.identity()


class TestJobRecord:
    def test_bundles_collects_across_attempts(self):
        record = JobRecord(spec=JobSpec(name="j"))
        record.attempts = [JobAttempt("crashed", bundle="/b/one"),
                           JobAttempt("ok")]
        assert record.bundles == ["/b/one"]
        assert not record.ok
        record.outcome = "ok"
        assert record.ok

    def test_to_dict_is_json_shaped(self):
        import json
        record = JobRecord(spec=JobSpec(name="j"), outcome="failed",
                           attempts=[JobAttempt("hung", detail="stale")])
        doc = json.loads(json.dumps(record.to_dict()))
        assert doc["outcome"] == "failed"
        assert doc["attempts"][0]["outcome"] == "hung"


class TestSamplingFields:
    """ffwd/sample job knobs: validation, round trip, cache identity."""

    def test_ffwd_round_trips(self):
        spec = JobSpec(name="j", frames=8, ffwd=4)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_sample_round_trips(self):
        spec = JobSpec(name="j", frames=16, sample="2:8:1")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_both_are_identity_fields(self):
        plain = JobSpec(name="j", frames=16)
        ffwd = JobSpec(name="j", frames=16, ffwd=8)
        sampled = JobSpec(name="j", frames=16, sample="2:8:1")
        identities = {str(sorted(s.identity().items()))
                      for s in (plain, ffwd, sampled)}
        assert len(identities) == 3    # distinct cache keys

    @pytest.mark.parametrize("ffwd", [-1, True, 1.5, "2"])
    def test_ffwd_must_be_a_non_negative_integer(self, ffwd):
        with pytest.raises(JobSpecError):
            JobSpec(name="j", frames=8, ffwd=ffwd)

    def test_ffwd_must_leave_a_detailed_frame(self):
        with pytest.raises(JobSpecError):
            JobSpec(name="j", frames=8, ffwd=8)

    def test_ffwd_and_sample_are_mutually_exclusive(self):
        with pytest.raises(JobSpecError):
            JobSpec(name="j", frames=16, ffwd=4, sample="2:8:1")

    @pytest.mark.parametrize("sample", [7, "nope", "0:8", "9:8"])
    def test_bad_sample_specs_rejected(self, sample):
        with pytest.raises(JobSpecError):
            JobSpec(name="j", frames=16, sample=sample)

    def test_sample_needs_two_measured_windows(self):
        # 8 frames with period 8 yields a single detailed window — not
        # enough for an error bar, rejected up front at spec time.
        with pytest.raises(JobSpecError):
            JobSpec(name="j", frames=8, sample="2:8:1")
