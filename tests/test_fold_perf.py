"""benchmarks/fold_perf.py on synthetic perfbench records."""

import json

import pytest

from benchmarks import fold_perf

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "frames_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "job_p50_s", "unit": "s", "better": "lower",
         "bound": 0.25},
    ],
    "per_layer": [
        {"name": "events.fired", "unit": "count", "better": "lower"},
        {"name": "events.self_s", "unit": "s", "better": "lower"},
        {"name": "sim.end_tick", "unit": "ticks", "better": "lower"},
    ],
}


def _run(metrics: dict, attempted: int, failed: int = 0) -> dict:
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in metrics.items()}}


def _record(fps, p50, self_s=1.0, fired=100, seed=7, seconds=20,
            failed=0) -> dict:
    return {"seed": seed, "seconds": seconds, "runs": {
        "w trace=0": _run({"frames_per_s": fps, "job_p50_s": p50}, 3,
                          failed),
        "w trace=1": _run({"events.fired": fired, "events.self_s": self_s,
                           "sim.end_tick": 5_000}, 2),
    }}


def _alternate(parents: list, changes: list) -> list:
    return [record for pair in zip(parents, changes) for record in pair]


def _five_pairs(**change) -> list:
    parents = [_record(fps, 1.0, self_s=fps)
               for fps in (1.0, 2.0, 3.0, 4.0, 5.0)]
    changes = [_record(fps, p50, **change)
               for fps, p50 in ((2.0, 0.9), (1.0, 1.1), (4.0, 0.9),
                                (5.0, 1.0), (6.0, 0.8))]
    return _alternate(parents, changes)


class TestFold:
    def test_quartiles_and_per_pair_wins(self):
        doc = fold_perf.fold(_five_pairs(), SPEC)
        assert doc["pairs"] == 5 and doc["seed"] == 7
        fps = doc["workloads"]["w"]["end_to_end"]["frames_per_s"]
        assert (fps["unit"], fps["better"], fps["bound"]) == ("1/s",
                                                              "higher", 0.25)
        assert fps["parent"] == {"runs": [1.0, 2.0, 3.0, 4.0, 5.0],
                                 "q1": 2.0, "median": 3.0, "q3": 4.0}
        assert (fps["change"]["q1"], fps["change"]["median"],
                fps["change"]["q3"]) == (2.0, 4.0, 5.0)
        assert fps["wins"] == [True, False, True, True, True]
        assert fps["change_wins"] == 4

    def test_lower_is_better_and_a_tie_is_no_win(self):
        doc = fold_perf.fold(_five_pairs(), SPEC)
        p50 = doc["workloads"]["w"]["end_to_end"]["job_p50_s"]
        assert p50["wins"] == [True, False, True, False, True]
        assert p50["change_wins"] == 3
        assert p50["change"]["median"] == 0.9

    def test_counts_and_median_layer_table(self):
        doc = fold_perf.fold(_five_pairs(self_s=0.5, failed=1), SPEC)
        workload = doc["workloads"]["w"]
        assert workload["attempted"] == {"parent": 25, "change": 25}
        assert workload["failed"] == {"parent": 0, "change": 5}
        assert workload["layers"]["events.self_s"] == {
            "unit": "s", "parent": 3.0, "change": 0.5}
        assert workload["layers"]["events.fired"]["change"] == 100
        assert workload["same_schedule"] is True

    def test_a_changed_event_count_is_a_different_schedule(self):
        records = _five_pairs()
        records[-1]["runs"]["w trace=1"]["metrics"]["events.fired"][
            "value"] = 101
        doc = fold_perf.fold(records, SPEC)
        assert doc["workloads"]["w"]["same_schedule"] is False


class TestRefusals:
    def test_fewer_than_five_pairs(self):
        with pytest.raises(fold_perf.FoldError, match="4 pairs"):
            fold_perf.fold(_five_pairs()[:8], SPEC)

    def test_records_not_in_pairs(self):
        with pytest.raises(fold_perf.FoldError, match="pairs"):
            fold_perf.fold(_five_pairs()[:9], SPEC)

    @pytest.mark.parametrize("key", ["seed", "seconds"])
    def test_records_that_differ_in_seed_or_seconds(self, key):
        records = _five_pairs()
        records[3][key] = 8
        with pytest.raises(fold_perf.FoldError, match=f"differ in {key}"):
            fold_perf.fold(records, SPEC)

    def test_a_record_without_a_workload_run(self):
        records = _five_pairs()
        del records[4]["runs"]["w trace=1"]
        with pytest.raises(fold_perf.FoldError, match="record 5 lacks"):
            fold_perf.fold(records, SPEC)

    def test_cli_refusal_is_one_line_and_exit_2(self, tmp_path, capsys):
        paths = []
        for index, record in enumerate(_five_pairs()[:4]):
            path = tmp_path / f"r{index}.json"
            path.write_text(json.dumps(record))
            paths.append(str(path))
        assert fold_perf.main(paths) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fold_perf: 2 pairs")
        assert captured.err.count("\n") == 1
