#!/usr/bin/env python3
"""Fold perfbench records from alternating parent/change pairs.

Each record is one ``python3 perfbench/run.py --seed S --out FILE`` run:
every workload, untraced then traced.  Run the pairs alternating which
side goes first, and give the records pair by pair, parent first::

    python3 benchmarks/fold_perf.py parent-1.json change-1.json \\
        parent-2.json change-2.json ... > BENCH_perf.json

At least five pairs, and every record must share one seed and one
``--seconds``.  Per workload the output holds:

* for each end-to-end metric of ``BENCHMARK.json``, its unit, direction
  and bound, each side's runs with their quartiles (``statistics``'
  inclusive method), and which pairs the change won;
* the attempted and failed operation counts on each side;
* the median traced layer table on each side, and whether every traced
  run of both sides fired the same events and ended on the same
  simulated results (``events.fired`` and ``sim.*``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MIN_PAIRS = 5


class FoldError(ValueError):
    """The records cannot be folded into one comparison."""


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "q1": q1, "median": median, "q3": q3}


def _values(records: list, run: str, metric: str) -> list:
    return [record["runs"][run]["metrics"][metric]["value"]
            for record in records]


def fold_workload(workload: str, parents: list, changes: list,
                  spec: dict) -> dict:
    untraced, traced = f"{workload} trace=0", f"{workload} trace=1"
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = _values(parents, untraced, name)
        change = _values(changes, untraced, name)
        higher = metric["better"] == "higher"
        wins = [(c > p) if higher else (c < p)
                for p, c in zip(parent, change)]
        end_to_end[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "parent": quartiles(parent), "change": quartiles(change),
            "change_wins": sum(wins), "wins": wins,
        }
    sides = {"parent": parents, "change": changes}
    folded = {"end_to_end": end_to_end}
    for count in ("attempted", "failed"):
        folded[count] = {
            side: sum(record["runs"][run][count]
                      for record in records for run in (untraced, traced))
            for side, records in sides.items()}
    layers = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        layers[name] = {"unit": metric["unit"]}
        for side, records in sides.items():
            layers[name][side] = statistics.median(
                _values(records, traced, name))
    schedule = [name for name in layers
                if name == "events.fired" or name.startswith("sim.")]
    folded["same_schedule"] = all(
        len(set(_values(parents + changes, traced, name))) == 1
        for name in schedule)
    folded["layers"] = layers
    return folded


def fold(records: list, spec: dict) -> dict:
    """Records pair by pair, parent first -> one document."""
    if len(records) % 2:
        raise FoldError(f"{len(records)} records do not form "
                        f"parent/change pairs")
    pairs = len(records) // 2
    if pairs < MIN_PAIRS:
        raise FoldError(f"{pairs} pairs: at least {MIN_PAIRS} are needed "
                        f"for quartiles and a win count")
    for key in ("seed", "seconds"):
        seen = {record[key] for record in records}
        if len(seen) != 1:
            raise FoldError(f"records differ in {key}: {sorted(seen)}")
    workloads = [w["name"] for w in spec["workloads"]]
    for index, record in enumerate(records):
        missing = [f"{w} trace={t}" for w in workloads for t in (0, 1)
                   if f"{w} trace={t}" not in record["runs"]]
        if missing:
            raise FoldError(f"record {index + 1} lacks {missing}")
    parents, changes = records[0::2], records[1::2]
    return {
        "generated_by": "python3 benchmarks/fold_perf.py",
        "recorded_with": (f"python3 perfbench/run.py --seed "
                          f"{records[0]['seed']} --seconds "
                          f"{records[0]['seconds']} --out FILE"),
        "seed": records[0]["seed"],
        "seconds": records[0]["seconds"],
        "pairs": pairs,
        "workloads": {workload: fold_workload(workload, parents, changes,
                                              spec)
                      for workload in workloads},
    }


def main(argv: list) -> int:
    spec = json.loads(SPEC.read_text())
    try:
        records = [json.loads(Path(path).read_text()) for path in argv]
        document = fold(records, spec)
    except (OSError, ValueError) as exc:   # FoldError, malformed JSON
        print(f"fold_perf: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(document, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
