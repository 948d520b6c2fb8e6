"""The DSE driver: topologies -> fleet jobs -> metrics -> frontier.

Every grid point becomes one :class:`~repro.fleet.job.JobSpec` carrying
the full topology document (``collect_metrics`` asks the worker to fold
FPS / DRAM bandwidth / energy into the deterministic payload), the whole
batch goes through :func:`repro.fleet.run_sweep` — supervised workers,
heartbeat monitoring, retry/backoff, and the content-addressed result
cache, whose keys now hash the real topology — and the surviving metrics
reduce to a Pareto frontier.  Re-running the same sweep against a warm
cache, or in its own workdir, spawns no workers at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.config import SoCTopology
from repro.dse.pareto import OBJECTIVES, pareto_frontier
from repro.fleet import FleetConfig, FleetReport, JobSpec, run_sweep
from repro.fleet.job import DEFAULT_BUDGET_EVENTS

DSE_REPORT_SCHEMA = "repro-dse-report/1"


@dataclass
class DSEConfig:
    """Sweep-wide knobs (workload shape + fleet sizing)."""

    model: str = "cube"
    width: int = 48
    height: int = 36
    frames: int = 2
    seed: int = 7
    workers: int = 2
    cache_dir: Optional[str] = None
    workdir: str = "dse-work"
    budget_events: int = DEFAULT_BUDGET_EVENTS
    objectives: Sequence = OBJECTIVES
    #: Fast-forward the first N frames functionally before detailed timing
    #: (0 = full detail).  Part of the job identity — the cache never
    #: aliases fast-forwarded and full-detail evaluations.
    ffwd: int = 0
    #: Periodic-sampling spec ``DETAIL:PERIOD[:WARMUP]`` (None = full
    #: detail).  Mutually exclusive with ``ffwd``; sampled sweeps trade
    #: exactness for wall clock and report error bars per point.
    sample: Optional[str] = None


@dataclass
class DSEPoint:
    """One evaluated design point."""

    name: str
    topology: SoCTopology
    outcome: str
    cache_hit: bool = False
    metrics: Optional[dict] = None
    pareto: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "topology_hash": self.topology.topology_hash(),
            "topology": self.topology.to_dict(),
            "outcome": self.outcome,
            "cache_hit": self.cache_hit,
            "metrics": self.metrics,
            "pareto": self.pareto,
        }


@dataclass
class DSEReport:
    """Everything one sweep concluded."""

    points: list[DSEPoint] = field(default_factory=list)
    fleet: Optional[FleetReport] = None
    objectives: Sequence = OBJECTIVES

    @property
    def ok(self) -> bool:
        return all(point.outcome == "ok" for point in self.points)

    @property
    def frontier(self) -> list[DSEPoint]:
        return [point for point in self.points if point.pareto]

    def to_dict(self) -> dict:
        return {
            "schema": DSE_REPORT_SCHEMA,
            "ok": self.ok,
            "objectives": [list(objective) for objective in self.objectives],
            "points": [point.to_dict() for point in self.points],
            "frontier": [point.name for point in self.frontier],
            "fleet": (self.fleet.to_dict() if self.fleet is not None
                      else None),
        }


def dse_jobs(topologies: Sequence[SoCTopology],
             config: DSEConfig) -> list[JobSpec]:
    """One metrics-collecting job per topology, named after its point."""
    return [JobSpec(name=topology.name, model=config.model,
                    width=config.width, height=config.height,
                    frames=config.frames, seed=config.seed,
                    topology=topology.to_dict(), collect_metrics=True,
                    ffwd=config.ffwd, sample=config.sample)
            for topology in topologies]


def _point_metrics(payload_metrics: Optional[dict]) -> Optional[dict]:
    """Normalize a payload's metrics block to the objective keys.

    Detailed jobs already report ``fps`` / ``dram_bandwidth`` /
    ``energy_uj``; sampled jobs nest an extrapolation block, which is
    flattened to the same keys (energy as the whole-run projection) so
    the Pareto reduction works identically — with the full sampled block
    kept alongside for the error bars.
    """
    if payload_metrics is None or "sampled" not in payload_metrics:
        return payload_metrics
    sampled = payload_metrics["sampled"]
    return {
        "fps": sampled["fps"],
        "dram_bandwidth": sampled["dram_bandwidth"],
        "energy_uj": sampled["energy_uj_total"],
        "sampled": sampled,
    }


def run_dse(topologies: Sequence[SoCTopology],
            config: Optional[DSEConfig] = None) -> DSEReport:
    """Evaluate every topology through the fleet; reduce to a frontier."""
    config = config or DSEConfig()
    topologies = list(topologies)
    fleet_report = run_sweep(
        dse_jobs(topologies, config),
        FleetConfig(workers=config.workers, cache_dir=config.cache_dir,
                    budget_events=config.budget_events),
        workdir=config.workdir)
    report = DSEReport(fleet=fleet_report, objectives=config.objectives)
    # Identical points dedup to one fleet job: look records up by name.
    records = {record.spec.name: record for record in fleet_report.records}
    for topology in topologies:
        record = records[topology.name]
        metrics = None
        if record.payload is not None:
            metrics = _point_metrics(record.payload.get("metrics"))
        report.points.append(DSEPoint(
            name=topology.name, topology=topology,
            outcome=record.outcome, cache_hit=record.cache_hit,
            metrics=metrics))
    scored = [point for point in report.points if point.metrics is not None]
    for index in pareto_frontier([point.metrics for point in scored],
                                 objectives=config.objectives):
        scored[index].pareto = True
    return report
