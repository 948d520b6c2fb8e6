"""Chaos harness: seeded fault sweeps with the sanitizer armed.

``python -m repro chaos`` runs the tiny full-system workload (the
selftest footprint: 48x36, two clusters) through a fixed catalog of
fault-injection scenarios, each at several seeds, with the runtime
sanitizer armed and checkpoint round-trip verification on.  The contract
under test is the health subsystem's own: **every injected fault either
degrades gracefully or dies loudly** —

* ``ok`` — the run completed; faults were absorbed by retries /
  checkpoints / display re-show (graceful degradation);
* ``violation`` — a typed :class:`~repro.sanitize.violations.
  SanitizerViolation` caught the failure at the moment an invariant
  broke, with a triage bundle written;
* ``detected`` — a wrapped :class:`~repro.common.events.SimulationError`
  (watchdog report, event-budget hang guard) named the failure, with a
  triage bundle written;
* ``FAILED`` — anything else: a bare traceback or a silent hang.  This is
  the only outcome that fails the sweep (and CI).

Each scenario run is budgeted (``--budget-events``) so a livelock the
sanitizer somehow misses still terminates as ``detected`` rather than
hanging the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.events import SimulationError
from repro.health import FaultConfig, HealthConfig, RetryConfig
from repro.sanitize.sanitizer import SanitizeConfig
from repro.sanitize.violations import SanitizerViolation

DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_BUDGET = 2_000_000

#: Sanitizer thresholds for chaos runs: tight enough that a stuck request
#: is flagged by the sanitizer's age scans *before* the watchdog's
#: retry-ladder-stretched deadline turns it into a generic report, loose
#: enough that injected delays and retry recoveries stay below them.
CHAOS_SANITIZE = SanitizeConfig(
    max_block_age=80_000,
    mshr_age=120_000,
    dram_queue_age=120_000,
    inflight_age=120_000,
    link_age=120_000,
    liveness_window=100_000,
)


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault configuration swept per seed."""

    name: str
    faults: FaultConfig                 # seed is overridden per sweep run
    retry: Optional[RetryConfig] = None
    expect: str = "ok"                  # documentation of the usual outcome


#: The catalog: every fault class alone and in combination, with and
#: without the retry ladder that makes drops recoverable.
SCENARIOS = (
    ChaosScenario("baseline", FaultConfig()),
    ChaosScenario("reply-delay", FaultConfig(dram_delay=0.05)),
    ChaosScenario("noc-spike", FaultConfig(noc_spike=0.08)),
    ChaosScenario("display-underrun", FaultConfig(display_underrun=0.2)),
    ChaosScenario("reply-drop-retry", FaultConfig(dram_drop=0.02),
                  retry=RetryConfig()),
    ChaosScenario("combined-retry",
                  FaultConfig(dram_drop=0.02, dram_delay=0.05,
                              noc_spike=0.05, display_underrun=0.1),
                  retry=RetryConfig()),
    ChaosScenario("reply-drop-unprotected", FaultConfig(dram_drop=0.03),
                  expect="violation"),
)


@dataclass
class ChaosResult:
    """Outcome of one (scenario, seed) run."""

    scenario: str
    seed: int
    outcome: str                        # ok | violation | detected | FAILED
    detail: str = ""
    bundle: Optional[str] = None
    end_tick: int = 0
    violations: int = 0
    expected: str = "ok"                # the scenario's documented outcome

    @property
    def failed(self) -> bool:
        return self.outcome == "FAILED"

    @property
    def unexpected_violation(self) -> bool:
        """A violation in a scenario not cataloged to produce one —
        machine consumers (the fleet, CI) treat this as a failure."""
        return self.outcome == "violation" and self.expected != "violation"

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "outcome": self.outcome, "expected": self.expected,
                "detail": self.detail, "bundle": self.bundle,
                "end_tick": self.end_tick, "violations": self.violations}


@dataclass
class ChaosReport:
    """Everything one sweep produced."""

    results: list[ChaosResult] = field(default_factory=list)

    @property
    def failures(self) -> list[ChaosResult]:
        return [r for r in self.results if r.failed]

    @property
    def unexpected_violations(self) -> list[ChaosResult]:
        return [r for r in self.results if r.unexpected_violation]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Machine-readable summary (per-scenario outcomes, bundle paths)
        for the fleet and CI to consume."""
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return {
            "schema": "repro-chaos-summary/1",
            "ok": self.ok,
            "counts": counts,
            "unexpected_violations": len(self.unexpected_violations),
            "bundles": [r.bundle for r in self.results if r.bundle],
            "results": [r.to_dict() for r in self.results],
        }


def _run_config(scenario: ChaosScenario, seed: int, frames: int,
                sanitize: SanitizeConfig):
    from repro.soc.soc import tiny_run_config
    from repro.trace import TraceConfig

    return tiny_run_config(
        num_frames=frames,
        seed=seed,
        health=HealthConfig(
            watchdog=True,
            faults=replace(scenario.faults, seed=seed),
            retry=scenario.retry,
            checkpoint_every=1,
            error_policy="wrap"),
        # Tracing rides every chaos run so a failure's triage bundle
        # carries the trace tail leading up to the violation.
        trace=TraceConfig(),
        sanitize=sanitize,
    )


def run_one(scenario: ChaosScenario, seed: int, *,
            budget_events: int = DEFAULT_BUDGET, frames: int = 2,
            bundle_dir: Optional[str] = None) -> ChaosResult:
    """Run one scenario at one seed; never lets an exception escape."""
    from repro.harness.scenes import SceneSession
    from repro.soc.soc import EmeraldSoC

    sanitize = replace(
        CHAOS_SANITIZE, bundle_dir=bundle_dir,
        command=(f"python -m repro chaos --scenario {scenario.name} "
                 f"--seeds {seed} --budget-events {budget_events}"))
    config = _run_config(scenario, seed, frames, sanitize)
    session = SceneSession("cube", config.width, config.height)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    try:
        results = soc.run(max_events=budget_events)
    except SanitizerViolation as violation:
        return ChaosResult(scenario.name, seed, "violation",
                           detail=str(violation),
                           bundle=violation.bundle_path,
                           end_tick=soc.events.now,
                           violations=len(soc.sanitizer.violations),
                           expected=scenario.expect)
    except SimulationError as error:
        return ChaosResult(scenario.name, seed, "detected",
                           detail=str(error), end_tick=soc.events.now,
                           expected=scenario.expect)
    except Exception as exc:            # the contract breach chaos exists
        return ChaosResult(scenario.name, seed, "FAILED",   # to catch
                           detail=f"{type(exc).__name__}: {exc}",
                           end_tick=soc.events.now,
                           expected=scenario.expect)
    return ChaosResult(scenario.name, seed, "ok",
                       detail=(f"{results.noc_retries} retries, "
                               f"{results.display_aborted} aborted frames, "
                               f"{results.checkpoints_taken} checkpoints"),
                       end_tick=results.end_tick,
                       violations=results.sanitizer_violations,
                       expected=scenario.expect)


def run_chaos(seeds=DEFAULT_SEEDS, *, budget_events: int = DEFAULT_BUDGET,
              frames: int = 2, bundle_dir: Optional[str] = None,
              scenarios=SCENARIOS,
              progress=None) -> ChaosReport:
    """Sweep every scenario across ``seeds``; returns the full report."""
    report = ChaosReport()
    for scenario in scenarios:
        for seed in seeds:
            result = run_one(scenario, seed, budget_events=budget_events,
                             frames=frames, bundle_dir=bundle_dir)
            report.results.append(result)
            if progress is not None:
                progress(result)
    return report


def format_report(report: ChaosReport) -> str:
    lines = [f"{'scenario':<24} {'seed':>4}  {'outcome':<10} detail",
             "-" * 72]
    for r in report.results:
        lines.append(f"{r.scenario:<24} {r.seed:>4}  {r.outcome:<10} "
                     f"{r.detail[:80]}")
    counts = {}
    for r in report.results:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    summary = ", ".join(f"{count} {outcome}"
                        for outcome, count in sorted(counts.items()))
    lines.append("-" * 72)
    lines.append(f"{len(report.results)} runs: {summary}")
    return "\n".join(lines)
