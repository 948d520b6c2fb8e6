"""Fault injection: config parsing, determinism, NoC retry recovery, and
the ISSUE acceptance scenarios (deadlock-vs-retry on a full-system run)."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort
from repro.health import (FaultConfig, FaultInjector, HealthConfig,
                          RetryConfig)
from repro.health.watchdog import Watchdog, WatchdogTimeout
from repro.memory.builders import build_memory_by_name
from repro.memory.request import MemRequest, SourceType
from repro.soc.noc import SystemNoC
from tests.health.full_system import build_soc


class TestFaultConfigParse:
    def test_parse_full_spec(self):
        config = FaultConfig.parse(
            "dram_drop=0.01, noc_spike=0.05, noc_spike_ticks=300, seed=9")
        assert config.dram_drop == 0.01
        assert config.noc_spike == 0.05
        assert config.noc_spike_ticks == 300
        assert config.seed == 9
        assert config.active()

    def test_parse_empty_is_inactive(self):
        assert not FaultConfig.parse("").active()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultConfig.parse("cosmic_ray=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            FaultConfig.parse("dram_drop=often")

    def test_tick_fields_are_integers(self):
        config = FaultConfig.parse("dram_delay_ticks=750")
        assert config.dram_delay_ticks == 750
        assert isinstance(config.dram_delay_ticks, int)


def _request(i=0):
    return MemRequest(address=0x100 * i, size=64, write=False,
                      source=SourceType.GPU)


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        config = FaultConfig(seed=5, dram_drop=0.3, dram_delay=0.3,
                             noc_spike=0.3)
        a, b = FaultInjector(config), FaultInjector(config)
        for i in range(200):
            assert a.reply_fate(_request(i)) == b.reply_fate(_request(i))
            assert (a.noc_extra_latency(_request(i))
                    == b.noc_extra_latency(_request(i)))

    def test_fault_classes_use_independent_streams(self):
        """Enabling the spike stream must not change which replies drop."""
        drop_only = FaultInjector(FaultConfig(seed=5, dram_drop=0.3))
        drop_and_spike = FaultInjector(
            FaultConfig(seed=5, dram_drop=0.3, noc_spike=0.5))
        fates = []
        for injector in (drop_only, drop_and_spike):
            seq = []
            for i in range(200):
                injector.noc_extra_latency(_request(i))
                seq.append(injector.reply_fate(_request(i))[0])
            fates.append(seq)
        assert fates[0] == fates[1]


class TestInjectorRNGCheckpointing:
    def decisions(self, injector, start, count=50):
        out = []
        for i in range(start, start + count):
            out.append((injector.reply_fate(_request(i)),
                        injector.noc_extra_latency(_request(i)),
                        injector.display_underrun_now()))
        return out

    def test_state_roundtrip_resumes_mid_stream(self):
        """A fresh injector restored from a mid-run snapshot reproduces the
        original's *subsequent* decisions — the property a resumed run
        needs to replay the uninterrupted run's fault pattern."""
        import json

        config = FaultConfig(seed=11, dram_drop=0.3, dram_delay=0.3,
                             noc_spike=0.3, display_underrun=0.3)
        original = FaultInjector(config)
        self.decisions(original, 0)                 # advance all 4 streams
        state = original.rng_state()
        # The snapshot must survive a JSON round trip (checkpoint format).
        state = json.loads(json.dumps(state))
        resumed = FaultInjector(config)
        resumed.restore_rng(state)
        assert (self.decisions(original, 50)
                == self.decisions(resumed, 50))

    def test_unrestored_injector_diverges(self):
        """Control: without the restore, a resumed run replays the stream
        from the start and sees a different fault pattern."""
        config = FaultConfig(seed=11, dram_drop=0.3, dram_delay=0.3,
                             noc_spike=0.3, display_underrun=0.3)
        original = FaultInjector(config)
        self.decisions(original, 0)
        fresh = FaultInjector(config)
        assert (self.decisions(original, 50)
                != self.decisions(fresh, 50))

    def test_restore_tolerates_missing_streams(self):
        """Old snapshots may predate a stream; restore is best-effort per
        stream rather than all-or-nothing."""
        injector = FaultInjector(FaultConfig(seed=3, dram_drop=0.5))
        partial = {"drop": injector.rng_state()["drop"]}
        FaultInjector(FaultConfig(seed=3, dram_drop=0.5)).restore_rng(
            partial)

    def test_state_covers_every_stream(self):
        state = FaultInjector(FaultConfig()).rng_state()
        assert sorted(state) == ["delay", "display", "drop", "spike"]


class _ScriptedInjector:
    """Duck-typed injector with a predetermined reply-fate sequence."""

    def __init__(self, fates):
        self._fates = list(fates)

    def noc_extra_latency(self, request):
        return 0

    def reply_fate(self, request):
        return self._fates.pop(0) if self._fates else ("deliver", 0)

    def display_underrun_now(self):
        return False


class TestNoCRetryPath:
    def _noc(self, events, injector, retry):
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        return SystemNoC(events, memory, latency=5, injector=injector,
                         retry=retry)

    def test_dropped_reply_recovered_by_retry(self):
        events = EventQueue()
        noc = self._noc(events, _ScriptedInjector([("drop", 0)]),
                        RetryConfig(timeout=500, max_retries=2))
        done = []
        request = MemRequest(address=0x40, size=64, write=False,
                             source=SourceType.CPU, callback=done.append)
        RequestPort("cpu0.mem").connect(noc).send(request)
        result = events.run()
        assert result.drained
        assert done == [request]                  # original object delivered
        assert done[0].complete_time is not None  # clone's state copied back
        assert done[0].attempt == 1               # one retry was needed
        assert noc.stats.counter("retries").value == 1

    def test_delayed_duplicate_delivered_exactly_once(self):
        """Original reply delayed past the retry deadline: the retry's reply
        and the late original both arrive — the issuer hears once."""
        events = EventQueue()
        noc = self._noc(events, _ScriptedInjector([("delay", 5_000)]),
                        RetryConfig(timeout=500, max_retries=2))
        done = []
        RequestPort("cpu0.mem").connect(noc).send(MemRequest(
            address=0x40, size=64, write=False, source=SourceType.CPU,
            callback=done.append))
        result = events.run()
        assert result.drained
        assert len(done) == 1
        assert noc.stats.counter("duplicate_replies").value == 1

    def test_exhausted_retries_left_for_watchdog(self):
        events = EventQueue()
        memory, _ = build_memory_by_name("BAS", events, DRAMConfig(channels=1))
        wd = Watchdog(events, request_timeout=50_000, check_period=1_000)
        injector = _ScriptedInjector([("drop", 0)] * 10)    # every attempt
        noc = SystemNoC(events, memory, latency=5, watchdog=wd,
                        injector=injector,
                        retry=RetryConfig(timeout=500, max_retries=2,
                                          backoff=2.0))
        RequestPort("cpu0.mem").connect(noc).send(MemRequest(
            address=0xDEAD, size=64, write=False, source=SourceType.CPU,
            source_id=0))
        with pytest.raises(WatchdogTimeout) as excinfo:
            events.run()
        assert noc.stats.counter("retries").value == 2
        assert noc.stats.counter("retries_exhausted").value == 1
        assert excinfo.value.report.address == 0xDEAD
        assert excinfo.value.report.attempt == 2


class TestWatchdogRetryCoherence:
    def test_ladder_ticks(self):
        retry = RetryConfig(timeout=1_000, max_retries=3, backoff=2.0)
        assert retry.ladder_ticks() == 1_000 + 2_000 + 4_000 + 8_000

    def test_soc_watchdog_outlasts_retry_ladder(self):
        """With both armed, the effective watchdog deadline must cover the
        whole retry ladder — else the watchdog reports requests the NoC is
        still recovering (seen with the CLI defaults)."""
        retry = RetryConfig()        # ladder 375k > default watchdog 150k
        health = HealthConfig(watchdog=True, retry=retry)
        soc = build_soc(num_frames=1, health=health)
        assert soc.watchdog.request_timeout >= retry.ladder_ticks()

    def test_soc_watchdog_timeout_unchanged_without_retries(self):
        health = HealthConfig(watchdog=True, watchdog_timeout=42_000)
        soc = build_soc(num_frames=1, health=health)
        assert soc.watchdog.request_timeout == 42_000


INJECTION = FaultConfig(seed=11, dram_drop=0.05)


@pytest.mark.full_system
class TestAcceptanceScenarios:
    """The ISSUE acceptance criteria, end to end on the tiny SoC."""

    def test_deadlock_detected_not_hung(self):
        """Replies suppressed, retries disabled: the watchdog turns a hang
        into a bounded-time report naming the owner and request age."""
        health = HealthConfig(watchdog=True, watchdog_timeout=30_000,
                              watchdog_check_period=1_000, faults=INJECTION)
        soc = build_soc(num_frames=1, health=health)
        with pytest.raises(WatchdogTimeout) as excinfo:
            soc.run()
        report = excinfo.value.report
        assert report.owner          # names the stuck component
        # Bounded detection: one check period past the deadline, at most.
        assert 30_000 <= report.age <= 30_000 + 2_000
        assert soc.injector.stats.counter("replies_dropped").value >= 1

    def test_same_injection_recovers_with_retries(self, clean_run):
        """Same faults + retries: the frame completes with an identical
        framebuffer and only degraded timing."""
        clean_results, clean_fb = clean_run
        health = HealthConfig(watchdog=True, faults=INJECTION,
                              retry=RetryConfig(timeout=2_000, max_retries=4))
        soc = build_soc(num_frames=1, health=health)
        results = soc.run()
        assert soc.loop.finished
        assert results.noc_retries >= 1
        assert results.watchdog_reports == 0
        assert np.array_equal(soc.gpu.fb.color, clean_fb)
        assert results.end_tick >= clean_results.end_tick   # timing only

    def test_injected_runs_are_deterministic(self):
        """Same seed + same injection config => identical stats."""
        def injected_run():
            health = HealthConfig(
                watchdog=True, faults=INJECTION,
                retry=RetryConfig(timeout=2_000, max_retries=4))
            soc = build_soc(num_frames=1, health=health)
            results = soc.run()
            return results, soc.gpu.fb.color.copy()

        first, fb_first = injected_run()
        second, fb_second = injected_run()
        assert first.end_tick == second.end_tick
        assert first.noc_retries == second.noc_retries
        assert first.mean_gpu_time == second.mean_gpu_time
        assert first.dram_bytes == second.dram_bytes
        assert np.array_equal(fb_first, fb_second)

    def test_health_off_paths_bit_identical(self, clean_run):
        """Watchdog-only runs (no injection) must not perturb the model:
        every timing stat matches the health-free baseline exactly."""
        clean_results, clean_fb = clean_run
        soc = build_soc(num_frames=1,
                        health=HealthConfig(watchdog=True))
        results = soc.run()
        assert results.end_tick == clean_results.end_tick
        assert results.mean_gpu_time == clean_results.mean_gpu_time
        assert results.dram_bytes == clean_results.dram_bytes
        assert results.row_hit_rate == clean_results.row_hit_rate
        assert np.array_equal(soc.gpu.fb.color, clean_fb)
