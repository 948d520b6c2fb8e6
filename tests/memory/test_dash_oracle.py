"""DashScheduler against the O(queue) reference pick, in lockstep.

Each side gets its own :class:`DashState` built from the same config and
seed, and both see the same random stream of enqueues, picks, open-row
changes, TCM traffic (so reclusters move cores between clusters), IP
progress reports (so urgency flips) and switching draws.  Every pick
must choose the same entry, and the switching RNGs must end in the same
state: the per-source scheduler may not reorder a single draw.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.memory.dash import DashConfig, DashScheduler, DashState
from repro.memory.dram import QueuedRequest
from repro.memory.request import MemRequest, SourceType
from tests.memory.dash_reference import ReferenceDashScheduler

CPUS = [(SourceType.CPU, core) for core in range(4)]
IPS = (SourceType.GPU, SourceType.DISPLAY)
BANKS = 4
ROWS = 3


def _source(rng):
    # GPU-heavy like the Fig. 14 unit, with every CPU core in play.
    roll = rng.random()
    if roll < 0.5:
        return SourceType.GPU, 0
    if roll < 0.6:
        return SourceType.DISPLAY, 0
    return rng.choice(CPUS)


def _class_of(state, entry):
    request = entry.request
    if request.source is SourceType.CPU:
        return ("intensive" if state.classifier.is_intensive(
            request.source_id) else "nonintensive")
    return "urgent" if state.ip_state(request.source).urgent else "ip"


def run_lockstep(seed, steps=2500):
    """Drive both schedulers through one random schedule; returns what
    the run exercised (class wins, clusterings, urgency flips)."""
    rng = random.Random(seed)
    config = dict(scheduling_unit=100, switching_unit=rng.choice((20, 50)),
                  quantum=rng.choice((150, 400)),
                  include_ip_bandwidth=rng.random() < 0.5, seed=seed)
    periods = {ip: rng.choice((600, 1500)) for ip in IPS}
    states = [DashState(DashConfig(**config)) for _ in range(2)]
    for state in states:
        for ip, period in periods.items():
            state.register_ip(ip, period_ticks=period)
    new, reference = DashScheduler(states[0]), ReferenceDashScheduler(
        states[1])
    banks = [SimpleNamespace(open_row=None) for _ in range(BANKS)]
    queues = ([], [])
    seen = {"wins": Counter(), "clusterings": set(), "flips": 0}
    urgent = {ip: False for ip in IPS}
    now = seq = 0
    for _ in range(steps):
        now += rng.randrange(0, 12)
        roll = rng.random()
        if roll < 0.45 * (1.5 - len(queues[0]) / 60):
            for _ in range(rng.randint(1, 4)):
                source, source_id = _source(rng)
                request = MemRequest(address=seq * 64,
                                     size=rng.choice((64, 128, 512)),
                                     write=False, source=source,
                                     source_id=source_id)
                entry = QueuedRequest(request, None, now, rng.choice(banks),
                                      rng.randrange(ROWS), seq)
                seq += 1
                for queue in queues:
                    queue.append(entry)
                new.note_enqueued(entry)
        elif roll < 0.55:
            rng.choice(banks).open_row = rng.choice((None, *range(ROWS)))
        elif roll < 0.62:
            ip, fraction = rng.choice(IPS), rng.random() ** 0.5
            restart = rng.random() < 0.3
            for state in states:
                if restart:
                    state.start_ip_period(ip, now)
                state.report_ip_progress(ip, fraction, now)
        elif roll < 0.66:
            source, source_id = rng.choice(CPUS + [(SourceType.GPU, 0)])
            size = rng.choice((64, 4096, 20_000))
            for state in states:
                state.classifier.note_traffic(source, source_id, size)
        elif queues[0]:
            index = new.choose(queues[0], None, now)
            expected = reference.choose(queues[1], None, now)
            assert queues[0][index] is queues[1][expected], (
                f"seed {seed}: pick at tick {now} diverged")
            entry = queues[0].pop(index)
            queues[1].pop(expected)
            seen["wins"][_class_of(states[0], entry)] += 1
            seen["clusterings"].add(states[0].classifier.intensive_threads)
            for ip in IPS:
                flipped = states[0].ip_state(ip).urgent
                seen["flips"] += flipped != urgent[ip]
                urgent[ip] = flipped
            entry.bank.open_row = entry.row
            new.note_served(entry, now)
            reference.note_served(entry, now)
    assert states[0]._rng.getstate() == states[1]._rng.getstate()
    assert states[0].probability == states[1].probability
    return seen


@pytest.mark.parametrize("seed", range(8))
def test_per_source_picks_match_the_reference(seed):
    seen = run_lockstep(seed)
    # The schedule reached every class and moved the classes under the
    # scheduler's feet, or the agreement above would prove little.
    assert set(seen["wins"]) == {"urgent", "nonintensive", "ip",
                                 "intensive"}
    assert len(seen["clusterings"]) >= 3
    assert seen["flips"] >= 10
