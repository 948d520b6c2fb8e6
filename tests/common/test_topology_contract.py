"""Every leaf of the machine description is read by assembly.

Each leaf of the tiny machine's ``SoCTopology.to_dict()`` is changed
alone, and so is each inner leaf of ``cpu.core_types``,
``memory[0].channel_mappings`` and ``noc.links`` once they are set.  The
change must either move the fingerprint of one simulated frame (events
fired, framebuffer CRC, the tick the GPU finished, DRAM bytes and mean
latency per source) or be refused with ``ConfigError``.  A field that no
assembly step reads fails here, so none can land dead, and two
topologies that hash equal assemble the same system (DESIGN.md §11).

Setting 0 or -1 on any numeric leaf must likewise be refused with
``ConfigError`` or finish the frame within ``MAX_EVENTS``: never another
exception, never a hang.
"""

import functools
import zlib
from dataclasses import replace

import pytest

from repro.common.config import ConfigError, NoCLinkBudget, SoCTopology
from repro.harness.scenes import SceneSession
from repro.soc.soc import EmeraldSoC

from tests.health.full_system import HEIGHT, WIDTH, tiny_config

#: A frame that needs more events than this has hung (the slowest frame
#: below, sibenik, fires about 84,000).
MAX_EVENTS = 1_000_000

TINY = tiny_config().topology
_ENDPOINT = TINY.memory[0]

#: The frames a leaf is changed on: name -> (scene, topology).
BASES = {
    "cube": ("cube", TINY),
    # The cube frame's L1s take no conflict misses; the mask's do.
    "mask": ("mask", TINY),
    # Only geometry hidden behind nearer geometry shows Hi-Z culling.
    "sibenik": ("sibenik", TINY),
    # A single endpoint receives every address whatever the interleave.
    "two endpoints": ("cube", replace(TINY, memory=(
        replace(_ENDPOINT, name="dram0"), replace(_ENDPOINT, name="dram1")))),
    # Every optional leaf set, so that its inner leaves exist.
    "set": ("cube", replace(
        TINY,
        cpu=replace(TINY.cpu, core_types=(
            "app", "streaming", "interactive", "background")),
        memory=(replace(_ENDPOINT, channel_mappings=("baseline", "ip")),),
        noc=replace(TINY.noc, links=(
            NoCLinkBudget(capacity=4, bytes_per_cycle=16.0),)))),
}

#: Leaves of the tiny machine that the cube frame cannot observe, and the
#: base that does.
OBSERVED_ON = {
    "gpu.core.l1i.ways": "mask",
    "gpu.core.l1d.ways": "mask",
    "gpu.core.l1z.ways": "mask",
    "gpu.core.l1c.ways": "mask",
    "gpu.raster.hiz_enabled": "sibenik",
    "noc.interleave_bytes": "two endpoints",
}

#: ``SIMTCore._issue`` sends instruction fetches without a callback, so no
#: fetch ever waits on an L1I hit: the leaf is read, and no frame shows it.
UNOBSERVABLE = {"gpu.core.l1i.hit_latency"}

#: Labels, not machine: the topology's ``name`` is left out of the hash;
#: an endpoint's ``name`` is hashed and must be unique, and no assembly
#: step reads it.
LABELS = {"name", "memory[0].name"}


def _half(value):
    return value // 2 if isinstance(value, int) else value / 2


#: How a leaf changes, by field name (``field[]`` for an item of a list
#: field): the new value, or a function of the old one.  A new field
#: needs an entry here before its leaf can pass.
CHANGES = {
    "num_clusters": _half,
    "warp_size": _half,
    "max_warps": 1,
    "num_schedulers": _half,
    "alu_latency": 0,
    "sfu_latency": 0,
    "size_bytes": lambda size: size // 4,
    "line_bytes": lambda line: 2 * line,
    "ways": 1,
    "hit_latency": 0,
    "raster_tile_px": _half,
    "tc_tile_raster_tiles": _half,
    "tc_engines_per_cluster": _half,
    "tc_bins_per_engine": _half,
    "coarse_tiles_per_cycle": 2,
    "fine_tiles_per_cycle": 2,
    "hiz_enabled": lambda enabled: not enabled,
    "tc_flush_timeout": 0,
    "noc_latency": 0,
    "pmrb_entries": 1,
    "work_tile_size": 2,
    "clock_ghz": _half,
    "num_cores": _half,
    "core_types": ["app", "big", "little", "little"],
    "core_types[]": "little",
    "channels": _half,
    "ranks": 2,
    "banks": _half,
    "row_bytes": _half,
    "bus_bytes": _half,
    "data_rate_mbps": _half,
    "t_rcd": 0,
    "t_rp": 0,
    "t_cas": 0,
    "t_wr": 0,
    "scheduler": "dash-cpu",
    "router": "source",
    "channel_mappings": ["ip", "ip"],
    "channel_mappings[]": lambda name: "ip" if name == "baseline" else "baseline",
    "latency": 0,
    "interleave_bytes": _half,
    "links": [{"capacity": 1, "bytes_per_cycle": None}],
    "capacity": _half,
    "bytes_per_cycle": _half,
}


def leaves(doc, path=()):
    """``(path, value)`` of every scalar in a ``to_dict()`` document; a
    path is the tuple of keys and list indices down to the scalar."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from leaves(value, path + (index,))
    else:
        yield path, doc


def dotted(path) -> str:
    text = ""
    for step in path:
        if isinstance(step, int):
            text += f"[{step}]"
        else:
            text += f".{step}" if text else step
    return text


def with_leaf(topology, path, value) -> SoCTopology:
    """``topology`` with one leaf set, parsed the way a job spec is."""
    doc = topology.to_dict()
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return SoCTopology.from_dict(doc)


@functools.lru_cache(maxsize=None)
def fingerprint(scene, topology):
    """What one frame of ``scene`` did on ``topology``."""
    session = SceneSession(scene, WIDTH, HEIGHT)
    config = replace(tiny_config(), topology=topology)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    results = soc.run(max_events=MAX_EVENTS)
    return (soc.events.events_fired,
            zlib.crc32(soc.gpu.fb.color.tobytes()),
            results.frames[0].gpu_done,
            results.dram_bytes, results.mean_latency)


LEAVES = {name: dict(leaves(topology.to_dict()))
          for name, (_, topology) in BASES.items()}

#: (base, path) of every leaf the contract covers: the tiny machine's,
#: then those only the "set" base has.
CASES = ([(OBSERVED_ON.get(dotted(path), "cube"), path)
          for path in LEAVES["cube"] if dotted(path) not in LABELS]
         + [("set", path) for path in LEAVES["set"]
            if path not in LEAVES["cube"]])

NUMERIC = [(base, path) for base, path in CASES
           if type(LEAVES[base][path]) in (int, float)]


def _ids(cases):
    return [dotted(path) for _, path in cases]


class TestEveryLeafIsRead:
    def test_the_exceptions_name_real_leaves(self):
        covered = {dotted(path) for _, path in CASES}
        assert set(OBSERVED_ON) <= covered
        assert UNOBSERVABLE <= covered
        assert LABELS <= {dotted(path) for path in LEAVES["cube"]}

    def test_the_set_base_sets_every_optional_leaf(self):
        unset = [path for path, value in LEAVES["cube"].items()
                 if value is None]
        assert unset
        for path in unset:
            assert any(len(inner) > len(path) and inner[:len(path)] == path
                       for inner in LEAVES["set"]), dotted(path)
        assert None not in LEAVES["set"].values()

    @pytest.mark.parametrize("base,path", CASES, ids=_ids(CASES))
    def test_a_changed_leaf_moves_the_frame_or_is_refused(self, base, path):
        scene, topology = BASES[base]
        value = LEAVES[base][path]
        field = path[-1] if isinstance(path[-1], str) else f"{path[-2]}[]"
        assert field in CHANGES, f"{dotted(path)}: declare its change"
        change = CHANGES[field]
        changed = change(value) if callable(change) else change
        assert changed != value
        try:
            changed_topology = with_leaf(topology, path, changed)
        except ConfigError:
            return
        seen = (fingerprint(scene, changed_topology)
                != fingerprint(scene, topology))
        if dotted(path) in UNOBSERVABLE:
            assert not seen, f"{dotted(path)} is observable: drop its exemption"
        else:
            assert seen, f"{dotted(path)} is read by nothing"


class TestOutOfRangeLeaves:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("base,path", NUMERIC, ids=_ids(NUMERIC))
    def test_refused_or_the_frame_finishes(self, base, path, value):
        scene, topology = BASES[base]
        try:
            changed = with_leaf(topology, path, value)
        except ConfigError as error:
            assert error.path == dotted(path)
            return
        fingerprint(scene, changed)
