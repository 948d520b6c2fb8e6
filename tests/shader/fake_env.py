"""A configurable in-memory ExecEnv test double for shader tests."""

import numpy as np

from repro.shader.isa import MemSpace


def lane_record(space, base, stride, mask, size=4, write=False):
    """The memory record of lanes addressing ``base + stride * lane``."""
    return space, base + stride * np.flatnonzero(mask), size, write


class FakeEnv:
    """Minimal environment: dict-backed slots, flat global memory."""

    def __init__(self, warp_size=8, attributes=None, varyings=None,
                 constants=None, textures=None, depth=None, color=None):
        self.warp_size = warp_size
        self.attributes = attributes or {}
        self.varyings = varyings or {}
        self.constants = constants or {}
        self.textures = textures or {}
        self.depth = (np.full(warp_size, 1.0) if depth is None
                      else np.asarray(depth, dtype=np.float64))
        self.color = (np.zeros((warp_size, 4)) if color is None
                      else np.asarray(color, dtype=np.float64))
        self.stencil = np.zeros(warp_size, dtype=np.int64)
        self.outputs = {}
        self.global_memory = {}

    def attribute(self, slot, mask):
        values = np.asarray(self.attributes[slot], dtype=np.float64)
        return values, lane_record(MemSpace.VERTEX, 0x100, 4, mask)

    def varying(self, slot, mask):
        return np.asarray(self.varyings[slot], dtype=np.float64)

    def constant(self, slot, mask):
        return float(self.constants[slot]), (
            MemSpace.CONST, (0x2000 + 4 * slot,), 4, False)

    def tex(self, unit, u, v, mask):
        fn = self.textures[unit]
        rgba = np.stack([np.asarray(fn(uu, vv), dtype=np.float64)
                         for uu, vv in zip(u, v)])
        return rgba, lane_record(MemSpace.TEXTURE, 0x3000, 4, mask)

    def zread(self, mask):
        return self.depth.copy(), lane_record(MemSpace.DEPTH, 0x4000, 4, mask)

    def zwrite(self, values, mask):
        self.depth[mask] = values[mask]
        return lane_record(MemSpace.DEPTH, 0x4000, 4, mask, write=True)

    def sread(self, mask):
        return self.stencil.astype(float), lane_record(
            MemSpace.DEPTH, 0x4800, 1, mask, size=1)

    def swrite(self, values, mask):
        self.stencil[mask] = values[mask].astype(int)
        return lane_record(MemSpace.DEPTH, 0x4800, 1, mask, size=1,
                           write=True)

    def fb_read(self, mask):
        return self.color.copy(), lane_record(MemSpace.COLOR, 0x5000, 4, mask)

    def fb_write(self, rgba, mask):
        self.color[mask] = rgba[mask]
        return lane_record(MemSpace.COLOR, 0x5000, 4, mask, write=True)

    def ld_global(self, addresses, mask):
        values = np.zeros(self.warp_size)
        lane_addresses = np.asarray(addresses[mask], dtype=np.int64)
        for lane, addr in zip(np.flatnonzero(mask), lane_addresses.tolist()):
            values[lane] = self.global_memory.get(addr, 0.0)
        return values, (MemSpace.GLOBAL, lane_addresses, 4, False)

    def st_global(self, addresses, values, mask):
        lane_addresses = np.asarray(addresses[mask], dtype=np.int64)
        for lane, addr in zip(np.flatnonzero(mask), lane_addresses.tolist()):
            self.global_memory[addr] = float(values[lane])
        return MemSpace.GLOBAL, lane_addresses, 4, True

    def store_output(self, slot, values, mask):
        if slot not in self.outputs:
            self.outputs[slot] = np.zeros(self.warp_size)
        self.outputs[slot][mask] = values[mask]
