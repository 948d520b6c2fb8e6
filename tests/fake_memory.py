"""Port-speaking memory test doubles, as ``tests/shader/fake_env.py`` is
for shading: a fixed-latency terminal and a one-request sender."""

from repro.common.ports import RequestPort, ResponsePort, respond
from repro.memory.request import MemRequest, SourceType


class FixedLatencyMemory:
    """A terminal that accepts everything and answers each request
    ``latency`` ticks later; counts the requests."""

    def __init__(self, events, latency=100):
        self.events = events
        self.latency = latency
        self.accesses = 0
        self.ingress = ResponsePort("memory.in", self._recv, owner=self)

    def _recv(self, request):
        self.accesses += 1
        self.events.schedule(self.latency, respond, request)
        return True


def send(target, address, write=False, done=None, source=SourceType.GPU):
    """Issue a 128-byte request to ``target`` through a RequestPort
    connected to it; ``done`` is called with the completed request."""
    request = MemRequest(address=address, size=128, write=write,
                         source=source, callback=done)
    RequestPort("test.sender").connect(target).send(request)
    return request
