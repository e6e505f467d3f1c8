"""The bare-link floor: the least a packet can cost on this kernel.

A one-way link on :class:`repro.sim.Environment` that serializes, then
propagates, then delivers, with none of :class:`repro.netsim.Link`'s
machinery (no DRR, no packet pool, no batching, no per-flow books).  Its
host cost per packet is the floor each real layer's marginal cost is
measured over.
"""

from __future__ import annotations

import time
from collections import deque

from repro.sim import Environment


class BareLink:
    """Serialize at ``rate`` bit/s, propagate for ``propagation`` s, then
    hand the packet to ``deliver``."""

    def __init__(self, env: Environment, rate: float, propagation: float, deliver):
        self.env = env
        self.rate = rate
        self.propagation = propagation
        self.deliver = deliver
        self.queue: deque = deque()
        self.busy = False

    def send(self, nbytes: int) -> None:
        if self.busy:
            self.queue.append(nbytes)
        else:
            self._transmit(nbytes)

    def _transmit(self, nbytes: int) -> None:
        self.busy = True
        self.env.call_later(nbytes * 8 / self.rate, self._propagate, nbytes)

    def _propagate(self, nbytes: int) -> None:
        self.env.call_later(self.propagation, self.deliver, nbytes)
        self.busy = False
        if self.queue:
            self._transmit(self.queue.popleft())


def run_floor(packets: int, nbytes: int = 9180) -> float:
    """Host seconds to carry ``packets`` back-to-back packets."""
    env = Environment()
    delivered = [0]

    def deliver(_nbytes: int) -> None:
        delivered[0] += 1

    link = BareLink(env, rate=2.4e9, propagation=500e-6, deliver=deliver)
    t0 = time.perf_counter()
    for _ in range(packets):
        link.send(nbytes)
    env.run()
    elapsed = time.perf_counter() - t0
    if delivered[0] != packets:
        raise RuntimeError(f"bare link delivered {delivered[0]} of {packets} packets")
    return elapsed
