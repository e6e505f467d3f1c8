"""Fair multi-flow service for links and gateways: deficit round robin.

The testbed ran its application projects *concurrently* over one
SDH/ATM backbone — the D1 video stream, climate coupling bursts,
groundwater transfers and the latency-sensitive MEG/fMRI traffic all
shared the Fore ASX-4000 path (paper Sections 2-3).  A single FIFO
transmit queue lets one aggressive flow starve the rest, which is not
what per-VC ATM scheduling did; :class:`DrrScheduler` gives each flow
its own FIFO and serves them with deficit round robin (Shreedhar &
Varghese), the classic O(1) approximation of weighted fair queueing.

Design constraints, in order:

* **Pure data structure on the dequeue/enqueue path.**  The scheduler
  never touches the event heap; the link transmitter and the gateway
  worker call :meth:`DrrScheduler.dequeue` when they go idle, so the
  service order is a function of arrivals and weights alone.
* **FIFO-degenerate for one flow.**  With a single backlogged flow the
  service order is plain FIFO, so every existing single-flow scenario
  (and the exactly-pinned ``kernel_bench`` baselines) is unchanged.
* **Queue-like surface.**  ``put_nowait`` / ``clear`` / ``__len__``
  read like :class:`repro.sim.Store`'s, but nothing ever blocks on the
  scheduler: ``put_nowait`` always enqueues.
* **One decision per service start.**  Every transmitter dequeues one
  packet when it goes idle; no caller pre-commits a run of decisions,
  so a weight change or a competing arrival simply takes effect at the
  next dequeue and nothing ever has to be unwound.

``quantum`` grows to the largest service cost seen, which guarantees a
backlogged flow is served at least one packet per round (the standard
DRR progress condition).  ``set_weight`` scales a flow's per-round
quantum — per-VC shares reserved through :class:`repro.netsim.qos.QosManager`
can be mapped onto weights by the caller.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

__all__ = ["DrrScheduler"]


class DrrScheduler:
    """Per-flow FIFOs served in deficit-round-robin order.

    ``cost`` maps a packet to its service cost (e.g. framed wire bytes
    for a link transmitter); ``None`` charges one unit per packet, which
    degenerates to plain per-packet round robin (a gateway's serial
    forwarding CPU).  Flows are keyed by ``packet.flow``.
    """

    __slots__ = (
        "cost",
        "quantum",
        "_queues",
        "_active",
        "_deficit",
        "_weights",
        "_total",
    )

    def __init__(
        self,
        cost: Optional[Callable[[object], float]] = None,
        quantum: float = 0.0,
    ):
        self.cost = cost
        self.quantum = float(quantum)
        self._queues: dict[str, deque] = {}
        self._active: deque[str] = deque()  # flows with backlog, service order
        self._deficit: dict[str, float] = {}
        self._weights: dict[str, float] = {}
        self._total = 0

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return self._total

    def depth(self, flow: str) -> int:
        """Queued packets of one flow."""
        q = self._queues.get(flow)
        return len(q) if q is not None else 0

    def depths(self) -> dict[str, int]:
        """Queued packets per flow (backlogged flows only)."""
        return {f: len(q) for f, q in self._queues.items() if q}

    def set_weight(self, flow: str, weight: float) -> None:
        """Scale ``flow``'s per-round quantum (default 1.0)."""
        if not 0 < weight < float("inf"):
            raise ValueError(
                f"weight must be positive and finite, got {weight!r}"
            )
        self._weights[flow] = float(weight)

    # -- enqueue -------------------------------------------------------------
    def put_nowait(self, packet) -> bool:
        """Enqueue ``packet`` on its flow's FIFO.  Never rejects — the
        caller enforces its aggregate queue bound via ``len``."""
        flow = packet.flow
        q = self._queues.get(flow)
        if q is None:
            q = self._queues[flow] = deque()
        # Activation is keyed on round membership (the deficit dict).
        # Every caller dequeues one packet at a time, so membership and a
        # non-empty deque coincide; only :meth:`claim` could drain a deque
        # while keeping its flow in the round.
        if flow not in self._deficit:
            self._active.append(flow)
            self._deficit[flow] = 0.0
        q.append(packet)
        self._total += 1
        c = self.cost(packet) if self.cost is not None else 1.0
        if c > self.quantum:
            self.quantum = c
        return True

    # -- dequeue -------------------------------------------------------------
    def dequeue(self):
        """Next packet in DRR order (caller guarantees backlog exists)."""
        active = self._active
        queues = self._queues
        deficit = self._deficit
        cost = self.cost
        weights = self._weights
        while True:
            flow = active[0]
            q = queues[flow]
            c = cost(q[0]) if cost is not None else 1.0
            d = deficit[flow]
            if d < c:
                # Round complete for this flow: top up its deficit and
                # move it to the tail of the service order.
                deficit[flow] = d + self.quantum * weights.get(flow, 1.0)
                active.rotate(-1)
                continue
            deficit[flow] = d - c
            packet = q.popleft()
            self._total -= 1
            if not q:
                # Emptied flows leave the round and forfeit their credit,
                # so an idle flow cannot bank bandwidth (standard DRR).
                active.popleft()
                del deficit[flow]
            return packet

    # -- batch claim (no caller) --------------------------------------------
    # Leftovers of the deleted same-flow link batching.  Nothing in the
    # package calls these three; perfbench/tracing.py binds them by name
    # for its ``drr.claimed*`` metrics, so they stay until the benchmark
    # drops those metrics.
    def claim(self, limit: int):
        """Dequeue up to ``limit`` packets of the front flow in one call,
        running the DRR fold for each but keeping the flow in the round
        if its deque empties.  Returns ``(flow, packets, costs, d0,
        quantum, weight)``, ``d0`` being the deficit before the claim."""
        flow = self._active[0]
        q = self._queues[flow]
        cost = self.cost
        weight = self._weights.get(flow, 1.0)
        quantum = self.quantum
        d0 = self._deficit[flow]
        d = d0
        packets: list = []
        costs: list = []
        while q and len(packets) < limit:
            c = cost(q[0]) if cost is not None else 1.0
            while d < c:
                d += quantum * weight
            d -= c
            packets.append(q.popleft())
            costs.append(c)
        self._total -= len(packets)
        self._deficit[flow] = d
        return flow, packets, costs, d0, quantum, weight

    def commit_claim(self, flow: str) -> None:
        """Close out a claim: the flow leaves the round if its deque is
        (still) empty."""
        q = self._queues.get(flow)
        if q is not None and not q and flow in self._deficit:
            del self._deficit[flow]
            self._active.remove(flow)

    def restore_front(self, flow: str, packets, deficit: float) -> None:
        """Put a claim's unserved ``packets`` back at the head of
        ``flow``'s deque with the given ``deficit``."""
        q = self._queues[flow]
        if packets or q:
            q.extendleft(reversed(packets))
            self._total += len(packets)
            self._deficit[flow] = deficit
        else:
            self.commit_claim(flow)

    # -- flush ---------------------------------------------------------------
    def clear(self) -> list:
        """Discard and return every queued packet (link down / gateway
        crash)."""
        dropped: list = []
        for flow in self._active:
            dropped.extend(self._queues[flow])
            self._queues[flow].clear()
        self._active.clear()
        self._deficit.clear()
        self._total = 0
        return dropped
