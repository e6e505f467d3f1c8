"""Delivery tap: a digest of every flow delivery, for goldens and diffs.

A :class:`DeliveryTap` attached to a network records each packet a host
hands to a flow sink as the tuple ``(host, flow, kind, seq, t)``, in
dispatch order, into a rolling SHA-256.  Every :data:`CHECKPOINT_EVERY`
deliveries it stores a checkpoint digest of the stream so far, so two
runs that disagree can be told apart down to one such window from their
summaries alone (:func:`diverging_window`), with no re-run.  With
``keep=True`` it also keeps the tuples, to name the first differing
delivery inside that window.

The tap costs nothing unless attached: it swaps each host's sink table
for a :class:`dict` subclass that wraps sinks as they are registered,
before or after :meth:`DeliveryTap.attach`, so ``Host._deliver`` keeps
its one dict lookup and gains no branch.  Times hash by ``repr``, the
exact shortest round-trip form of a float, so a digest is a function of
the simulated behaviour only, never of the interpreter's hash seed.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

from repro.netsim.core import Host, Network, Packet

__all__ = ["CHECKPOINT_EVERY", "DeliveryTap", "diverging_window"]

#: Deliveries per checkpoint digest.
CHECKPOINT_EVERY = 256


class DeliveryTap:
    """Rolling SHA-256 of ``(host, flow, kind, seq, t)`` delivery tuples.

    ``count`` is the number of deliveries seen, ``digest`` the hex digest
    of all of them, and ``checkpoints`` the digest after every
    :data:`CHECKPOINT_EVERY` deliveries (checkpoint ``i`` covers
    deliveries ``0 .. (i+1)*CHECKPOINT_EVERY - 1``).
    """

    def __init__(self, keep: bool = False):
        self.count = 0
        self.checkpoints: list[str] = []
        self.tuples: Optional[list[tuple]] = [] if keep else None
        self._hash = hashlib.sha256()

    def attach(self, net: Network) -> "DeliveryTap":
        """Record deliveries at every host of ``net``.

        Sinks already registered are wrapped now; sinks registered later
        are wrapped as they arrive.  Returns ``self``.
        """
        for name, node in net.nodes.items():
            if isinstance(node, Host):
                node._sinks = _TappedSinks(self, name, node._sinks)
        return self

    def record(self, host: str, packet: Packet, t: float) -> None:
        """Fold one delivery into the digest."""
        flow, kind, seq = packet.flow, packet.kind, packet.seq
        self._hash.update(f"{host}\t{flow}\t{kind}\t{seq}\t{t!r}\n".encode())
        self.count += 1
        if self.tuples is not None:
            self.tuples.append((host, flow, kind, seq, t))
        if self.count % CHECKPOINT_EVERY == 0:
            self.checkpoints.append(self._hash.hexdigest())

    @property
    def digest(self) -> str:
        """Hex SHA-256 of every delivery recorded so far."""
        return self._hash.hexdigest()

    def summary(self) -> dict:
        """``{"count", "digest", "checkpoints"}`` — what a golden pins."""
        return {
            "count": self.count,
            "digest": self.digest,
            "checkpoints": list(self.checkpoints),
        }


def diverging_window(a: dict, b: dict) -> Optional[int]:
    """Index ``i`` of the first checkpoint window in which two
    :meth:`DeliveryTap.summary` results differ: the first differing
    delivery is among deliveries ``i*CHECKPOINT_EVERY`` up to
    ``(i+1)*CHECKPOINT_EVERY - 1``.  ``None`` when the two streams are
    identical."""
    if a["count"] == b["count"] and a["digest"] == b["digest"]:
        return None
    ca, cb = a["checkpoints"], b["checkpoints"]
    for i, (x, y) in enumerate(zip(ca, cb)):
        if x != y:
            return i
    return min(len(ca), len(cb))


class _TappedSinks(dict):
    """A host's sink table whose entries report to a tap first."""

    def __init__(self, tap: DeliveryTap, host: str, sinks: dict):
        super().__init__()
        self._tap = tap
        self._host = host
        for flow, sink in sinks.items():
            self[flow] = sink

    def __setitem__(self, flow: str, sink: Callable[[Packet, float], None]) -> None:
        record = self._tap.record
        host = self._host

        def tapped(packet: Packet, t: float) -> None:
            record(host, packet, t)
            sink(packet, t)

        super().__setitem__(flow, tapped)
