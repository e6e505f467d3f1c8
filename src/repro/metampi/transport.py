"""Message timing: the "metacomputing-aware" transport model.

The paper requires communication to be efficient both *inside* and
*between* the machines of the metacomputer.  Correspondingly the cost of
a message depends on where its endpoints live:

* same machine — the machine's internal interconnect (alpha-beta from
  :class:`repro.machines.MachineSpec`: T3E torus, SP2 switch, SMP bus);
* different machines — the Gigabit Testbed West path between the two
  hosts (latency from distance + store-and-forward, bandwidth from the
  TCP pipeline model of :mod:`repro.netsim.tcp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.machines.spec import MachineSpec
from repro.metampi.errors import TransportError
from repro.netsim.core import Gateway, Network
from repro.netsim.ip import ClassicalIP, TESTBED_MTU
from repro.netsim.tcp import characterize_path


@dataclass(frozen=True)
class RetryPolicy:
    """How a WAN send behaves when the path is down.

    Each failed route lookup advances the *network* simulation clock by
    the current backoff before retrying, so a scheduled link-up or
    gateway restart during the backoff window heals the send.  After
    ``max_attempts`` failures the send raises
    :class:`~repro.metampi.errors.TransportError` instead of hanging.
    """

    max_attempts: int = 3
    backoff: float = 0.05  #: seconds of simulated time before the first retry
    factor: float = 2.0  #: exponential backoff multiplier


@dataclass(frozen=True)
class LinkCost:
    """Alpha-beta cost of one logical channel."""

    latency: float  #: seconds, one-way zero-load
    bandwidth: float  #: byte/s for the payload
    sender_overhead: float  #: seconds the sender is busy per message

    def transit(self, nbytes: int) -> float:
        """One-way delivery time for a message of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth


def one_way_latency(net: Network, src: str, dst: str) -> float:
    """Zero-load one-way latency of a small (64-byte) packet."""
    small = 64
    total = 0.0
    path, links = net.path_links(src, dst)
    for name in (src, dst):
        host = net.host(name)
        total += host.cpu_per_packet
        if host.io_bus_rate != float("inf"):
            total += small * 8 / host.io_bus_rate
    for v, link in zip(path[1:], links):
        total += link.propagation + link.framing.wire_bytes(small) * 8 / link.rate
        node = net.nodes[v]
        if isinstance(node, Gateway):
            total += node.per_packet
    return total


class TransportModel:
    """Computes per-message costs for the runtime.

    ``net`` is optional: without it, inter-machine messages fall back to a
    configurable default WAN cost (useful for unit tests that do not need
    the full testbed).
    """

    def __init__(
        self,
        net: Optional[Network] = None,
        ip: Optional[ClassicalIP] = None,
        default_wan: LinkCost = LinkCost(
            latency=1e-3, bandwidth=30e6, sender_overhead=50e-6
        ),
        retry: RetryPolicy = RetryPolicy(),
    ):
        self.net = net
        self.ip = ip or ClassicalIP(TESTBED_MTU)
        self.default_wan = default_wan
        self.retry = retry
        #: (src host, dst host) -> route lookups retried after a backoff
        self.retries: dict[tuple[str, str], int] = {}
        #: lookups that gave up and raised :class:`TransportError`
        self.errors = 0
        self._wan_cache: dict[tuple[str, str], LinkCost] = {}
        if net is not None:
            # Stale WAN costs after a failure would route metacomputer
            # runs over paths that no longer exist (or miss recovered
            # capacity): drop the cache on any topology/state change.
            net.add_invalidation_listener(self.invalidate)

    def invalidate(self) -> None:
        """Flush cached WAN costs (called on network state changes)."""
        self._wan_cache.clear()

    # -- cost lookups ------------------------------------------------------
    def intra(self, spec: MachineSpec) -> LinkCost:
        """Cost of an internal message on ``spec``."""
        return LinkCost(
            latency=spec.comm_latency,
            bandwidth=spec.comm_bandwidth,
            sender_overhead=spec.comm_latency,
        )

    def wan(self, src_host: str, dst_host: str) -> LinkCost:
        """Cost of a message between two testbed hosts.

        Raises :class:`~repro.metampi.errors.TransportError` if no route
        exists and the path does not recover within the retry budget.
        """
        if self.net is None or not src_host or not dst_host:
            return self.default_wan
        key = (src_host, dst_host)
        cost = self._wan_cache.get(key)
        if cost is None:
            char = self._characterize_with_retry(src_host, dst_host)
            bw_bytes = char.pipeline_rate() / 8
            cost = LinkCost(
                latency=one_way_latency(self.net, src_host, dst_host),
                bandwidth=bw_bytes,
                sender_overhead=self.net.host(src_host).cpu_per_packet or 50e-6,
            )
            self._wan_cache[key] = cost
        return cost

    def _characterize_with_retry(self, src_host: str, dst_host: str):
        """Route lookup with the retry/backoff policy.

        Between attempts the shared network clock is advanced by the
        backoff, so faults scheduled to heal (link-up, gateway restart)
        can restore the path mid-retry.
        """
        delay = self.retry.backoff
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return characterize_path(self.net, src_host, dst_host, self.ip)
            except ValueError as exc:
                last_error = exc
                if attempt == self.retry.max_attempts:
                    break
                key = (src_host, dst_host)
                self.retries[key] = self.retries.get(key, 0) + 1
                # Safe unlocked: only the runtime's baton holder runs.
                env = self.net.env
                env.run(until=env.now + delay)
                delay *= self.retry.factor
        self.errors += 1
        raise TransportError(
            src_host, dst_host, self.retry.max_attempts
        ) from last_error

    def channel(
        self,
        src_spec: MachineSpec,
        src_host: str,
        dst_spec: MachineSpec,
        dst_host: str,
    ) -> tuple[LinkCost, Optional[tuple[str, str]]]:
        """The cost of a message between two rank locations, and the
        identity of the *shared* serializing channel it crosses (None
        inside a machine).

        Intra-machine traffic rides a scalable interconnect (torus/switch)
        and is not serialized.  WAN traffic between two hosts shares one
        external attachment (the HiPPI gateway / ATM adapter), so all
        concurrent transfers between the same host pair queue behind each
        other — the effect that makes topology-aware collectives pay off.
        The runtime tallies traffic under the scopes "intra" (no shared
        channel) and "wan"; collective strategies are judged mostly on
        their "wan" column.
        """
        if src_spec is dst_spec and src_host == dst_host:
            return self.intra(src_spec), None
        key = (src_host or src_spec.name, dst_host or dst_spec.name)
        return self.wan(src_host, dst_host), key
