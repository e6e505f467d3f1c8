"""Coupling the fluid engine into the packet-level simulation.

The hybrid split: long-lived bulk flows (rate-dominated) run in the
:class:`~repro.fluid.engine.FluidEngine`; latency-sensitive flows
(ping, D1 video, the FIRE pipeline) stay packet-level on the same
:class:`~repro.netsim.core.Network`.  The two worlds meet twice:

* **fluid → packet**: after every re-solve, the fluid load on each
  shared link direction and gateway is pushed through the background-
  load seam (``Link.set_background_load`` /
  ``Gateway.set_background_load``), stretching packet serialization and
  forwarding times by the capacity the fluid flows occupy;
* **packet → fluid**: each declared packet flow enters the water-filling
  as a static demand at its offered rate
  (:meth:`~repro.fluid.engine.FluidEngine.add_static_demand`), so the
  fluid flows never claim the share the packet traffic is using.

Coupling is piecewise-constant at flow-event granularity: a packet
serialization that began before a re-solve keeps its old duration, the
next one sees the new background.  The fluid engine's events ride on the
packet :class:`~repro.sim.Environment` clock as scheduled callbacks, so
``env.run()`` drives both worlds in one deterministic event order.
Topology changes (faults, reroutes) invalidate the fluid paths through
the network's invalidation listener.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.netsim.core import Gateway, Network
from repro.netsim.ip import ClassicalIP
from repro.netsim.tcp import characterize_path, demand_cap
from repro.fluid.engine import INF, FluidEngine

#: The largest share any one resource hands to fluid traffic: even a
#: saturating fluid load must leave the packet world a sliver of capacity
#: so serialization times stay finite.  In normal operation the cap never
#: binds — packet demands in the solve already reserve their share.
MAX_BACKGROUND = 0.98


class HybridSimulation:
    """Drive a :class:`FluidEngine` from a packet ``Environment``.

    Each resource's background share is capped at :data:`MAX_BACKGROUND`.
    """

    def __init__(
        self,
        net: Network,
        ip: Optional[ClassicalIP] = None,
        window_bytes: float = INF,
    ):
        self.net = net
        self.env = net.env
        self.ip = ip or ClassicalIP()
        self.engine = FluidEngine(net, ip=self.ip, window_bytes=window_bytes)
        self.engine.on_rates_changed = self._push_background
        self.peak_background = 0.0
        self._loaded: set[str] = set()  # resources currently backgrounded
        self._next_tick: Optional[list] = None  # the live _tick entry
        self._invalidating = False
        net.add_invalidation_listener(self._on_topology_change)

    # -- admission ---------------------------------------------------------
    def offer(self, arrivals: Iterable[Any]) -> int:
        """Queue fluid arrivals and arm the event clock."""
        n = self.engine.offer(arrivals)
        self._arm()
        return n

    def add_packet_flow(self, flow: Any) -> None:
        """Declare a packet-level flow so the fluid solver reserves its
        share (``flow`` duck-types ``name/src/dst`` plus the cap fields
        :func:`~repro.netsim.tcp.demand_cap` reads)."""
        char = characterize_path(self.net, flow.src, flow.dst, self.ip)
        cap = demand_cap(flow, char)
        if cap == INF:
            # An uncapped packet demand would absorb the whole solve;
            # reserve a window-less bulk flow's fair share instead by
            # capping at the path's zero-load pipeline rate.
            cap = char.pipeline_rate()
        self.engine.add_static_demand(flow.name, flow.src, flow.dst, cap)
        self._arm()

    # -- event clock -------------------------------------------------------
    def _arm(self) -> None:
        """(Re-)schedule the next fluid event on the packet clock."""
        t = self.engine.next_event_time()
        if self._next_tick is not None:
            self.env.cancel(self._next_tick)  # a re-solve moved the event
            self._next_tick = None
        if t == INF:
            return
        self._next_tick = self.env.call_at(max(t, self.env.now), self._tick)

    def _tick(self) -> None:
        self.engine.advance_to(self.env.now)
        self._arm()

    def _on_topology_change(self) -> None:
        # Invalidation can fire during construction (links being added)
        # and re-entrantly from the engine's own rebuild; only react to
        # changes while flows are live, and never recurse.
        if self._invalidating:
            return
        if self.engine.active == 0 and not self.engine._pending:
            return
        self._invalidating = True
        try:
            self.engine.advance_to(self.env.now)
            self.engine.invalidate_paths()
        finally:
            self._invalidating = False
        self._arm()

    # -- fluid -> packet coupling -----------------------------------------
    def _push_background(self, engine: FluidEngine) -> None:
        loads = engine.resource_loads()
        for resource in self._loaded - set(loads):
            self._apply(resource, 0.0)  # fluid load fell to zero
        for resource, share in loads.items():
            self._apply(resource, min(share, MAX_BACKGROUND))
        self._loaded = set(loads)

    def _apply(self, resource: str, share: float) -> None:
        kind, _, rest = resource.partition(":")
        if kind == "link":
            name, _, direction = rest.rpartition(":")
            link = self.net.links.get(name)
            if link is not None:
                link.set_background_load(direction, share)
                self.peak_background = max(self.peak_background, share)
        elif kind == "gw":
            node = self.net.nodes.get(rest)
            if isinstance(node, Gateway):
                node.set_background_load(share)
                self.peak_background = max(self.peak_background, share)
        # host:* resources have no packet-side seam: fluid and packet
        # flows sourced on the same host are outside the validity
        # envelope (see DESIGN — hybrid engine).

    # -- reporting ---------------------------------------------------------
    def drain(self, until: Optional[float] = None) -> None:
        """Run the packet environment until both worlds are idle."""
        self.env.run(until=until)
