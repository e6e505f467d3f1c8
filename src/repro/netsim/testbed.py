"""The Gigabit Testbed West topology (paper Figure 1, June-1999 state).

Jülich and Sankt Augustin (GMD), ~100 km apart, joined by an OC-48
(2.4 Gbit/s) SDH/ATM link between two Fore ASX-4000 switches.  The
supercomputers hang off HiPPI fabrics reached through workstation
IP gateways with Fore 622 Mbit/s ATM adapters (SGI O200 and Sun Ultra 30
in Jülich, Sun E5000 in Sankt Augustin); workstations attach with 622 or
155 Mbit/s ATM interfaces.  Large (64 KByte) IP MTUs are usable end to
end because the Fore adapters support them.

Host parameters are calibrated to the paper's Section-2 measurements:

* >430 Mbit/s TCP/IP inside the Jülich Cray complex at 64 KByte MTU
  (Cray stack cost per packet is the bottleneck);
* >260 Mbit/s Cray T3E ↔ IBM SP2 across the WAN (microchannel I/O of the
  SP nodes is the bottleneck);
* HiPPI peak 800 Mbit/s with low-level protocol and >= 1 MByte blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.core import (
    AtmFraming,
    Gateway,
    Host,
    HippiFraming,
    Network,
    Switch,
)
from repro.netsim.sdh import STM1, STM4, STM16
from repro.netsim.hippi import HIPPI_RATE
from repro.sim import Environment
from repro.util.units import MBIT

#: One-way propagation: ~100 km of fibre at 5 µs/km.
WAN_DISTANCE_KM = 100.0
PROPAGATION_PER_KM = 5e-6
WAN_PROPAGATION = WAN_DISTANCE_KM * PROPAGATION_PER_KM

#: Per-packet TCP/IP stack traversal of a 1999 Cray (UNICOS): calibrated so
#: that a 64 KByte-MTU stream tops out just above the paper's 430 Mbit/s.
CRAY_STACK_PER_PACKET = 1.20e-3
#: A fast workstation / SMP stack (O2K/Onyx2/Sun class).
WS_STACK_PER_PACKET = 150e-6
#: SP2 node stack.
SP2_STACK_PER_PACKET = 200e-6
#: Sustained microchannel I/O of an SP2 node set (the paper's ~260 Mbit/s
#: WAN limiter).
SP2_IOBUS_RATE = 270 * MBIT
#: IP forwarding cost of the gateway workstations.
GATEWAY_PER_PACKET = 120e-6
#: ASX-4000 forwarding latency.
SWITCH_LATENCY = 10e-6
#: Short local fibre runs.
LOCAL_PROPAGATION = 2e-6


@dataclass
class GigabitTestbedWest:
    """The built testbed: a :class:`Network` plus well-known node names."""

    env: Environment
    net: Network
    juelich_hosts: list[str] = field(default_factory=list)
    gmd_hosts: list[str] = field(default_factory=list)
    wan_link_name: str = ""

    #: canonical node names
    T3E_600 = "t3e-600"
    T3E_1200 = "t3e-1200"
    T90 = "t90"
    GW_O200 = "gw-o200"
    GW_ULTRA30 = "gw-ultra30"
    SW_JUELICH = "sw-juelich"
    SW_GMD = "sw-gmd"
    GW_E5000 = "gw-e5000"
    SP2 = "sp2"
    ONYX2_GMD = "onyx2-gmd"
    E500_GMD = "e500-gmd"
    ONYX2_JUELICH = "onyx2-juelich"
    FRONTEND = "frontend"
    HIPPI_SW_JUELICH = "hippi-sw-juelich"

    def host(self, name: str) -> Host:
        """Shortcut to :meth:`Network.host`."""
        return self.net.host(name)

    @property
    def wan_link(self):
        """The Jülich ↔ Sankt Augustin backbone link (fault-injection
        target for WAN outage experiments)."""
        return self.net.links[self.wan_link_name]

    @property
    def all_hosts(self) -> list[str]:
        """All end hosts on both sides."""
        return self.juelich_hosts + self.gmd_hosts


def build_testbed(
    env: Environment | None = None,
    oc48: bool = True,
    wan_queue_packets: int | float = float("inf"),
) -> GigabitTestbedWest:
    """Build the Figure-1 topology.

    ``oc48=False`` gives the first-year OC-12 (622 Mbit/s) backbone for
    before/after comparisons.  ``wan_queue_packets`` bounds the backbone
    transmit queues (finite values make the WAN lossy under overload, for
    the fault-recovery experiments).
    """
    env = env or Environment()
    net = Network(env)
    tb = GigabitTestbedWest(env=env, net=net)

    atm622 = AtmFraming()
    atm155 = AtmFraming()
    hippi = HippiFraming()

    # --- Jülich ---------------------------------------------------------
    net.add(Host(env, tb.T3E_600, cpu_per_packet=CRAY_STACK_PER_PACKET))
    net.add(Host(env, tb.T3E_1200, cpu_per_packet=CRAY_STACK_PER_PACKET))
    net.add(Host(env, tb.T90, cpu_per_packet=CRAY_STACK_PER_PACKET))
    net.add(Switch(env, tb.HIPPI_SW_JUELICH, latency=1e-6))
    net.add(Gateway(env, tb.GW_O200, per_packet=GATEWAY_PER_PACKET))
    net.add(Gateway(env, tb.GW_ULTRA30, per_packet=GATEWAY_PER_PACKET))
    net.add(Switch(env, tb.SW_JUELICH, latency=SWITCH_LATENCY))
    net.add(Host(env, tb.FRONTEND, cpu_per_packet=WS_STACK_PER_PACKET))
    net.add(Host(env, tb.ONYX2_JUELICH, cpu_per_packet=WS_STACK_PER_PACKET))
    tb.juelich_hosts = [
        tb.T3E_600, tb.T3E_1200, tb.T90, tb.FRONTEND, tb.ONYX2_JUELICH,
    ]

    for cray in (tb.T3E_600, tb.T3E_1200, tb.T90):
        net.link(cray, tb.HIPPI_SW_JUELICH, HIPPI_RATE, LOCAL_PROPAGATION, hippi)
    net.link(tb.HIPPI_SW_JUELICH, tb.GW_O200, HIPPI_RATE, LOCAL_PROPAGATION, hippi)
    net.link(tb.HIPPI_SW_JUELICH, tb.GW_ULTRA30, HIPPI_RATE, LOCAL_PROPAGATION, hippi)
    net.link(tb.GW_O200, tb.SW_JUELICH, STM4.payload_rate, LOCAL_PROPAGATION, atm622)
    net.link(tb.GW_ULTRA30, tb.SW_JUELICH, STM4.payload_rate, LOCAL_PROPAGATION, atm622)
    net.link(tb.FRONTEND, tb.SW_JUELICH, STM1.payload_rate, LOCAL_PROPAGATION, atm155)
    net.link(
        tb.ONYX2_JUELICH, tb.SW_JUELICH, STM4.payload_rate, LOCAL_PROPAGATION, atm622
    )

    # --- the WAN backbone --------------------------------------------------
    net.add(Switch(env, tb.SW_GMD, latency=SWITCH_LATENCY))
    backbone = STM16 if oc48 else STM4
    tb.wan_link_name = "wan-oc48" if oc48 else "wan-oc12"
    net.link(
        tb.SW_JUELICH,
        tb.SW_GMD,
        backbone.payload_rate,
        WAN_PROPAGATION,
        AtmFraming(),
        name=tb.wan_link_name,
        queue_packets=wan_queue_packets,
    )

    # --- Sankt Augustin (GMD) ---------------------------------------------
    net.add(Gateway(env, tb.GW_E5000, per_packet=GATEWAY_PER_PACKET))
    net.add(
        Host(
            env,
            tb.SP2,
            cpu_per_packet=SP2_STACK_PER_PACKET,
            io_bus_rate=SP2_IOBUS_RATE,
        )
    )
    net.add(Host(env, tb.ONYX2_GMD, cpu_per_packet=WS_STACK_PER_PACKET))
    net.add(Host(env, tb.E500_GMD, cpu_per_packet=WS_STACK_PER_PACKET))
    tb.gmd_hosts = [tb.SP2, tb.ONYX2_GMD, tb.E500_GMD]

    net.link(tb.GW_E5000, tb.SW_GMD, STM4.payload_rate, LOCAL_PROPAGATION, atm622)
    net.link(tb.SP2, tb.GW_E5000, HIPPI_RATE, LOCAL_PROPAGATION, hippi)
    net.link(tb.ONYX2_GMD, tb.SW_GMD, STM4.payload_rate, LOCAL_PROPAGATION, atm622)
    net.link(tb.E500_GMD, tb.SW_GMD, STM4.payload_rate, LOCAL_PROPAGATION, atm622)

    return tb

