"""Simulator of the Gigabit Testbed West network (paper Section 2, Figure 1).

Layers, bottom-up:

* :mod:`repro.netsim.sdh` — SDH/SONET line vs. payload rates (STM-1/4/16).
* :mod:`repro.netsim.atm` — 53-byte cells, AAL5 segmentation and the cell tax.
* :mod:`repro.netsim.ip` — classical IP over ATM (LLC/SNAP, RFC 1577 style)
  with the large (64 KByte) MTUs the testbed relied on.
* :mod:`repro.netsim.hippi` — the 800 Mbit/s HiPPI channels of the
  supercomputers.
* :mod:`repro.netsim.core` — packet-level discrete-event network: hosts,
  switches, HiPPI↔ATM gateways, links, static routing.
* :mod:`repro.netsim.sched` — deficit-round-robin per-flow scheduling
  for the shared link transmitters and gateway workers.
* :mod:`repro.netsim.tcp` — window/RTT TCP throughput (analytic + DES flows).
* :mod:`repro.netsim.flows` — bulk, request/response and CBR traffic,
  with TCP-style loss recovery on the bulk flow.
* :mod:`repro.netsim.faults` — deterministic fault injection (link
  down/up windows, random wire loss, gateway crash/restart).
* :mod:`repro.netsim.testbed` — the Figure-1 topology builder.
* :mod:`repro.netsim.topology` — declarative multi-site topologies
  (sites × switches × redundant trunks; ring / dual-ring / grid
  generators) with failover-capable min-cost routing.
* :mod:`repro.netsim.tap` — the delivery tap: a rolling digest of every
  flow delivery, for golden tests and for finding where two runs part.
"""

from repro.netsim.atm import (
    ATM_CELL_BYTES,
    ATM_PAYLOAD_BYTES,
    AAL5Frame,
    aal5_cells,
    aal5_efficiency,
    aal5_wire_bytes,
)
from repro.netsim.sdh import SDH_LEVELS, SdhLevel
from repro.netsim.ip import ClassicalIP, IP_HEADER, TCP_HEADER, LLC_SNAP_HEADER
from repro.netsim.core import (
    Host,
    Link,
    Network,
    Packet,
    Switch,
    Gateway,
    AtmFraming,
    HippiFraming,
    PlainFraming,
    route_cost,
)
from repro.netsim.sched import DrrScheduler
from repro.netsim.tcp import (
    FlowDemand,
    TcpModel,
    fair_share_throughputs,
    tcp_loss_throughput_bound,
    tcp_steady_throughput,
)
from repro.netsim.flows import BulkTransfer, CbrFlow, PingFlow, TransferStalled
from repro.netsim.faults import FaultInjector
from repro.netsim.testbed import GigabitTestbedWest, build_multisite, build_testbed
from repro.netsim.topology import (
    MultiSiteTestbed,
    Site,
    TopologyBuilder,
    build_dual_ring,
    build_grid,
    build_ring,
)

__all__ = [
    "ATM_CELL_BYTES",
    "ATM_PAYLOAD_BYTES",
    "AAL5Frame",
    "aal5_cells",
    "aal5_efficiency",
    "aal5_wire_bytes",
    "SDH_LEVELS",
    "SdhLevel",
    "ClassicalIP",
    "IP_HEADER",
    "TCP_HEADER",
    "LLC_SNAP_HEADER",
    "Host",
    "Link",
    "Network",
    "Packet",
    "Switch",
    "Gateway",
    "AtmFraming",
    "HippiFraming",
    "PlainFraming",
    "route_cost",
    "DrrScheduler",
    "FlowDemand",
    "TcpModel",
    "fair_share_throughputs",
    "tcp_loss_throughput_bound",
    "tcp_steady_throughput",
    "BulkTransfer",
    "CbrFlow",
    "PingFlow",
    "TransferStalled",
    "FaultInjector",
    "GigabitTestbedWest",
    "build_multisite",
    "build_testbed",
    "MultiSiteTestbed",
    "Site",
    "TopologyBuilder",
    "build_dual_ring",
    "build_grid",
    "build_ring",
]
