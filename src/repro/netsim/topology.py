"""Declarative multi-site WAN topologies: sites × switches × redundant links.

The paper's testbed is one two-site path (:mod:`repro.netsim.testbed`);
the deployments the related work grew into are not: SPring-8 ran its
control network as two counter-rotating rings with automatic failover,
and KEK's data-grid testbed staged bulk transfers across a multi-site
Gigabit WAN.  This module is the declarative layer those topologies are
written in:

* a :class:`TopologyBuilder` — declare sites (border switch + hosts,
  optionally behind an IP gateway), then trunk them together with WAN
  links; every site exposes a *named attachment point* (its border
  switch) so trunks and external extensions wire against a stable name;
* **redundant trunks** — :meth:`TopologyBuilder.parallel_trunks` lays
  multiple explicitly-named parallel links between the same site pair,
  which :class:`~repro.netsim.core.Network` routes as first-class
  alternatives (cheapest up member wins, deterministic tie-breaks);
* **generators** — :func:`build_ring` / :func:`build_dual_ring`
  (SPring-8-style single and redundant rings) and :func:`build_grid`
  (a KEK-style R×C site mesh with several disjoint paths per pair).

Every generated name is a pure function of the declared topology —
never of construction order — so two permuted constructions route
identically.

All trunks default to WAN-scale propagation (100 km at 5 µs/km).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.core import (
    AtmFraming,
    Gateway,
    Host,
    Link,
    Network,
    Switch,
)
from repro.netsim.sdh import STM4, STM16
from repro.netsim.testbed import (
    GATEWAY_PER_PACKET,
    LOCAL_PROPAGATION,
    PROPAGATION_PER_KM,
    SWITCH_LATENCY,
    WS_STACK_PER_PACKET,
)
from repro.sim import Environment

#: Default inter-site fibre run (km): the testbed's Jülich ↔ Sankt
#: Augustin distance, reused as the generic WAN span.
TRUNK_KM = 100.0


@dataclass
class Site:
    """One declared site: a border switch, its hosts, an optional
    gateway sitting between the hosts and the switch."""

    name: str
    switch: str
    hosts: list[str] = field(default_factory=list)
    gateway: Optional[str] = None


@dataclass
class MultiSiteTestbed:
    """A built multi-site topology: the network plus site bookkeeping."""

    env: Environment
    net: Network
    sites: dict[str, Site] = field(default_factory=dict)
    #: trunk link names in declaration order (fault-injection targets)
    trunks: list[str] = field(default_factory=list)

    def host(self, name: str) -> Host:
        return self.net.host(name)

    def site_hosts(self, site: str) -> list[str]:
        return list(self.sites[site].hosts)

    @property
    def all_hosts(self) -> list[str]:
        return [h for s in self.sites.values() for h in s.hosts]

    def trunk_links(self) -> list[Link]:
        return [self.net.links[name] for name in self.trunks]


class TopologyBuilder:
    """Declarative builder for multi-site WAN topologies.

    Declare sites with :meth:`add_site`, wire them with :meth:`trunk` /
    :meth:`parallel_trunks`, then :meth:`build`.  Defaults follow the
    testbed calibration: STM-4 host attachments behind an ASX-class
    switch, STM-16 trunks over 100 km spans.
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        host_rate: float = STM4.payload_rate,
        trunk_rate: float = STM16.payload_rate,
        trunk_km: float = TRUNK_KM,
        host_stack: float = WS_STACK_PER_PACKET,
        switch_latency: float = SWITCH_LATENCY,
    ):
        self.env = env or Environment()
        self.net = Network(self.env)
        self.host_rate = host_rate
        self.trunk_rate = trunk_rate
        self.trunk_km = trunk_km
        self.host_stack = host_stack
        self.switch_latency = switch_latency
        self.sites: dict[str, Site] = {}
        self.trunks: list[str] = []

    # -- sites ------------------------------------------------------------
    def add_site(
        self,
        name: str,
        hosts: int = 2,
        host_rate: Optional[float] = None,
        host_stack: Optional[float] = None,
        gateway: bool = False,
    ) -> Site:
        """Declare a site: a border switch ``sw-<name>``, ``hosts`` end
        hosts ``<name>-h<i>``, and (``gateway=True``) an IP gateway
        ``gw-<name>`` the hosts reach the switch through — the
        workstation-router pattern of the paper's testbed, and the
        element a gateway-crash fault takes out."""
        if name in self.sites:
            raise ValueError(f"duplicate site {name!r}")
        env, net = self.env, self.net
        site = Site(name=name, switch=f"sw-{name}")
        net.add(Switch(env, site.switch, latency=self.switch_latency))
        attach = site.switch
        if gateway:
            site.gateway = f"gw-{name}"
            net.add(Gateway(env, site.gateway, per_packet=GATEWAY_PER_PACKET))
            net.link(
                site.gateway,
                site.switch,
                host_rate or self.host_rate,
                LOCAL_PROPAGATION,
                AtmFraming(),
            )
            attach = site.gateway
        self.sites[name] = site
        for i in range(hosts):
            self.add_host(name, f"{name}-h{i}", host_rate, host_stack, via=attach)
        return site

    def add_host(
        self,
        site: str,
        name: str,
        rate: Optional[float] = None,
        stack: Optional[float] = None,
        via: Optional[str] = None,
    ) -> str:
        """Attach a (possibly custom-named) host to ``site``, through
        ``via`` (default: the site's gateway if it has one, else its
        border switch)."""
        try:
            declared = self.sites[site]
        except KeyError:
            raise KeyError(f"unknown site {site!r}") from None
        if via is None:
            via = declared.gateway or declared.switch
        self.net.add(
            Host(self.env, name, cpu_per_packet=(
                self.host_stack if stack is None else stack
            ))
        )
        self.net.link(
            name,
            via,
            rate or self.host_rate,
            LOCAL_PROPAGATION,
            AtmFraming(),
        )
        declared.hosts.append(name)
        return name

    def attachment(self, site: str) -> str:
        """The site's named attachment point: the border switch trunks
        (and external extensions) wire against."""
        return self.sites[site].switch

    # -- trunks -----------------------------------------------------------
    def trunk(
        self,
        a: str,
        b: str,
        rate: Optional[float] = None,
        km: Optional[float] = None,
        name: str = "",
        **kw,
    ) -> Link:
        """A WAN trunk between two sites' attachment points."""
        link = self.net.link(
            self.attachment(a),
            self.attachment(b),
            rate or self.trunk_rate,
            (self.trunk_km if km is None else km) * PROPAGATION_PER_KM,
            AtmFraming(),
            name=name or f"trunk-{a}--{b}",
            **kw,
        )
        self.trunks.append(link.name)
        return link

    def parallel_trunks(
        self,
        a: str,
        b: str,
        count: int = 2,
        rate: Optional[float] = None,
        km: Optional[float] = None,
        prefix: str = "",
        **kw,
    ) -> list[Link]:
        """``count`` redundant parallel trunks between the same site
        pair, named ``<prefix>-p<i>`` — the SPring-8 redundancy pattern.
        Routing uses the lexicographically-first up member; a fault on
        it fails traffic over to the next."""
        prefix = prefix or f"trunk-{a}--{b}"
        return [
            self.trunk(a, b, rate, km, name=f"{prefix}-p{i}", **kw)
            for i in range(count)
        ]

    def build(self) -> MultiSiteTestbed:
        return MultiSiteTestbed(
            env=self.env, net=self.net, sites=dict(self.sites),
            trunks=list(self.trunks),
        )


def _site_names(sites: int | list[str]) -> list[str]:
    if isinstance(sites, int):
        if sites < 2:
            raise ValueError("need at least 2 sites")
        return [f"site{i}" for i in range(sites)]
    if len(sites) < 2:
        raise ValueError("need at least 2 sites")
    return list(sites)


def build_ring(
    sites: int | list[str] = 4,
    hosts_per_site: int = 2,
    rings: int = 1,
    env: Optional[Environment] = None,
    trunk_rate: float = STM16.payload_rate,
    trunk_km: float = TRUNK_KM,
    gateway: bool = False,
    **kw,
) -> MultiSiteTestbed:
    """A ring of sites; ``rings=2`` lays a second, parallel ring over
    the same site pairs (distinct link names ``ring<r>-<a>--<b>``).

    With one ring a single trunk cut splits traffic onto the long way
    round and a double cut partitions the network; with two rings every
    adjacent pair has a same-cost standby, so any single cut — and many
    double cuts — fails over without loss of connectivity.  This is the
    SPring-8 redundant-ring design the availability sweep measures.
    """
    names = _site_names(sites)
    if rings < 1:
        raise ValueError("need at least 1 ring")
    builder = TopologyBuilder(
        env=env, trunk_rate=trunk_rate, trunk_km=trunk_km, **kw
    )
    for name in names:
        builder.add_site(name, hosts=hosts_per_site, gateway=gateway)
    for i, a in enumerate(names):
        b = names[(i + 1) % len(names)]
        for r in range(rings):
            builder.trunk(a, b, name=f"ring{r}-{a}--{b}")
    return builder.build()


def build_dual_ring(
    sites: int | list[str] = 4,
    hosts_per_site: int = 2,
    env: Optional[Environment] = None,
    **kw,
) -> MultiSiteTestbed:
    """The SPring-8-style redundant dual ring (``build_ring(rings=2)``)."""
    return build_ring(
        sites, hosts_per_site=hosts_per_site, rings=2, env=env, **kw
    )


def build_grid(
    rows: int = 2,
    cols: int = 2,
    hosts_per_site: int = 2,
    env: Optional[Environment] = None,
    trunk_rate: float = STM16.payload_rate,
    trunk_km: float = TRUNK_KM,
    gateway: bool = False,
    **kw,
) -> MultiSiteTestbed:
    """An R×C mesh of sites (site ``s<r><c>`` trunked to its right and
    down neighbours) — the KEK-style multi-site data grid.  Every
    interior pair has at least two disjoint WAN paths."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 sites")
    builder = TopologyBuilder(
        env=env, trunk_rate=trunk_rate, trunk_km=trunk_km, **kw
    )
    name = lambda r, c: f"s{r}{c}"  # noqa: E731
    for r in range(rows):
        for c in range(cols):
            builder.add_site(
                name(r, c), hosts=hosts_per_site, gateway=gateway
            )
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                builder.trunk(name(r, c), name(r, c + 1))
            if r + 1 < rows:
                builder.trunk(name(r, c), name(r + 1, c))
    return builder.build()
