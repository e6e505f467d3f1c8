"""Multi-site topology builder, parallel-link routing, and failover.

Covers the topology layer (:mod:`repro.netsim.topology`), the min-cost
deterministic routing with redundant parallel links, the reroute
detection delay, and the BulkTransfer stall-failover contract: a stall
verdict is reserved for a path with no live alternative.
"""

import pytest

from repro.netsim.core import Host, Link, Network, PlainFraming, route_cost
from repro.netsim.faults import FaultInjector
from repro.netsim.flows import BulkTransfer, CbrFlow, TransferStalled
from repro.netsim.ip import ClassicalIP
from repro.netsim.topology import (
    TopologyBuilder,
    build_dual_ring,
    build_grid,
    build_ring,
)
from repro.sim import Environment

IP = ClassicalIP(9180)


def diamond(reroute_delay=0.0, rate=622e6):
    """a == b/c == d: two equal-cost disjoint 2-hop paths."""
    env = Environment()
    net = Network(env)
    for name in ("a", "b", "c", "d"):
        net.add(Host(env, name))
    net.link("a", "b", rate, 1e-4)
    net.link("a", "c", rate, 1e-4)
    net.link("b", "d", rate, 1e-4)
    net.link("c", "d", rate, 1e-4)
    net.reroute_delay = reroute_delay
    return env, net


# ---------------------------------------------------------------------------
# Builder structure


class TestTopologyBuilder:
    def test_site_layout_and_attachment(self):
        b = TopologyBuilder()
        site = b.add_site("left", hosts=3)
        assert site.switch == "sw-left"
        assert site.hosts == ["left-h0", "left-h1", "left-h2"]
        assert site.gateway is None
        assert b.attachment("left") == "sw-left"

    def test_gateway_site_routes_hosts_through_gateway(self):
        b = TopologyBuilder()
        b.add_site("l", hosts=1, gateway=True)
        b.add_site("r", hosts=1)
        b.trunk("l", "r")
        tb = b.build()
        path, _ = tb.net.path_links("l-h0", "r-h0")
        assert path == ["l-h0", "gw-l", "sw-l", "sw-r", "r-h0"]

    def test_duplicate_site_rejected(self):
        b = TopologyBuilder()
        b.add_site("x")
        with pytest.raises(ValueError, match="duplicate site"):
            b.add_site("x")

    def test_unknown_site_rejected(self):
        b = TopologyBuilder()
        with pytest.raises(KeyError, match="unknown site"):
            b.add_host("nope", "h")
        with pytest.raises(KeyError):
            b.attachment("nope")

    def test_trunks_are_named_and_recorded(self):
        b = TopologyBuilder()
        b.add_site("l", hosts=1)
        b.add_site("r", hosts=1)
        ln = b.trunk("l", "r")
        assert ln.name == "trunk-l--r"
        tb = b.build()
        assert tb.trunks == ["trunk-l--r"]
        assert tb.trunk_links() == [tb.net.links["trunk-l--r"]]

    def test_parallel_trunks_distinct_names(self):
        b = TopologyBuilder()
        b.add_site("l", hosts=1)
        b.add_site("r", hosts=1)
        links = b.parallel_trunks("l", "r", count=3)
        assert [ln.name for ln in links] == [
            "trunk-l--r-p0",
            "trunk-l--r-p1",
            "trunk-l--r-p2",
        ]

    def test_generator_shapes(self):
        ring = build_ring(5, hosts_per_site=1)
        assert len(ring.trunks) == 5
        dual = build_dual_ring(4, hosts_per_site=1)
        assert len(dual.trunks) == 8
        assert len(dual.all_hosts) == 4
        grid = build_grid(3, 2, hosts_per_site=1)
        # 3 rows x 1 horizontal + 2 cols x 2 vertical = 3 + 4
        assert len(grid.trunks) == 3 * 1 + 2 * 2
        with pytest.raises(ValueError):
            build_ring(1)
        with pytest.raises(ValueError):
            build_grid(1, 1)


# ---------------------------------------------------------------------------
# Parallel links and min-cost routing


class TestParallelLinkRouting:
    def test_cheapest_parallel_member_wins(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", 155e6, 1e-4, name="slow")
        fast = net.link("a", "b", 622e6, 1e-4, name="fast")
        assert net.route_link("a", "b") is fast
        assert route_cost(net.links["slow"]) > route_cost(fast)

    def test_equal_cost_parallel_ties_break_by_name(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", 622e6, 1e-4, name="p1")
        p0 = net.link("a", "b", 622e6, 1e-4, name="p0")
        assert net.route_link("a", "b") is p0

    def test_parallel_failover_and_reversion(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        p0 = net.link("a", "b", 622e6, 1e-4, name="p0")
        p1 = net.link("a", "b", 622e6, 1e-4, name="p1")
        assert net.route_link("a", "b") is p0
        p0.set_up(False)
        assert net.route_link("a", "b") is p1
        assert net.reroutes >= 1
        before = net.reroutes
        p0.set_up(True)
        assert net.route_link("a", "b") is p0  # reverts to the tie-winner
        assert net.reroutes > before

    def test_unnamed_duplicate_still_rejected(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", 622e6, name="p0")
        with pytest.raises(ValueError, match="duplicate link"):
            net.link("a", "b", 622e6)
        with pytest.raises(ValueError, match="duplicate link"):
            net.link("b", "a", 622e6)
        # A rejected link must not have attached anywhere.
        assert len(net.nodes["a"].links) == 1
        assert len(net.nodes["b"].links) == 1

    def test_equal_cost_paths_enumeration(self):
        _, net = diamond()
        paths = net.equal_cost_paths("a", "d")
        assert paths == [["a", "b", "d"], ["a", "c", "d"]]
        assert net.shortest_path("a", "d") == paths[0]
        grid = build_grid(2, 2, hosts_per_site=1)
        assert len(grid.net.equal_cost_paths("sw-s00", "sw-s11")) == 2

    def test_dual_ring_bulk_survives_ring_cut(self):
        tb = build_dual_ring(4)
        net = tb.net
        FaultInjector(net, seed=1).link_down(
            "ring0-site0--site1", at=0.005, duration=None
        )
        bt = BulkTransfer(
            net, "site0-h0", "site2-h0", 4_000_000, ip=IP, name="cutbulk"
        )
        rate = bt.run()
        assert rate > 0
        assert net.reroutes > 0
        # The standby ring carried the remainder of the transfer.
        assert sum(net.links["ring1-site0--site1"].tx_packets.values()) > 0


# ---------------------------------------------------------------------------
# Topology-mutation cache invalidation (stale-route bugfix)


class TestMutationInvalidation:
    def test_directly_constructed_link_flushes_routes(self):
        env = Environment()
        net = Network(env)
        for name in ("a", "b", "c"):
            net.add(Host(env, name))
        net.link("a", "b", 622e6)
        net.link("b", "c", 622e6)
        assert net.next_hop("a", "c") == "b"  # warm the caches
        # Bypass Network.link: attach a Link object directly, the way
        # external extensions do.  The network-wide flush must happen on
        # attach, not only via Network.link.
        shortcut = Link(env, net.nodes["a"], net.nodes["c"], 622e6)
        shortcut.network = net
        net.links[shortcut.name] = shortcut
        assert net.next_hop("a", "c") == "c"
        assert net.route_link("a", "c") is shortcut

    def test_new_node_and_links_reroute_resolved_routes(self):
        env = Environment()
        net = Network(env)
        for name in ("a", "b", "c"):
            net.add(Host(env, name))
        net.link("a", "b", 622e6, 1e-3)
        net.link("b", "c", 622e6, 1e-3)
        assert net.shortest_path("a", "c") == ["a", "b", "c"]
        assert net.route_link("a", "c").name == "a--b"
        # Add a cheaper relay after routes resolved.
        net.add(Host(env, "relay"))
        net.link("a", "relay", 2.4e9, 1e-6)
        net.link("relay", "c", 2.4e9, 1e-6)
        assert net.shortest_path("a", "c") == ["a", "relay", "c"]
        assert net.route_link("a", "c").name == "a--relay"


# ---------------------------------------------------------------------------
# Reroute detection delay


class TestRerouteDelay:
    def test_zero_delay_reroutes_synchronously(self):
        env, net = diamond()
        primary = net.route_link("a", "d")
        assert primary.name == "a--b"
        primary.set_up(False)
        assert net.route_link("a", "d").name == "a--c"

    def test_positive_delay_keeps_stale_route_until_flush(self):
        env, net = diamond(reroute_delay=0.05)
        primary = net.route_link("a", "d")
        primary.set_up(False)
        # Established route still points at the dead link until the
        # delayed invalidation fires.
        assert net.route_link("a", "d") is primary
        env.run(until=env.event().succeed(delay=0.1))
        assert net.route_link("a", "d").name == "a--c"
        assert net.reroutes >= 1

    def test_delayed_detection_loses_frames_synchronous_does_not(self):
        losses = {}
        for delay in (0.0, 0.05):
            env, net = diamond(reroute_delay=delay)
            FaultInjector(net, seed=0).link_down(
                "a--b", at=0.02, duration=None
            )
            cbr = CbrFlow(
                net,
                "a",
                "d",
                frame_bytes=50_000,
                interval=0.005,
                n_frames=30,
                ip=IP,
                name=f"cbr-{delay}",
            )
            env.run(until=cbr.done)
            losses[delay] = cbr.frames_lost
        assert losses[0.0] == 0
        assert losses[0.05] > 0


# ---------------------------------------------------------------------------
# Stall-failover contract (TransferStalled bugfix)


class TestStallFailover:
    def test_transfer_survives_when_alternate_path_lives(self):
        """Detection lag drives the sender through its whole timeout
        budget, but a live alternate path exists: the transfer must fail
        over and complete, never raise TransferStalled."""
        env, net = diamond(reroute_delay=1.0)
        FaultInjector(net, seed=0).link_down("a--b", at=0.01, duration=None)
        bt = BulkTransfer(
            net,
            "a",
            "d",
            2_000_000,
            ip=IP,
            name="survivor",
            min_rto=0.05,
            initial_rto=0.05,
            max_consecutive_timeouts=3,
        )
        rate = bt.run()
        assert rate > 0
        assert bt.failovers > 0
        assert bt.timeouts >= 3

    def test_transfer_stalls_when_no_alternate_path(self):
        env = Environment()
        net = Network(env)
        net.add(Host(env, "a"))
        net.add(Host(env, "b"))
        net.link("a", "b", 622e6, 1e-4)
        FaultInjector(net, seed=0).link_down("a--b", at=0.01, duration=None)
        bt = BulkTransfer(
            net,
            "a",
            "b",
            2_000_000,
            ip=IP,
            name="doomed",
            min_rto=0.05,
            initial_rto=0.05,
            max_consecutive_timeouts=3,
        )
        with pytest.raises(TransferStalled):
            bt.run()
        assert bt.failovers == 0
