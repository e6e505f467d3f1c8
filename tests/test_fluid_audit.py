"""Fluid-volume audit of the fluid engine on random small days.

Each example offers a few flows over random cross-site pairs of the
testbed, cuts one random link part-way through the day and repairs it
later, calling ``invalidate_paths`` at both changes.  At every re-solve
the engine's rates must equal a full max-min solve.  Before and after
every ``invalidate_paths``, and at the end, no fluid volume may be lost
or made: each flow is offered, active or completed exactly once, a
completed flow was served its bytes, and an active flow's served bits
plus its remaining bits equal its bytes × 8.  Served bits are integrated
here from the rates the engine published, apart from its drain counters.

A second property drives the engine's kept solver index: after every
re-solve it must equal one built from scratch, over random days with a
class that goes idle and then busy again, an outage with its
``invalidate_paths`` calls, and a static demand that has a route and,
when the outage cuts it, none.
"""

import math

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.fluid import FluidEngine
from repro.netsim import build_testbed
from tests.test_fluid import assert_index_fresh, assert_rates_equal_full_solve

MB = 1024 * 1024
TESTBED = build_testbed()
PAIRS = [(a, b) for a in TESTBED.juelich_hosts for b in TESTBED.gmd_hosts]
PAIRS += [(b, a) for a, b in PAIRS]
LINKS = sorted(TESTBED.net.links)
WAN = TESTBED.wan_link.name  # cutting it leaves the static demand no route

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

flows = st.lists(
    st.tuples(
        st.integers(0, len(PAIRS) - 1),  # pair
        st.integers(0, 2_000),  # arrival, ms
        st.integers(1, 32 * MB),  # bytes
    ),
    min_size=1,
    max_size=20,
)


class _VolumeAudit:
    """Integrates every flow's served bits from the piecewise-constant
    rates published at each re-solve, and checks them against the
    engine's remaining volumes."""

    def __init__(self, offered: dict[str, int]):
        self.offered = offered  # flow name -> bytes
        self.served = dict.fromkeys(offered, 0.0)
        self.t = 0.0
        self.rates: list[tuple[str, float]] = []  # since self.t

    def _accrue(self, eng) -> None:
        dt = eng.now - self.t
        for name, rate in self.rates:
            self.served[name] += rate * dt
        self.t = eng.now

    def on_rates_changed(self, eng) -> None:
        assert_rates_equal_full_solve(eng)
        self._accrue(eng)
        self.rates = [
            (flow.name, cls.rate) for cls in eng._busy for _, _, flow in cls.heap
        ]

    def check(self, eng) -> None:
        self._accrue(eng)
        done = {f.name for f in eng.completed}
        waiting = {p[2] for p in eng._pending}
        active = {}
        for cls in eng._busy:
            for key, _, flow in cls.heap:
                active[flow.name] = key - cls.drained
        assert len(done) == len(eng.completed)
        assert len(done) + len(waiting) + len(active) == len(self.offered)
        assert done | waiting | active.keys() == self.offered.keys()
        for name in waiting:
            assert self.served[name] == 0.0
        for name, nbytes in self.offered.items():
            if name in waiting:
                continue
            got = self.served[name] + active.get(name, 0.0)
            assert math.isclose(got, nbytes * 8.0, rel_tol=1e-9, abs_tol=1e-3), name


class TestFluidVolumeAudit:
    @given(
        day=flows,
        cut=st.sampled_from(LINKS),
        t_cut=st.integers(0, 1_500),
        outage=st.integers(1, 1_500),
        window=st.sampled_from([math.inf, MB, 8 * MB]),
        static=st.booleans(),
    )
    @SLOW
    def test_cut_and_repair_conserves_volume(
        self, day, cut, t_cut, outage, window, static
    ):
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=window)
        if static:
            eng.add_static_demand("packet", "t3e-600", "sp2", 50e6)
        audit = _VolumeAudit({f"f{i}": nbytes for i, (_, _, nbytes) in enumerate(day)})
        eng.on_rates_changed = audit.on_rates_changed
        for i, (pair, at_ms, nbytes) in enumerate(day):
            src, dst = PAIRS[pair]
            eng.schedule_flow(at_ms / 1e3, f"f{i}", src, dst, nbytes)
        link = tb.net.links[cut]
        for t, up in ((t_cut / 1e3, False), ((t_cut + outage) / 1e3, True)):
            eng.run(until=t)
            audit.check(eng)
            link.set_up(up)
            eng.invalidate_paths()
            audit.check(eng)
        eng.run()
        audit.check(eng)
        assert len(eng.completed) == len(day)
        assert eng._busy == [] and eng.active == 0


class TestKeptIndex:
    @given(
        day=flows,
        refill=st.integers(0, len(PAIRS) - 1),
        cut=st.sampled_from(LINKS),
        t_cut=st.integers(0, 1_500),
        outage=st.integers(1, 1_500),
        window=st.sampled_from([math.inf, MB, 8 * MB]),
        static=st.booleans(),
    )
    @example(
        day=[(0, 0, 32 * MB)],
        refill=1,
        cut=WAN,
        t_cut=10,
        outage=500,
        window=8 * MB,
        static=True,
    )
    @example(
        day=[(0, 0, 32 * MB)],
        refill=0,
        cut=WAN,
        t_cut=10,
        outage=500,
        window=math.inf,
        static=False,
    )
    @SLOW
    def test_index_matches_a_fresh_build(
        self, day, refill, cut, t_cut, outage, window, static
    ):
        """A 1 KByte flow at 0 s and another on the same pair at 3.5 s,
        after the repair, take their class idle and busy again; the
        static demand crosses the WAN, so cutting it leaves the demand
        without a route until the repair, and with no static demand the
        cut parks every flow, so the busy set is parked classes only."""
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=window)
        if static:
            eng.add_static_demand("packet", "t3e-600", "sp2", 50e6)
        eng.on_rates_changed = assert_index_fresh
        for i, (pair, at_ms, nbytes) in enumerate(day):
            src, dst = PAIRS[pair]
            eng.schedule_flow(at_ms / 1e3, f"f{i}", src, dst, nbytes)
        src, dst = PAIRS[refill]
        eng.schedule_flow(0.0, "mouse-1", src, dst, 1024)
        eng.schedule_flow(3.5, "mouse-2", src, dst, 1024)
        link = tb.net.links[cut]
        for t, up in ((t_cut / 1e3, False), ((t_cut + outage) / 1e3, True)):
            eng.run(until=t)
            link.set_up(up)
            eng.invalidate_paths()
            if static and cut == WAN:
                assert (eng._static["packet"].costs is None) == (not up)
        eng.run()
        assert len(eng.completed) == len(day) + 2
        assert eng._busy == [] and eng.active == 0
