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
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fluid import FluidEngine
from repro.netsim import build_testbed
from tests.test_fluid import assert_rates_equal_full_solve

MB = 1024 * 1024
TESTBED = build_testbed()
PAIRS = [(a, b) for a in TESTBED.juelich_hosts for b in TESTBED.gmd_hosts]
PAIRS += [(b, a) for a, b in PAIRS]
LINKS = sorted(TESTBED.net.links)

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
