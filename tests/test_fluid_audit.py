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
when the outage cuts it, none.  Fixed days then pin each way the index
changes: a class idle and busy again in one step, a class created while
others toggle, a static demand added mid-day, and the renumbering of
``invalidate_paths``.

A third property checks the fill alone: ``water_fill`` over a random
subset of an index's positions gives the same bits as ``max_min_rates``
over that subset's demands.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.fluid import FluidEngine
from repro.netsim import build_testbed
from repro.netsim.tcp import check_demand, max_min_rates, water_fill
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

    @staticmethod
    def _record(monkeypatch):
        """Every engine's full index builds and per-class updates, in call
        order, as ``{engine: [(method, class key), ...]}``."""
        calls = {}
        for name in ("_build_index", "_went_busy", "_went_idle"):

            def call(eng, *args, _name=name, _fn=getattr(FluidEngine, name)):
                calls.setdefault(eng, []).append((_name, *(c.key for c in args)))
                return _fn(eng, *args)

            monkeypatch.setattr(FluidEngine, name, call)
        return calls

    @staticmethod
    def _day(late=()):
        """Three classes created at 0 s in slot order q, p, r, where p's
        1 MByte flow leaves first, at ``t``; ``late`` flows arrive at
        ``t``.  Returns the engine, run up to ``t``, and ``t``."""
        q, p, r = PAIRS[0], PAIRS[7], PAIRS[14]
        flows = [("q1", q, 64 * MB), ("p1", p, MB), ("r1", r, 64 * MB)]
        probe = FluidEngine(build_testbed().net, window_bytes=8 * MB)
        for name, (src, dst), nbytes in flows:
            probe.schedule_flow(0.0, name, src, dst, nbytes)
        while not probe.completed:
            probe.advance_to(probe.next_event_time())
        (done,) = probe.completed
        assert done.name == "p1"
        eng = FluidEngine(build_testbed().net, window_bytes=8 * MB)
        eng.on_rates_changed = assert_index_fresh
        for name, (src, dst), nbytes in flows:
            eng.schedule_flow(0.0, name, src, dst, nbytes)
        for name, (src, dst) in late:
            eng.schedule_flow(done.completed, name, src, dst, MB)
        eng.run(until=done.completed)
        return eng, done.completed

    def test_idle_and_busy_again_in_one_step(self, monkeypatch):
        """A class whose last flow leaves at the instant its next flow
        arrives leaves the kept index and comes back in the same
        ``advance_to``, between the classes around its slot, with no
        full build."""
        calls = self._record(monkeypatch)
        eng, t = self._day(late=[("p2", PAIRS[7])])
        calls = calls[eng]
        q, p, r = eng._classes.values()
        assert calls == [
            ("_build_index",), ("_went_idle", p.key), ("_went_busy", p.key)
        ]
        assert eng.now == t and [f.name for f in eng.completed] == ["p1"]
        assert eng._busy == [q, p, r] and [c.slot for c in eng._busy] == [0, 1, 2]
        eng.run()
        assert sorted(f.name for f in eng.completed) == ["p1", "p2", "q1", "r1"]
        assert ("_build_index",) not in calls[1:]

    @pytest.mark.parametrize("new_first", [True, False], ids=["new-first", "refill-first"])
    def test_class_created_while_others_toggle(self, monkeypatch, new_first):
        """A class created in the step where another goes idle and busy
        again drops the index whichever is admitted first; the full build
        gives the new class the next slot, after every older class."""
        calls = self._record(monkeypatch)
        late = [("s1", PAIRS[20]), ("p2", PAIRS[7])]
        eng, _ = self._day(late=late if new_first else late[::-1])
        calls = calls[eng]
        q, p, r, s = eng._classes.values()
        toggles = [("_went_idle", p.key)]
        if not new_first:
            toggles.append(("_went_busy", p.key))
        assert calls == [("_build_index",), *toggles, ("_build_index",)]
        assert eng._busy == [q, p, r, s] and s.slot == 3
        eng.run()
        assert len(eng.completed) == 5

    @pytest.mark.parametrize("routed", [True, False], ids=["routed", "cut-first"])
    def test_static_demand_added_mid_day(self, routed):
        """A static demand registered mid-day drops the index; at the next
        re-solve it takes the first position after the classes, and it
        moves up one when a class is created after it.  Registering it
        while its path is cut raises and registers nothing; after the
        repair it registers as before."""
        tb = build_testbed()
        eng = FluidEngine(tb.net, window_bytes=8 * MB)
        eng.on_rates_changed = assert_index_fresh
        eng.schedule_flow(0.0, "a", *PAIRS[0], 64 * MB)
        eng.schedule_flow(0.0, "b", *PAIRS[7], 64 * MB)
        eng.schedule_flow(0.3, "a2", *PAIRS[0], MB)
        eng.schedule_flow(0.5, "c", *PAIRS[14], 64 * MB)
        eng.run(until=0.1)
        if not routed:
            tb.wan_link.set_up(False)
            eng.invalidate_paths()
            with pytest.raises(ValueError, match="no route"):
                eng.add_static_demand("packet", "t3e-600", "sp2", 50e6)
            assert not eng._static
            eng.run(until=0.2)
            tb.wan_link.set_up(True)
            eng.invalidate_paths()
        eng.add_static_demand("packet", "t3e-600", "sp2", 50e6)
        assert eng._index is None
        eng.run(until=0.3)
        assert list(eng._index[5]) == [2]
        eng.run(until=0.5)
        assert list(eng._index[5]) == [3]
        assert [c.slot for c in eng._busy] == [0, 1, 2]
        eng.run()
        assert len(eng.completed) == 4

    def test_invalidate_paths_renumbers(self):
        """``invalidate_paths`` rebuilds only the classes that still carry
        flows, in their old slot order, so an idle class's slot goes to
        the class after it; a later flow on the idle pair gets a new
        class at the next slot."""
        eng, _ = self._day()
        q, p, r = eng._classes.values()
        assert eng._busy == [q, r] and [q.slot, p.slot, r.slot] == [0, 1, 2]
        eng.invalidate_paths()
        assert [(c.key, c.slot) for c in eng._busy] == [(q.key, 0), (r.key, 1)]
        eng.schedule_flow(eng.now, "p2", *PAIRS[7], MB)
        eng.advance_to(eng.now)
        slots = [(c.key, c.slot) for c in eng._busy]
        assert slots == [(q.key, 0), (r.key, 1), (p.key, 2)]
        eng.run()
        assert len(eng.completed) == 4


def _fill_case(draw):
    """A random ``max_min_rates`` input and a subset of its positions."""
    n = draw(st.integers(1, 10))
    resources = [f"r{k}" for k in range(draw(st.integers(1, 6)))]
    cost = st.one_of(st.just(0.0), st.floats(1e-10, 1e-6), st.just(4.0))
    costs, caps, counts = {}, {}, {}
    for i in range(n):
        used = draw(st.lists(st.sampled_from(resources), unique=True, max_size=4))
        costs[f"d{i}"] = {r: draw(cost) for r in used}
        caps[f"d{i}"] = draw(
            st.one_of(st.just(math.inf), st.just(0.0), st.floats(1e3, 1e10))
        )
        # 2**1023 × 4.0 overflows: the demand's resources overflow with it.
        counts[f"d{i}"] = draw(st.one_of(st.integers(1, 5), st.just(2**1023)))
    play = sorted(draw(st.sets(st.integers(0, n - 1))))
    return costs, caps, counts, play


class TestWaterFill:
    @given(case=st.composite(_fill_case)(), listed=st.booleans())
    @example(
        case=(
            {"d0": {"r0": 4.0}, "d1": {"r0": 1e-8}},
            {"d0": math.inf, "d1": math.inf},
            {"d0": 2**1023, "d1": 1},
            [1],
        ),
        listed=True,
    )
    @example(
        case=(
            {"d0": {"r0": 4.0}, "d1": {"r0": 1e-8}},
            {"d0": math.inf, "d1": math.inf},
            {"d0": 2**1023, "d1": 1},
            [0, 1],
        ),
        listed=True,
    )
    @SLOW
    def test_subset_fill_equals_the_subset_solve(self, case, listed):
        """The fill over the positions in play equals ``max_min_rates``
        over their demands alone, bit for bit, and raises for the same
        overflow; every other position reads 0.0.  The out-of-play
        positions' ``users`` entries (``listed``) change no bit, and
        their counts are never added, so their overflow does not count."""
        costs, caps, counts, play = case
        names = list(costs)
        users = {}
        for i, n in enumerate(names):
            for r, x in costs[n].items():
                if listed or i in play:
                    users.setdefault(r, []).append((i, x))
        index = (
            [caps[n] for n in names],
            [check_demand(n, costs[n], caps[n]) for n in names],
            [counts[n] for n in names],
            [costs[n] for n in names],
            users,
        )
        subset = {names[i]: costs[names[i]] for i in play}
        try:
            want = max_min_rates(subset, caps, {n: counts[n] for n in subset})
        except ValueError as exc:
            with pytest.raises(ValueError, match="overflows"):
                water_fill(*index, play)
            assert "overflows" in str(exc)
            return
        got = water_fill(*index, play)
        assert len(got) == len(names)
        for i, n in enumerate(names):
            assert repr(got[i]) == repr(want.get(n, 0.0)), n
