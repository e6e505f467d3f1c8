"""Tests for the selectable collective strategies: cross-strategy result
agreement (including non-commutative ops), the barrier clock contract,
tree edge cases, dtype-safe buffer receives, the per-strategy WAN
traffic accounting that the hierarchical algorithms are judged on, and
the communicator's once-built collective plan."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.machines import CRAY_T3E_600, CRAY_T90, IBM_SP2, SGI_ONYX2_GMD
from repro.metampi import (
    ANY_SOURCE,
    STRATEGIES,
    MetaMPI,
    MetaMpiError,
    Op,
    RankFailed,
    SUM,
    Status,
    create_strategy,
)
from repro.metampi.collectives import resolve_strategy
from repro.metampi.comm import Intracomm
from repro.telemetry import MetricsRegistry, instrument_runtime

TWO_MACHINES = ((CRAY_T3E_600, 3), (IBM_SP2, 2))
STRATS = sorted(STRATEGIES)

#: Non-commutative ops: string concatenation and matrix multiplication.
CONCAT = Op("concat", lambda a, b: a + b, np.add, commutative=False)
MATMUL = Op("matmul", lambda a, b: a @ b, np.matmul, commutative=False)


def run(fn, layout=TWO_MACHINES, strategy="hierarchical", timeout=30):
    mc = MetaMPI(wallclock_timeout=timeout, strategy=strategy)
    for spec, n in layout:
        mc.add_machine(spec, ranks=n)
    results = mc.run(fn)
    return mc, [r.value for r in results]


def layout_for(n):
    """n ranks split across two machines (all on one when n == 1)."""
    if n == 1:
        return ((CRAY_T3E_600, 1),)
    a = (n + 1) // 2
    return ((CRAY_T3E_600, a), (IBM_SP2, n - a))


def make_world(layout, strategy="hierarchical"):
    """An Intracomm over a fresh layout, without starting rank threads
    (enough for topology-only inspection like ``_tree``)."""
    mc = MetaMPI(strategy=strategy)
    for spec, n in layout:
        mc.add_machine(spec, ranks=n)
    runtime = mc.runtime
    return Intracomm(
        runtime,
        runtime.next_comm_id(),
        [c.world_rank for c in runtime.ranks],
        strategy=strategy,
    )


def assert_valid_tree(parent, children, n, root):
    """Every rank reached exactly once; parent/children maps agree."""
    assert root not in parent
    assert set(parent) == set(range(n)) - {root}
    reached = set()
    stack = [root]
    while stack:
        r = stack.pop()
        assert r not in reached, f"rank {r} reached twice"
        reached.add(r)
        for c in children[r]:
            assert parent[c] == r
            stack.append(c)
    assert reached == set(range(n))


class TestStrategySelection:
    def test_create_strategy_unknown_name(self):
        with pytest.raises(MetaMpiError, match="unknown collective strategy"):
            create_strategy("bogus")

    def test_instances_are_shared(self):
        assert create_strategy("ring") is create_strategy("ring")

    @pytest.mark.parametrize("name", STRATS)
    def test_world_carries_named_strategy(self, name):
        def main(comm):
            return comm.strategy.name

        _, vals = run(main, strategy=name)
        assert vals == [name] * 5

    def test_boolean_strategy_is_rejected(self):
        with pytest.raises(MetaMpiError, match="unknown collective strategy"):
            resolve_strategy(True)

    def test_subcommunicators_inherit_strategy(self):
        def main(comm):
            sub = comm.split(color=comm.rank % 2)
            dup = comm.dup()
            return (sub.strategy.name, dup.strategy.name)

        _, vals = run(main, strategy="ring")
        assert all(v == ("ring", "ring") for v in vals)


class TestCrossStrategyAgreement:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_core_collectives(self, strategy):
        def main(comm):
            s = comm.allreduce(comm.rank + 1, op=SUM)
            g = comm.gather(comm.rank ** 2, root=1)
            ag = comm.allgather(comm.rank * 10)
            a2a = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
            b = comm.bcast("payload" if comm.rank == 2 else None, root=2)
            rs = comm.reduce_scatter(
                [comm.rank * comm.size + i for i in range(comm.size)], op=SUM
            )
            return (s, g, ag, a2a, b, rs)

        _, vals = run(main, strategy=strategy)
        for r, (s, g, ag, a2a, b, rs) in enumerate(vals):
            assert s == 15
            assert g == ([0, 1, 4, 9, 16] if r == 1 else None)
            assert ag == [0, 10, 20, 30, 40]
            assert a2a == [f"{src}->{r}" for src in range(5)]
            assert b == "payload"
            assert rs == sum(q * 5 + r for q in range(5))

    @pytest.mark.parametrize("strategy", STRATS)
    def test_large_buffer_Allreduce(self, strategy):
        def main(comm):
            send = np.arange(64, dtype=np.float64) * (comm.rank + 1)
            recv = np.zeros(64)
            comm.Allreduce(send, recv, op=SUM)
            return recv.tolist()

        _, vals = run(main, strategy=strategy)
        expect = (np.arange(64, dtype=np.float64) * 15).tolist()
        assert all(v == expect for v in vals)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_object_allreduce_on_arrays(self, strategy):
        """The ring fast path also serves the lowercase API when handed
        an ndarray; results must match the tree strategies exactly."""

        def main(comm):
            out = comm.allreduce(
                np.full(16, comm.rank + 1, dtype=np.int64), op=SUM
            )
            return np.asarray(out).tolist()

        _, vals = run(main, strategy=strategy)
        assert all(v == [15] * 16 for v in vals)


class TestNonCommutativeOps:
    @pytest.mark.parametrize("strategy", STRATS)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_concat_fold_is_rank_ordered(self, strategy, n):
        def main(comm):
            word = f"[{comm.rank}]"
            r = comm.reduce(word, op=CONCAT, root=0)
            a = comm.allreduce(word, op=CONCAT)
            s = comm.scan(word, op=CONCAT)
            return (r, a, s)

        _, vals = run(main, layout=layout_for(n), strategy=strategy)
        expect = "".join(f"[{i}]" for i in range(n))
        assert vals[0][0] == expect
        for i, (r, a, s) in enumerate(vals):
            if i > 0:
                assert r is None
            assert a == expect
            assert s == "".join(f"[{j}]" for j in range(i + 1))

    @pytest.mark.parametrize("strategy", STRATS)
    def test_matmul_object_path(self, strategy):
        mats = [
            np.array([[i + 1, i], [1, i + 2]], dtype=np.int64) for i in range(5)
        ]

        def main(comm):
            out = comm.allreduce(mats[comm.rank], op=MATMUL)
            return np.asarray(out).tolist()

        _, vals = run(main, strategy=strategy)
        expect = mats[0] @ mats[1] @ mats[2] @ mats[3] @ mats[4]
        assert all(v == expect.tolist() for v in vals)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_matmul_buffer_Reduce(self, strategy):
        mats = [
            np.array([[i + 1, i], [1, i + 2]], dtype=np.float64)
            for i in range(5)
        ]

        def main(comm):
            recv = np.zeros((2, 2)) if comm.rank == 0 else None
            comm.Reduce(mats[comm.rank], recv, op=MATMUL, root=0)
            return recv.tolist() if comm.rank == 0 else None

        _, vals = run(main, strategy=strategy)
        expect = mats[0] @ mats[1] @ mats[2] @ mats[3] @ mats[4]
        assert vals[0] == expect.tolist()

    @pytest.mark.parametrize("strategy", STRATS)
    def test_non_contiguous_islands_fall_back(self, strategy):
        """Reordering the ranks so islands interleave must not break the
        rank-ordered fold (hierarchical falls back to its tree path)."""
        key_of = [0, 2, 4, 1, 3]

        def main(comm):
            sub = comm.split(color=0, key=key_of[comm.rank])
            return (sub.rank, sub.allreduce(f"[{sub.rank}]", op=CONCAT))

        _, vals = run(main, strategy=strategy)
        expect = "".join(f"[{i}]" for i in range(5))
        assert all(v[1] == expect for v in vals)


class TestBarrierContract:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_exit_clocks_equal_and_past_slowest_entry(self, strategy):
        def main(comm):
            # Rank 0 is the slowest to arrive.
            comm.advance(0.05 * (comm.size - comm.rank))
            entry = comm.wtime()
            comm.barrier()
            return (entry, comm.wtime())

        _, vals = run(main, strategy=strategy)
        exits = {exit for _, exit in vals}
        assert len(exits) == 1, f"unequal exit clocks: {sorted(exits)}"
        slowest_entry = max(entry for entry, _ in vals)
        assert exits.pop() >= slowest_entry

    @pytest.mark.parametrize("strategy", STRATS)
    def test_single_rank_barrier(self, strategy):
        def main(comm):
            comm.barrier()
            return comm.wtime()

        _, vals = run(main, layout=((CRAY_T3E_600, 1),), strategy=strategy)
        assert vals[0] >= 0.0


class TestTreeEdgeCases:
    @pytest.mark.parametrize("strategy", STRATS)
    @pytest.mark.parametrize("root", [0, 1, 4])
    def test_root_not_an_island_leader(self, strategy, root):
        comm = make_world(TWO_MACHINES, strategy)
        parent, children = comm._tree(root)
        assert_valid_tree(parent, children, 5, root)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_single_rank_islands(self, strategy):
        layout = (
            (CRAY_T3E_600, 1), (CRAY_T90, 1), (IBM_SP2, 1), (SGI_ONYX2_GMD, 1),
        )
        comm = make_world(layout, strategy)
        for root in range(4):
            parent, children = comm._tree(root)
            assert_valid_tree(parent, children, 4, root)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_all_ranks_on_one_host(self, strategy):
        comm = make_world(((CRAY_T3E_600, 6),), strategy)
        for root in (0, 3, 5):
            parent, children = comm._tree(root)
            assert_valid_tree(parent, children, 6, root)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_mixed_island_sizes(self, strategy):
        layout = ((CRAY_T3E_600, 1), (IBM_SP2, 3), (CRAY_T90, 1))
        comm = make_world(layout, strategy)
        for root in range(5):
            parent, children = comm._tree(root)
            assert_valid_tree(parent, children, 5, root)

    def test_hierarchical_crosses_wan_once_per_island(self):
        comm = make_world(TWO_MACHINES, "hierarchical")
        parent, children = comm._tree(0)
        wan_edges = [
            (c, p) for c, p in parent.items() if (c < 3) != (p < 3)
        ]
        assert len(wan_edges) == 1


class TestDtypeSafety:
    def test_Recv_rejects_lossy_cast(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([1.5, 2.5]), dest=1)
            elif comm.rank == 1:
                buf = np.zeros(2, dtype=np.int32)
                comm.Recv(buf, source=0)

        with pytest.raises(RankFailed, match="cannot safely cast"):
            run(main)

    def test_Recv_allows_safe_upcast(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.array([1, 2], dtype=np.int32), dest=1)
                return None
            if comm.rank == 1:
                buf = np.zeros(2, dtype=np.float64)
                comm.Recv(buf, source=0)
                return buf.tolist()
            return None

        _, vals = run(main)
        assert vals[1] == [1.0, 2.0]

    @pytest.mark.parametrize("strategy", STRATS)
    def test_Bcast_rejects_lossy_cast(self, strategy):
        def main(comm):
            if comm.rank == 0:
                buf = np.array([1.5, 2.5, 3.5])
            else:
                buf = np.zeros(3, dtype=np.int32)
            comm.Bcast(buf, root=0)

        with pytest.raises(RankFailed, match="cannot safely cast"):
            run(main, strategy=strategy)

    @staticmethod
    def _reduce(comm, coll, send, recv):
        if coll == "Reduce":
            comm.Reduce(send, recv if comm.rank == 0 else None, root=0)
        else:
            comm.Allreduce(send, recv)

    @pytest.mark.parametrize("layout", [((CRAY_T3E_600, 1),), TWO_MACHINES],
                             ids=["one-rank", "two-machines"])
    @pytest.mark.parametrize("coll", ["Reduce", "Allreduce"])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_reductions_reject_lossy_cast(self, strategy, coll, layout):
        """A float64 sum used to land truncated in an int64 recvbuf."""
        def main(comm):
            recv = np.zeros(8, dtype=np.int64)
            self._reduce(comm, coll, np.full(8, 1.25), recv)

        with pytest.raises(RankFailed, match="cannot safely cast") as exc:
            run(main, layout=layout, strategy=strategy)
        assert isinstance(exc.value.original, MetaMpiError)

    @pytest.mark.parametrize("coll", ["Reduce", "Allreduce"])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_reductions_reject_mismatched_sizes(self, strategy, coll):
        """One rank's 9-element buffer against everyone else's 8 used to
        fail with a bare numpy reshape error (or, in the ring, could
        broadcast silently)."""
        def main(comm):
            n = 9 if comm.rank == comm.size - 1 else 8
            recv = np.zeros(n, dtype=np.int64)
            self._reduce(comm, coll, np.ones(n, dtype=np.int64), recv)

        with pytest.raises(RankFailed, match="size") as exc:
            run(main, strategy=strategy)
        assert isinstance(exc.value.original, MetaMpiError)

    @pytest.mark.parametrize("coll", ["Reduce", "Allreduce"])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_reductions_into_int64_unchanged(self, strategy, coll):
        def main(comm):
            recv = np.zeros(8, dtype=np.int64)
            self._reduce(comm, coll, np.arange(8, dtype=np.int64), recv)
            return recv.tolist()

        _, vals = run(main, strategy=strategy)
        want = (5 * np.arange(8)).tolist()
        assert vals[0] == want
        if coll == "Allreduce":
            assert all(v == want for v in vals)

    def test_Recv_into_non_contiguous_buffer(self):
        """A strided view receives in place (``reshape(-1)`` of one is a
        copy, so the data used to be dropped)."""
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(6.0), dest=1)
                return None
            if comm.rank == 1:
                grid = np.zeros((3, 4))
                comm.Recv(grid[:, 1:3], source=0)
                return grid.tolist()
            return None

        _, vals = run(main)
        assert np.array_equal(vals[1], [[0, 0, 1, 0], [0, 2, 3, 0], [0, 4, 5, 0]])


class TestWanAccounting:
    def test_hierarchical_allreduce_one_crossing_per_direction(self):
        rounds = 3

        def main(comm):
            for _ in range(rounds):
                comm.allreduce(comm.rank, op=SUM)

        mc, _ = run(main, strategy="hierarchical")
        wan = mc.runtime.traffic_summary()["hierarchical.allreduce"]["wan"]
        # Two islands: leader reduce (one crossing) + leader bcast (one
        # crossing back) per round.
        assert wan["messages"] == 2 * rounds

    def test_hierarchical_alltoall_one_bundle_per_island_pair(self):
        def main(comm):
            comm.alltoall([(comm.rank, d) for d in range(comm.size)])

        mc_naive, _ = run(main, strategy="naive")
        mc_hier, _ = run(main, strategy="hierarchical")
        naive_wan = mc_naive.runtime.traffic_summary()["naive.alltoall"]["wan"]
        hier_wan = mc_hier.runtime.traffic_summary()[
            "hierarchical.alltoall"
        ]["wan"]
        # Naive: every cross-island rank pair sends directly (3*2 each way).
        assert naive_wan["messages"] == 12
        # Hierarchical: one leader bundle per island pair per direction.
        assert hier_wan["messages"] == 2

    def test_p2p_traffic_labelled_separately(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=3)
            elif comm.rank == 3:
                comm.recv(source=0)
            comm.barrier()

        mc, _ = run(main, strategy="hierarchical")
        summary = mc.runtime.traffic_summary()
        assert summary["p2p"]["wan"]["messages"] == 1
        assert "hierarchical.barrier" in summary

    def test_per_strategy_telemetry_counters(self):
        reg = MetricsRegistry()
        mc = MetaMPI(wallclock_timeout=30, strategy="hierarchical")
        for spec, n in TWO_MACHINES:
            mc.add_machine(spec, ranks=n)
        instrument_runtime(mc, reg)

        def main(comm):
            comm.allreduce(comm.rank, op=SUM)

        mc.run(main)
        assert (
            reg.value(
                "metampi.collective.messages",
                collective="hierarchical.allreduce",
                scope="wan",
            )
            == 2
        )
        assert (
            reg.value(
                "metampi.collective.bytes",
                collective="hierarchical.allreduce",
                scope="wan",
            )
            > 0
        )

    def test_hierarchical_beats_naive_on_wan_bytes(self):
        payload = list(range(256))

        def main(comm):
            comm.allreduce(payload, op=CONCAT)

        mc_naive, _ = run(main, strategy="naive")
        mc_hier, _ = run(main, strategy="hierarchical")
        naive_wan = mc_naive.runtime.traffic_summary()["naive.allreduce"]["wan"]
        hier_wan = mc_hier.runtime.traffic_summary()[
            "hierarchical.allreduce"
        ]["wan"]
        assert hier_wan["messages"] < naive_wan["messages"]


#: 2x T3E-600 + 2x SP2: two islands of two ranks each.
FOUR_RANKS = ((CRAY_T3E_600, 2), (IBM_SP2, 2))
PLAN_ROUNDS = 50

#: What the coupler loop below produces: (virtual elapsed s,
#: {label: {scope: messages}}).  The ranks run under the runtime's baton,
#: so even flat and naive, which send from several ranks at once over
#: the shared WAN channel, reserve it in virtual-time order and repeat
#: exactly.
PLAN_LITERALS = {
    "flat": (0.20368446666666468, {
        "flat.Allreduce": {"intra": 100, "wan": 200},
        "flat.Bcast": {"intra": 50, "wan": 100},
        "flat.barrier": {"intra": 200, "wan": 400},
    }),
    "hierarchical": (0.20932445238095201, {
        "hierarchical.Allreduce": {"intra": 200, "wan": 100},
        "hierarchical.Bcast": {"intra": 100, "wan": 50},
        "hierarchical.barrier": {"intra": 400, "wan": 200},
    }),
    "naive": (0.2107174666666645, {
        "naive.Allreduce": {"intra": 100, "wan": 200},
        "naive.Bcast": {"intra": 50, "wan": 100},
        "naive.barrier": {"intra": 200, "wan": 400},
    }),
    "ring": (0.3101226190476184, {
        "ring.Allreduce": {"intra": 600, "wan": 600},
        "ring.Bcast": {"intra": 100, "wan": 50},
        "ring.barrier": {"intra": 600, "wan": 600},
    }),
}
PLAN_ELAPSED_ABS = {"flat": 0, "naive": 0, "hierarchical": 0, "ring": 0}


def coupler_loop(comm, rounds=PLAN_ROUNDS):
    """The flux-coupler round: Allreduce, Bcast from root 0, barrier."""
    flux = np.arange(8, dtype=np.int64) * (comm.rank + 1)
    coupled = np.zeros(8, dtype=np.int64)
    checksum = 0
    for _ in range(rounds):
        comm.Allreduce(flux, coupled, op=SUM)
        corr = (
            coupled // comm.size if comm.rank == 0
            else np.zeros(8, dtype=np.int64)
        )
        comm.Bcast(corr, root=0)
        comm.barrier()
        checksum += int(corr[-1])
    return checksum


def message_counts(mc):
    return {
        label: {scope: v["messages"] for scope, v in scopes.items()}
        for label, scopes in mc.runtime.traffic_summary().items()
    }


def spy_plan(monkeypatch):
    """Count tree builds per (comm, strategy, root) and island scans per
    comm, across every strategy class and every communicator."""
    trees: Counter = Counter()
    scans: Counter = Counter()
    lock = threading.Lock()
    for cls in STRATEGIES.values():
        tree = cls.__dict__.get("tree")
        if tree is None:
            continue

        def spy_tree(self, comm, root, _tree=tree):
            with lock:
                trees[(comm, self, root)] += 1
            return _tree(self, comm, root)

        monkeypatch.setattr(cls, "tree", spy_tree)
    scan = Intracomm._scan_islands

    def spy_scan(comm):
        with lock:
            scans[comm] += 1
        return scan(comm)

    monkeypatch.setattr(Intracomm, "_scan_islands", spy_scan)
    return trees, scans


class TestPlanCache:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_plan_built_once_and_results_unchanged(self, strategy, monkeypatch):
        trees, scans = spy_plan(monkeypatch)
        mc, vals = run(coupler_loop, layout=FOUR_RANKS, strategy=strategy)

        assert trees and max(trees.values()) == 1
        assert scans and max(scans.values()) == 1
        elapsed, counts = PLAN_LITERALS[strategy]
        assert vals == [850] * 4
        assert mc.elapsed == pytest.approx(
            elapsed, rel=0, abs=PLAN_ELAPSED_ABS[strategy]
        )
        assert message_counts(mc) == counts

    @pytest.mark.parametrize("strategy", ["flat", "hierarchical"])
    def test_plan_fills_race_free(self, strategy, monkeypatch):
        """Eight rank threads on a 1 us switch interval, all starting
        from the empty plan: each entry is still built exactly once."""
        trees, scans = spy_plan(monkeypatch)
        layout = ((CRAY_T3E_600, 4), (IBM_SP2, 4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, vals = run(lambda comm: coupler_loop(comm, rounds=5), layout, strategy)
        finally:
            sys.setswitchinterval(interval)
        # 8 ranks: column 7 sums to 7 * 36, so each round adds 252 // 8.
        assert vals == [5 * 31] * 8
        assert max(trees.values()) == 1 and max(scans.values()) == 1

    def test_mutating_islands_leaves_plan_intact(self):
        fresh = make_world(TWO_MACHINES, "hierarchical")
        comm = make_world(TWO_MACHINES, "hierarchical")
        islands = comm.islands()
        islands.reverse()
        islands[0].append(99)
        assert comm.islands() == fresh.islands() == [[0, 1, 2], [3, 4]]
        for root in range(5):
            assert comm._tree(root) == fresh._tree(root)

        def main(comm):
            comm.islands().clear()
            comm.islands()[0].reverse()
            return comm.allreduce(comm.rank, op=SUM)

        mc, vals = run(main, strategy="hierarchical")
        assert vals == [10] * 5
        assert message_counts(mc)["hierarchical.allreduce"]["wan"] == 2

    def test_strategy_swap_rebuilds_tree(self):
        def main(comm):
            first = comm.bcast("flat" if comm.rank == 0 else None, root=0)
            # Every rank checks in before rank 0 swaps the strategy and
            # waits for the swap before the second bcast (plain p2p, so
            # neither handshake is a collective).
            if comm.rank == 0:
                for r in range(1, 4):
                    comm.recv(source=r, tag=1)
                comm.strategy = create_strategy("naive")
                for r in range(1, 4):
                    comm.send("swapped", r, tag=2)
            else:
                comm.send("ready", 0, tag=1)
                comm.recv(source=0, tag=2)
            return first, comm.bcast("naive" if comm.rank == 0 else None, root=0)

        # Rank 0 alone on the T3E, ranks 1-3 on the SP2.
        layout = ((CRAY_T3E_600, 1), (IBM_SP2, 3))
        mc, vals = run(main, layout=layout, strategy="flat")
        assert vals == [("flat", "naive")] * 4
        counts = message_counts(mc)
        # Flat binomial from rank 0: 0->1, 0->2 cross the WAN, 1->3 not.
        assert counts["flat.bcast"] == {"intra": 1, "wan": 2}
        # Naive star: rank 0 sends to each of the others across the WAN.
        assert counts["naive.bcast"] == {"wan": 3}


def coupler_any_source(comm):
    """Ten coupler rounds, then every other rank reports to rank 0, which
    takes the reports with ANY_SOURCE receives and records their order."""
    checksum = coupler_loop(comm, rounds=10)
    if comm.rank != 0:
        comm.advance((comm.size - comm.rank) * 1e-4)
        comm.send(comm.rank, 0, tag=5)
        return checksum, None
    order = []
    for _ in range(comm.size - 1):
        status = Status()
        comm.recv(source=ANY_SOURCE, tag=5, status=status)
        order.append(status.source)
    return checksum, order


class TestBatonDeterminism:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_coupler_repeats_exactly_under_thread_churn(self, strategy):
        """A 1 us switch interval makes the interpreter swap threads all
        the time; under the baton the run is still the same every time."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for _ in range(10):
                mc, vals = run(coupler_any_source, FOUR_RANKS, strategy)
                runs.append((repr(mc.elapsed), message_counts(mc), vals[0][1]))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs[0][2]) == [1, 2, 3]
        assert all(r == runs[0] for r in runs)


ARR = np.arange(6, dtype=np.int64)


def filled(call, buf):
    """Run a buffer collective that fills ``buf``; return ``buf``."""
    call(buf)
    return buf


#: Every object and buffer collective on a one-rank communicator, with
#: good arguments and bad ones (root out of range, missing buffers,
#: wrong lengths).
SOLO_CASES = {
    "bcast": lambda c: c.bcast({"k": 1}),
    "bcast_bad_root": lambda c: c.bcast(1, root=1),
    "gather": lambda c: c.gather("x"),
    "gather_bad_root": lambda c: c.gather("x", root=-1),
    "scatter": lambda c: c.scatter(["only"]),
    "scatter_short": lambda c: c.scatter([]),
    "scatter_none": lambda c: c.scatter(None),
    "allgather": lambda c: c.allgather(3.5),
    "reduce": lambda c: c.reduce(7, op=SUM),
    "reduce_concat": lambda c: c.reduce("ab", op=CONCAT),
    "reduce_bad_root": lambda c: c.reduce(7, root=2),
    "allreduce": lambda c: c.allreduce(ARR, op=SUM),
    "allreduce_concat": lambda c: c.allreduce("ab", op=CONCAT),
    "alltoall": lambda c: c.alltoall(["self"]),
    "alltoall_long": lambda c: c.alltoall([1, 2]),
    "barrier": lambda c: c.barrier(),
    "scan": lambda c: c.scan(4),
    "exscan": lambda c: c.exscan(4),
    "reduce_scatter": lambda c: c.reduce_scatter([9]),
    "reduce_scatter_long": lambda c: c.reduce_scatter([9, 9]),
    "Bcast": lambda c: filled(c.Bcast, ARR.copy()),
    "Bcast_bad_root": lambda c: c.Bcast(ARR.copy(), root=3),
    "Reduce": lambda c: filled(lambda b: c.Reduce(ARR, b), np.zeros(6, np.int64)),
    "Reduce_matmul": lambda c: filled(
        lambda b: c.Reduce(np.eye(2) * 3, b, op=MATMUL), np.zeros((2, 2))
    ),
    "Reduce_no_recvbuf": lambda c: c.Reduce(ARR, None),
    "Reduce_short_recvbuf": lambda c: c.Reduce(ARR, np.zeros(3, np.int64)),
    "Reduce_bad_root": lambda c: c.Reduce(ARR, np.zeros(6, np.int64), root=1),
    "Allreduce": lambda c: filled(
        lambda b: c.Allreduce(ARR, b), np.zeros(6, np.int64)
    ),
    "Allreduce_no_recvbuf": lambda c: c.Allreduce(ARR, None),
    "Gather": lambda c: filled(lambda b: c.Gather(ARR, b), np.zeros((1, 6))),
    "Gather_no_recvbuf": lambda c: c.Gather(ARR, None),
    "Scatter": lambda c: filled(
        lambda b: c.Scatter(ARR.reshape(1, 6), b), np.zeros(6)
    ),
    "Scatter_no_sendbuf": lambda c: c.Scatter(None, np.zeros(6)),
    "Scatter_wrong_rows": lambda c: c.Scatter(ARR.reshape(2, 3), np.zeros(3)),
    "Allgather": lambda c: filled(lambda b: c.Allgather(ARR, b), np.zeros((1, 6))),
}


def outcome(call, comm):
    """What a collective call did: its result or the error it raised."""
    try:
        value = call(comm)
    except Exception as exc:  # noqa: BLE001 - compared across paths
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, np.ndarray):
        value = (value.dtype.str, value.tolist())
    return ("returned", repr(value))


def force_generic(monkeypatch):
    """Make every communicator take the generic collective path, even
    when it has one rank."""
    init = Intracomm.__init__

    def generic_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._single = False

    monkeypatch.setattr(Intracomm, "__init__", generic_init)


def every_collective(comm):
    """Each collective once, with valid arguments, on any world size."""
    n, me = comm.size, comm.rank
    arr = ARR * (me + 1)
    out = [
        comm.bcast(("b", me), root=n - 1),
        comm.gather(me, root=0),
        comm.scatter(list(range(n)) if me == 0 else None, root=0),
        comm.allgather(me),
        comm.reduce(me, op=SUM, root=0),
        comm.allreduce(arr, op=SUM).tolist(),
        comm.allreduce(str(me), op=CONCAT),
        comm.alltoall([(me, r) for r in range(n)]),
        comm.scan(me),
        comm.exscan(me),
        comm.reduce_scatter([me] * n),
    ]
    comm.barrier()
    buf = arr.copy()
    comm.Bcast(buf, root=0)
    recv = np.zeros(6, np.int64)
    comm.Reduce(arr, recv if me == 0 else None, root=0)
    out += [buf.tolist(), recv.tolist()]
    comm.Allreduce(arr, recv)
    rows = np.zeros((n, 6), np.int64)
    comm.Gather(arr, rows if me == 0 else None)
    out += [recv.tolist(), rows.tolist()]
    part = np.zeros(6, np.int64)
    comm.Scatter(np.tile(arr, (n, 1)) if me == 0 else None, part)
    comm.Allgather(arr, rows)
    return out + [part.tolist(), rows.tolist()]


class TestOneRankCommunicators:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_one_rank_world_matches_generic_path(self, strategy, monkeypatch):
        """Same results, recvbuf contents and errors as the generic path;
        no message, no clock movement, no tag and no tree."""

        def main(comm):
            comm.advance(0.25)
            got = [outcome(call, comm) for call in SOLO_CASES.values()]
            return got, repr(comm.wtime()), dict(comm._me().coll_seq)

        one = ((CRAY_T3E_600, 1),)
        with monkeypatch.context() as m:
            force_generic(m)
            generic_mc, [(generic, generic_clock, generic_tags)] = run(
                main, one, strategy
            )
        trees, _ = spy_plan(monkeypatch)
        solo_mc, [(solo, solo_clock, solo_tags)] = run(main, one, strategy)

        assert dict(zip(SOLO_CASES, solo)) == dict(zip(SOLO_CASES, generic))
        assert solo_clock == generic_clock == repr(0.25)
        assert message_counts(solo_mc) == message_counts(generic_mc) == {}
        assert generic_tags and solo_tags == {} and not trees
        by_case = dict(zip(SOLO_CASES, solo))
        assert by_case["Reduce_no_recvbuf"] == (
            "raised", "MetaMpiError", "root must supply recvbuf"
        )
        assert by_case["bcast_bad_root"][:2] == ("raised", "MetaMpiError")
        assert by_case["Allreduce"] == ("returned", repr(("<i8", ARR.tolist())))

    @pytest.mark.parametrize(
        "layout", [((CRAY_T3E_600, 1), (IBM_SP2, 1)), ((CRAY_T3E_600, 1), (IBM_SP2, 2))]
    )
    def test_hierarchical_one_rank_sites_match_generic_path(self, layout, monkeypatch):
        """Hierarchical phases on one-rank site communicators take the
        short cut: every result, clock and message count is unchanged."""
        with monkeypatch.context() as m:
            force_generic(m)
            generic_mc, generic = run(every_collective, layout, "hierarchical")
        trees, _ = spy_plan(monkeypatch)
        solo_mc, solo = run(every_collective, layout, "hierarchical")

        assert solo == generic
        assert [r.clock for r in solo_mc.runtime.ranks] == [
            r.clock for r in generic_mc.runtime.ranks
        ]
        assert message_counts(solo_mc) == message_counts(generic_mc)
        assert trees and all(comm.size > 1 for comm, _, _ in trees)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_bad_root_is_a_typed_error_at_every_size(self, strategy):
        def main(comm):
            with pytest.raises(MetaMpiError, match="root 5 out of range"):
                comm.bcast("x", root=5)
            return comm.allreduce(1)

        _, vals = run(main, ((CRAY_T3E_600, 2), (IBM_SP2, 1)), strategy)
        assert vals == [3, 3, 3]
