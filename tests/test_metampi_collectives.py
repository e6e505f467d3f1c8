"""Tests for metampi collectives (object and buffer) and communicator
management, including the topology-aware (hierarchical) algorithms."""

import numpy as np
import pytest

from repro.machines import CRAY_T3E_600, CRAY_T90, IBM_SP2, SGI_ONYX2_GMD
from repro.metampi import MAX, MIN, MetaMPI, PROD, SUM

TWO_MACHINES = ((CRAY_T3E_600, 3), (IBM_SP2, 2))


def run(fn, layout=TWO_MACHINES, strategy="hierarchical", timeout=30):
    mc = MetaMPI(wallclock_timeout=timeout, strategy=strategy)
    for spec, n in layout:
        mc.add_machine(spec, ranks=n)
    results = mc.run(fn)
    return mc, [r.value for r in results]


class TestObjectCollectives:
    @pytest.mark.parametrize("root", [0, 2, 4])
    def test_bcast_from_any_root(self, root):
        def main(comm, root=root):
            obj = {"data": [1, 2, 3]} if comm.rank == root else None
            return comm.bcast(obj, root=root)

        _, vals = run(main)
        assert all(v == {"data": [1, 2, 3]} for v in vals)

    @pytest.mark.parametrize("root", [0, 3])
    def test_gather(self, root):
        def main(comm, root=root):
            return comm.gather(comm.rank ** 2, root=root)

        _, vals = run(main)
        for r, v in enumerate(vals):
            if r == root:
                assert v == [0, 1, 4, 9, 16]
            else:
                assert v is None

    def test_scatter(self):
        def main(comm):
            values = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        _, vals = run(main)
        assert vals == [f"item{i}" for i in range(5)]

    def test_scatter_wrong_length_rejected(self):
        from repro.metampi import RankFailed

        def main(comm):
            values = [1] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        with pytest.raises(RankFailed):
            run(main)

    def test_allgather(self):
        def main(comm):
            return comm.allgather(comm.rank * 10)

        _, vals = run(main)
        assert all(v == [0, 10, 20, 30, 40] for v in vals)

    @pytest.mark.parametrize(
        "op,expect", [(SUM, 10), (MAX, 4), (MIN, 0), (PROD, 0)]
    )
    def test_reduce_ops(self, op, expect):
        def main(comm, op=op):
            return comm.reduce(comm.rank, op=op, root=0)

        _, vals = run(main)
        assert vals[0] == expect
        assert all(v is None for v in vals[1:])

    def test_allreduce(self):
        def main(comm):
            return comm.allreduce(comm.rank + 1, op=SUM)

        _, vals = run(main)
        assert all(v == 15 for v in vals)

    def test_alltoall(self):
        def main(comm):
            out = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
            return out

        _, vals = run(main)
        for r, v in enumerate(vals):
            assert v == [f"{s}->{r}" for s in range(5)]

    def test_scan_inclusive_prefix(self):
        def main(comm):
            return comm.scan(comm.rank + 1, op=SUM)

        _, vals = run(main)
        assert vals == [1, 3, 6, 10, 15]

    def test_barrier_aligns_clocks(self):
        def main(comm):
            comm.advance(0.1 * comm.rank)
            comm.barrier()
            return comm.wtime()

        _, vals = run(main)
        assert len(set(vals)) == 1
        assert vals[0] >= 0.4

    def test_consecutive_collectives_do_not_cross_match(self):
        def main(comm):
            a = comm.allreduce(1, op=SUM)
            b = comm.allreduce(comm.rank, op=MAX)
            c = comm.bcast("third" if comm.rank == 0 else None, root=0)
            return (a, b, c)

        _, vals = run(main)
        assert all(v == (5, 4, "third") for v in vals)


class TestBufferCollectives:
    def test_Bcast(self):
        def main(comm):
            buf = np.arange(6, dtype=np.float64) if comm.rank == 0 else np.zeros(6)
            comm.Bcast(buf, root=0)
            return buf.tolist()

        _, vals = run(main)
        assert all(v == [0, 1, 2, 3, 4, 5] for v in vals)

    def test_Reduce_sum(self):
        def main(comm):
            send = np.full(4, float(comm.rank))
            recv = np.zeros(4) if comm.rank == 0 else None
            comm.Reduce(send, recv, op=SUM, root=0)
            return recv.tolist() if comm.rank == 0 else None

        _, vals = run(main)
        assert vals[0] == [10.0] * 4

    def test_Allreduce(self):
        def main(comm):
            send = np.array([comm.rank, -comm.rank], dtype=np.float64)
            recv = np.zeros(2)
            comm.Allreduce(send, recv, op=SUM)
            return recv.tolist()

        _, vals = run(main)
        assert all(v == [10.0, -10.0] for v in vals)

    def test_Gather(self):
        def main(comm):
            send = np.full(3, float(comm.rank))
            recv = np.zeros((comm.size, 3)) if comm.rank == 0 else None
            comm.Gather(send, recv, root=0)
            return recv[:, 0].tolist() if comm.rank == 0 else None

        _, vals = run(main)
        assert vals[0] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_Scatter(self):
        def main(comm):
            send = None
            if comm.rank == 0:
                send = np.arange(comm.size * 2, dtype=np.float64).reshape(
                    comm.size, 2
                )
            recv = np.zeros(2)
            comm.Scatter(send, recv, root=0)
            return recv.tolist()

        _, vals = run(main)
        assert vals == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]

    def test_Allgather(self):
        def main(comm):
            send = np.array([float(comm.rank)])
            recv = np.zeros((comm.size, 1))
            comm.Allgather(send, recv)
            return recv.ravel().tolist()

        _, vals = run(main)
        assert all(v == [0, 1, 2, 3, 4] for v in vals)

    def test_Reduce_missing_recvbuf_at_root(self):
        from repro.metampi import RankFailed

        def main(comm):
            comm.Reduce(np.ones(2), None, op=SUM, root=0)

        with pytest.raises(RankFailed):
            run(main)


class TestHierarchicalAwareness:
    def test_results_identical_flat_vs_hierarchical(self):
        def main(comm):
            s = comm.allreduce(comm.rank, op=SUM)
            g = comm.gather(comm.rank, root=0)
            return (s, g)

        _, flat = run(main, strategy="flat")
        _, hier = run(main, strategy="hierarchical")
        assert flat == hier

    def test_islands_structure(self):
        def main(comm):
            return sorted(tuple(sorted(i)) for i in comm.islands())

        _, vals = run(main)
        assert vals[0] == [(0, 1, 2), (3, 4)]

    def test_hierarchical_bcast_faster_over_wan(self):
        """The point of topology-aware collectives: fewer WAN crossings
        means lower virtual elapsed time for the same bcast."""
        layout = ((CRAY_T3E_600, 6), (IBM_SP2, 6))
        payload = bytes(1_000_000)

        def main(comm):
            comm.bcast(payload if comm.rank == 0 else None, root=0)
            comm.barrier()

        mc_flat, _ = run(main, layout=layout, strategy="flat")
        mc_hier, _ = run(main, layout=layout, strategy="hierarchical")
        assert mc_hier.elapsed < mc_flat.elapsed

    def test_four_machine_metacomputer(self):
        layout = (
            (CRAY_T3E_600, 2), (CRAY_T90, 2), (IBM_SP2, 2), (SGI_ONYX2_GMD, 2),
        )

        def main(comm):
            assert len(comm.islands()) == 4
            return comm.allreduce(1, op=SUM)

        _, vals = run(main, layout=layout)
        assert all(v == 8 for v in vals)


class TestCommManagement:
    def test_dup_has_separate_tag_space(self):
        def main(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.send("on-comm", 1, tag=5)
                dup.send("on-dup", 1, tag=5)
                return None
            if comm.rank == 1:
                # Receive from the dup *first*: must not match comm's message.
                a = dup.recv(source=0, tag=5)
                b = comm.recv(source=0, tag=5)
                return (a, b)
            return None

        _, vals = run(main)
        assert vals[1] == ("on-dup", "on-comm")

    def test_split_by_machine(self):
        def main(comm):
            color = 0 if comm.rank < 3 else 1
            sub = comm.split(color=color, key=comm.rank)
            return (sub.size, sub.rank, sub.allreduce(1, op=SUM))

        _, vals = run(main)
        assert vals[0] == (3, 0, 3)
        assert vals[3] == (2, 0, 2)
        assert vals[4] == (2, 1, 2)

    def test_split_with_none_color(self):
        def main(comm):
            color = None if comm.rank == 4 else 0
            sub = comm.split(color=color)
            if sub is None:
                return "excluded"
            return sub.size

        _, vals = run(main)
        assert vals[4] == "excluded"
        assert vals[0] == 4

    def test_split_key_reorders(self):
        def main(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        _, vals = run(main)
        # key=-rank: highest old rank becomes rank 0
        assert vals == [4, 3, 2, 1, 0]
