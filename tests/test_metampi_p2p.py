"""Tests for metampi point-to-point messaging, requests, and virtual time."""

import numpy as np
import pytest

from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import (
    ANY_SOURCE,
    ANY_TAG,
    MetaMPI,
    MetaMpiError,
    RankFailed,
    Status,
)
from repro.metampi.errors import DeadlockSuspected, InvalidTag


def run(fn, layout=((CRAY_T3E_600, 2),), timeout=20, **kw):
    mc = MetaMPI(wallclock_timeout=timeout, **kw)
    for spec, n in layout:
        mc.add_machine(spec, ranks=n)
    results = mc.run(fn)
    return mc, [r.value for r in results]


class TestSendRecv:
    def test_object_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        _, vals = run(main)
        assert vals[1] == {"a": 7, "b": 3.14}

    def test_copy_on_send_isolation(self):
        """Mutating after send must not affect the receiver."""
        def main(comm):
            if comm.rank == 0:
                obj = [1, 2, 3]
                comm.send(obj, 1)
                obj.append(99)
                return None
            return comm.recv(source=0)

        _, vals = run(main)
        assert vals[1] == [1, 2, 3]

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == 0:
                st = Status()
                got = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st)
                return (got, st.source, st.tag)
            comm.send("from-1", 0, tag=42)
            return None

        _, vals = run(main)
        assert vals[0] == ("from-1", 1, 42)

    def test_status_count_is_payload_bytes(self):
        def main(comm):
            if comm.rank == 0:
                st = Status()
                comm.Recv(np.empty(100), source=1, status=st)
                return st.count
            comm.Send(np.zeros(100), 0)
            return None

        _, vals = run(main)
        assert vals[0] == 800  # 100 float64

    def test_non_overtaking_same_source_tag(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1, tag=7)
                return None
            return [comm.recv(source=0, tag=7) for _ in range(5)]

        _, vals = run(main)
        assert vals[1] == [0, 1, 2, 3, 4]

    def test_tag_selectivity(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        _, vals = run(main)
        assert vals[1] == ("a", "b")

    def test_negative_user_tag_rejected(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag=-5)
            return None

        with pytest.raises(RankFailed) as exc:
            run(main)
        assert isinstance(exc.value.original, InvalidTag)

    def test_any_tag_receive_leaves_collective_traffic_alone(self):
        """A wildcard receive posted before a collective must not take
        the collective's message: ANY_TAG matches user tags only."""

        def main(comm):
            if comm.rank == 0:
                got = comm.recv()
                return got, comm.bcast(None, root=1)
            comm.bcast("x", root=1)
            comm.send("y", dest=0, tag=7)
            return None

        _, vals = run(main, layout=((CRAY_T3E_600, 1), (IBM_SP2, 1)))
        assert vals == [("y", "x"), None]

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.recv(source=1, tag=-1000),
            lambda c: c.Recv(np.zeros(1), source=1, tag=-2),
            lambda c: c.irecv(source=1, tag=-1000),
            lambda c: c.Irecv(np.zeros(1), source=1, tag=-3),
            lambda c: c.probe(source=1, tag=-1000),
            lambda c: c.sendrecv(1, dest=1, source=1, recvtag=-1000),
        ],
        ids=["recv", "Recv", "irecv", "Irecv", "probe", "sendrecv"],
    )
    def test_negative_receive_tag_rejected(self, call):
        """Only ANY_TAG may be negative on the receive side; a receive
        can never name a collective's internal tag, and a bad sendrecv
        sends nothing."""

        def main(comm):
            if comm.rank == 0:
                with pytest.raises(InvalidTag):
                    call(comm)
                comm.send("done", dest=1)
                return None
            status = Status()
            return comm.recv(source=0, status=status), status.tag

        mc, vals = run(main)
        assert vals[1] == ("done", 0)
        assert mc.runtime.traffic_summary()["p2p"]["intra"]["messages"] == 1

    def test_sendrecv(self):
        def main(comm):
            other = 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=other, source=other)

        _, vals = run(main)
        assert vals == [1, 0]

    def test_dest_out_of_range(self):
        def main(comm):
            comm.send(1, dest=99)

        with pytest.raises(RankFailed):
            run(main)


class TestBufferOps:
    def test_buffer_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), 1)
                return None
            buf = np.empty(10)
            comm.Recv(buf, source=0)
            return buf.tolist()

        _, vals = run(main)
        assert vals[1] == list(range(10))

    def test_buffer_copy_on_send(self):
        def main(comm):
            if comm.rank == 0:
                arr = np.ones(5)
                comm.Send(arr, 1)
                arr[:] = -1
                return None
            buf = np.empty(5)
            comm.Recv(buf, source=0)
            return buf.sum()

        _, vals = run(main)
        assert vals[1] == 5.0

    def test_size_mismatch_raises(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(10), 1)
                return None
            comm.Recv(np.empty(5), source=0)

        with pytest.raises(RankFailed):
            run(main)

    def test_shape_agnostic_copy(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(12).reshape(3, 4), 1)
                return None
            buf = np.empty((4, 3), dtype=np.int64)
            comm.Recv(buf, source=0)
            return int(buf[3, 2])

        _, vals = run(main)
        assert vals[1] == 11


class TestRequests:
    def test_isend_irecv(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2], 1, tag=3)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=3)
            return req.wait()

        _, vals = run(main)
        assert vals[1] == [1, 2]

    def test_irecv_test_polling(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=9)
                flag, val = req.test()
                results = [flag]
                comm.send("go", 1, tag=8)
                got = req.wait()
                results.append(got)
                return results
            comm.recv(source=0, tag=8)
            comm.send("answer", 0, tag=9)
            return None

        _, vals = run(main)
        assert vals[0][0] is False
        assert vals[0][1] == "answer"

    def test_spin_on_test_while_peer_computes(self):
        """A rank spinning on ``req.test()`` keeps yielding to its peer,
        which sends only after its own compute, so the run completes."""

        def main(comm):
            if comm.rank == 1:
                comm.advance(5.0)
                comm.send("late", 0, tag=4)
                return None
            req = comm.irecv(source=1, tag=4)
            spins = 0
            while True:
                flag, val = req.test()
                if flag:
                    return val, spins, comm.wtime()
                spins += 1
                comm.advance(1e-3)

        _, vals = run(main)
        val, spins, clock = vals[0]
        # The first miss hands the baton to rank 1; no long spin needed.
        assert val == "late" and spins < 10 and clock >= 5.0

    def test_spin_on_probe_while_peer_computes(self):
        def main(comm):
            if comm.rank == 1:
                comm.advance(2.0)
                comm.send("ready", 0, tag=6)
                return None
            while not comm.probe(source=1, tag=6):
                pass
            return comm.recv(source=1, tag=6)

        _, vals = run(main)
        assert vals[0] == "ready"

    def test_waitall(self):
        from repro.metampi.request import Request

        def main(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(i * 10, 1, tag=i)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in range(3)]
            return Request.waitall(reqs)

        _, vals = run(main)
        assert vals[1] == [0, 10, 20]

    def test_irecv_buffer(self):
        def main(comm):
            if comm.rank == 0:
                comm.Isend(np.full(4, 2.5), 1)
                return None
            buf = np.zeros(4)
            req = comm.Irecv(buf, source=0)
            req.wait()
            return buf.sum()

        _, vals = run(main)
        assert vals[1] == 10.0


class TestVirtualTime:
    def test_advance_accumulates(self):
        def main(comm):
            comm.advance(1.5)
            comm.advance(0.5)
            return comm.wtime()

        _, vals = run(main, layout=((CRAY_T3E_600, 1),))
        assert vals[0] == pytest.approx(2.0)

    def test_advance_negative_rejected(self):
        def main(comm):
            comm.advance(-1)

        with pytest.raises(RankFailed):
            run(main, layout=((CRAY_T3E_600, 1),))

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf")])
    def test_advance_non_finite_rejected(self, seconds):
        """A NaN or infinite step would leave the baton's (clock, rank)
        order undefined, so it fails like a negative one."""
        def main(comm):
            comm.advance(seconds)

        with pytest.raises(RankFailed) as exc:
            run(main, layout=((CRAY_T3E_600, 1),))
        assert isinstance(exc.value.original, ValueError)

    def test_recv_clock_respects_arrival(self):
        """Receiver idling at t=0 jumps to the message arrival time."""
        def main(comm):
            if comm.rank == 0:
                comm.advance(1.0)
                comm.send("x", 1)
                return None
            comm.recv(source=0)
            return comm.wtime()

        _, vals = run(main)
        assert vals[1] > 1.0

    def test_intra_machine_faster_than_wan(self):
        """The metacomputing-aware property: local latency << WAN latency."""
        def main(comm):
            if comm.rank == 0:
                comm.send(b"x" * 1000, 1)   # same machine
                comm.send(b"x" * 1000, 2)   # across the WAN
                return None
            comm.recv(source=0)
            return comm.wtime()

        _, vals = run(main, layout=((CRAY_T3E_600, 2), (IBM_SP2, 1)))
        local_t, wan_t = vals[1], vals[2]
        assert wan_t > 10 * local_t

    def test_elapsed_is_max_clock(self):
        def main(comm):
            comm.advance(0.1 * (comm.rank + 1))

        mc, _ = run(main, layout=((CRAY_T3E_600, 3),))
        assert mc.elapsed == pytest.approx(0.3)

    def test_message_size_affects_transit(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(10), 1)
                return None
            t0 = comm.wtime()
            buf = np.empty(10)
            comm.Recv(buf, source=0)
            small = comm.wtime() - t0
            return small

        def main_big(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1_000_000), 1)
                return None
            t0 = comm.wtime()
            buf = np.empty(1_000_000)
            comm.Recv(buf, source=0)
            return comm.wtime() - t0

        _, small = run(main)
        _, big = run(main_big)
        assert big[1] > 10 * small[1]


class TestFailures:
    def test_rank_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("app bug")

        with pytest.raises(RankFailed) as exc:
            run(main)
        assert exc.value.rank == 1
        assert isinstance(exc.value.original, ValueError)

    def test_deadlock_watchdog(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1)  # never sent

        with pytest.raises((RankFailed, DeadlockSuspected)):
            run(main, timeout=0.3)

    def test_deadlock_detected_at_once(self):
        """Mutual receives: once both ranks are parked no message can
        ever arrive, so the run fails at once, not at the watchdog."""
        import time

        def main(comm):
            comm.recv(source=1 - comm.rank, tag=7)

        t0 = time.monotonic()
        with pytest.raises((RankFailed, DeadlockSuspected)) as exc:
            run(main, timeout=60)
        assert time.monotonic() - t0 < 1.0
        msg = str(exc.value)
        assert "rank 0 in recv(" in msg and "rank 1 in recv(" in msg

    def test_outside_rank_thread_rejected(self):
        mc = MetaMPI()
        mc.add_machine(CRAY_T3E_600, ranks=1)
        with pytest.raises(MetaMpiError):
            mc.runtime.current()

    def test_empty_metacomputer_rejected(self):
        mc = MetaMPI()
        with pytest.raises(RuntimeError):
            mc.run(lambda comm: None)

    def test_zero_ranks_rejected(self):
        mc = MetaMPI()
        with pytest.raises(ValueError):
            mc.add_machine(CRAY_T3E_600, ranks=0)
