"""Tests for the MPI-2 features the paper calls out: dynamic process
creation, attachment via ports, and language interoperability."""

import numpy as np
import pytest

from repro.machines import CRAY_T3E_600, SGI_ONYX2_GMD
from repro.metampi import (
    FortranArray,
    MetaMPI,
    as_c_layout,
    as_fortran_layout,
)
from repro.metampi.interop import dtype_for


def run(fn, layout=((CRAY_T3E_600, 2),), timeout=20):
    mc = MetaMPI(wallclock_timeout=timeout)
    for spec, n in layout:
        mc.add_machine(spec, ranks=n)
    results = mc.run(fn)
    return mc, results


class TestSpawn:
    def test_spawn_runs_children_and_returns_intercomm(self):
        def child(comm):
            parent = comm.Get_parent()
            assert parent is not None
            x = parent.recv(source=0, tag=1)
            parent.send(x * 2, 0, tag=2)
            return ("child", comm.rank, comm.size)

        def main(comm):
            inter = comm.Spawn(child, maxprocs=3)
            assert inter.remote_size == 3
            if comm.rank == 0:
                for i in range(3):
                    inter.send(i + 10, i, tag=1)
                return sorted(inter.recv(source=i, tag=2) for i in range(3))
            return None

        _, results = run(main)
        vals = [r.value for r in results]
        assert vals[0] == [20, 22, 24]
        # children ran with their own world of size 3
        assert ("child", 0, 3) in vals and ("child", 2, 3) in vals

    def test_spawned_children_communicate_among_themselves(self):
        def child(comm):
            total = comm.allreduce(comm.rank, )
            return total

        def main(comm):
            comm.Spawn(child, maxprocs=4)
            return "parent-done"

        _, results = run(main, layout=((CRAY_T3E_600, 1),))
        child_vals = [r.value for r in results[1:]]
        assert child_vals == [6, 6, 6, 6]

    def test_spawn_on_other_machine(self):
        def child(comm):
            return comm.runtime.current().machine.name

        def main(comm):
            comm.Spawn(child, maxprocs=1, machine=SGI_ONYX2_GMD)
            return None

        _, results = run(main, layout=((CRAY_T3E_600, 1),))
        assert results[1].value == "SGI Onyx 2 (GMD)"

    def test_spawn_inherits_parent_clock(self):
        def child(comm):
            return comm.wtime()

        def main(comm):
            comm.advance(5.0)
            comm.Spawn(child, maxprocs=1)
            return None

        _, results = run(main, layout=((CRAY_T3E_600, 1),))
        assert results[1].value >= 5.0

    def test_parent_comm_none_for_world_ranks(self):
        def main(comm):
            return comm.Get_parent()

        _, results = run(main)
        assert all(r.value is None for r in results)


class TestPorts:
    def test_accept_connect_exchange(self):
        """The paper's attachment use case: a running simulation accepts a
        visualization client at runtime."""

        def main(comm):
            sub = comm.split(color=comm.rank % 2)
            if comm.rank % 2 == 0:  # server side
                port = sub.Open_port()
                sub.Publish_name("rt-viz", port)
                inter = sub.Accept(port)
                frame = inter.recv(source=0, tag=0)
                inter.send(f"rendered-{frame}", 0, tag=1)
                return "server"
            port = sub.Lookup_name("rt-viz")
            inter = sub.Connect(port)
            inter.send("frame-7", 0, tag=0)
            return inter.recv(source=0, tag=1)

        _, results = run(main, layout=((CRAY_T3E_600, 1), (SGI_ONYX2_GMD, 1)))
        vals = [r.value for r in results]
        assert vals[0] == "server"
        assert vals[1] == "rendered-frame-7"

    def test_intercomm_merge(self):
        def main(comm):
            sub = comm.split(color=comm.rank % 2)
            if comm.rank % 2 == 0:
                port = sub.Open_port()
                sub.Publish_name("merge-test", port)
                inter = sub.Accept(port)
                merged = inter.Merge(high=False)
            else:
                inter = sub.Connect(sub.Lookup_name("merge-test"))
                merged = inter.Merge(high=True)
            return (merged.size, merged.rank, merged.allreduce(1))

        _, results = run(main, layout=((CRAY_T3E_600, 1), (SGI_ONYX2_GMD, 1)))
        vals = [r.value for r in results]
        assert vals[0] == (2, 0, 2)
        assert vals[1] == (2, 1, 2)

    def test_spawned_server_accepts_parent_connect(self):
        """Spawn and Connect/Accept end to end: the parents spawn a
        steering server, which publishes a port and accepts the parents'
        connection; the run repeats exactly."""

        def server(comm):
            port = comm.Open_port()
            comm.Publish_name("steer", port)
            inter = comm.Accept(port)
            value = inter.recv(source=0, tag=1)
            inter.send(value + 1, 0, tag=2)
            return value

        def main(comm):
            comm.Spawn(server, maxprocs=1, machine=SGI_ONYX2_GMD)
            comm.advance(0.5 * comm.rank)
            inter = comm.Connect(comm.Lookup_name("steer"))
            if comm.rank == 0:
                inter.send(41, 0, tag=1)
                return inter.recv(source=0, tag=2)
            return None

        runs = []
        for _ in range(3):
            mc, results = run(main)
            runs.append(([r.value for r in results], repr(mc.elapsed)))
        assert runs[0][0] == [42, None, 41]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_lookup_unpublished_times_out(self):
        from repro.metampi import MetaMpiError, RankFailed

        def main(comm):
            comm.Lookup_name("never-published")

        mc = MetaMPI(wallclock_timeout=0.2)
        mc.add_machine(CRAY_T3E_600, ranks=1)
        with pytest.raises((RankFailed, MetaMpiError)):
            mc.run(main)


class TestInterop:
    def test_fortran_type_mapping(self):
        assert dtype_for("fortran", "REAL*8") == np.float64
        assert dtype_for("fortran", "INTEGER") == np.int32
        assert dtype_for("c", "double") == np.float64

    def test_unknown_type_rejected(self):
        with pytest.raises(KeyError):
            dtype_for("fortran", "QUATERNION*32")

    def test_layout_conversions(self):
        a = np.arange(6).reshape(2, 3)
        f = as_fortran_layout(a)
        c = as_c_layout(f)
        assert f.flags["F_CONTIGUOUS"]
        assert c.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(a, c)

    def test_fortran_array_one_based_access(self):
        fa = FortranArray(np.arange(12).reshape(3, 4))
        assert fa.get(1, 1) == 0
        assert fa.get(3, 4) == 11
        fa.set(2, 2, -5)
        assert fa.get(2, 2) == -5

    def test_fortran_array_column_contiguous(self):
        fa = FortranArray(np.arange(12, dtype=np.float64).reshape(3, 4))
        col = fa.column(2)
        np.testing.assert_array_equal(col, [1, 5, 9])

    def test_cross_language_roundtrip(self):
        """A Fortran-side field crosses to C and back unchanged."""
        rng = np.random.default_rng(3)
        field = rng.normal(size=(4, 5, 6))
        fa = FortranArray(field)
        c_side = fa.to_c()
        back = FortranArray.from_c(c_side)
        np.testing.assert_array_equal(back.data, field)

    def test_interop_across_ranks(self):
        """Fortran-layout field sent from a 'Fortran' rank is usable on a
        'C' rank after layout conversion (the coupled-application path)."""

        def main(comm):
            if comm.rank == 0:
                field = as_fortran_layout(
                    np.arange(24, dtype=np.float64).reshape(4, 6)
                )
                comm.Send(field, 1)
                return None
            buf = np.empty((4, 6))
            comm.Recv(buf, source=0)
            return float(as_c_layout(buf)[3, 5])

        _, results = run(main)
        assert results[1].value == 23.0
