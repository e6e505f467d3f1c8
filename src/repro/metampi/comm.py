"""Communicators: point-to-point, collectives, MPI-2 dynamic processes.

API follows the mpi4py convention the testbed's users would recognise:
lowercase methods communicate pickled Python objects, uppercase methods
communicate NumPy buffers in place.

Collective *algorithms* live in :mod:`repro.metampi.collectives`: each
intracommunicator carries a selectable
:class:`~repro.metampi.collectives.CollectiveStrategy`
(``naive`` / ``flat`` / ``ring`` / ``hierarchical``, chainermn-style).
The default ``hierarchical`` strategy is metacomputing-aware (paper
Section 3): ranks are grouped into islands by machine, intra-island
traffic rides the fast internal interconnect, and as little as one
message per island crosses the WAN.  ``strategy="flat"`` selects the
topology-blind binomial algorithms for the ablation benchmark.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.metampi.collectives import (
    CollectiveStrategy,
    resolve_strategy,
)
from repro.metampi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    INTERNAL_TAG_BASE,
    Op,
    SUM,
)
from repro.metampi.errors import InvalidTag, MetaMpiError
from repro.metampi.message import Message
from repro.metampi.request import Request
from repro.metampi.runtime import RankContext, Runtime
from repro.metampi.status import Status

#: Offset used to derive a merged intracommunicator's id from an
#: intercommunicator's id deterministically on both sides.
_MERGE_ID_OFFSET = 1_000_000


class Comm:
    """Base communicator: identity and point-to-point operations."""

    def __init__(self, runtime: Runtime, comm_id: int, group: Sequence[int]):
        self.runtime = runtime
        self.comm_id = comm_id
        self.group = list(group)
        self._index = {w: i for i, w in enumerate(self.group)}
        if len(self._index) != len(self.group):
            raise MetaMpiError("duplicate ranks in communicator group")

    # -- identity ---------------------------------------------------------
    def _me(self) -> RankContext:
        ctx = self.runtime.current()
        if ctx.world_rank not in self._index:
            raise MetaMpiError(
                f"calling thread (world rank {ctx.world_rank}) is not a "
                f"member of this communicator"
            )
        return ctx

    @property
    def rank(self) -> int:
        """This rank's index within the communicator."""
        return self._index[self._me().world_rank]

    @property
    def size(self) -> int:
        """Number of ranks in the (local) group."""
        return len(self.group)

    def Get_rank(self) -> int:
        """MPI-style accessor."""
        return self.rank

    def Get_size(self) -> int:
        """MPI-style accessor."""
        return self.size

    # -- group translation (overridden by Intercomm) -------------------------
    def _peer_group(self) -> list[int]:
        """The group that dest/source indices refer to."""
        return self.group

    def _dst_world(self, dest: int) -> int:
        peers = self._peer_group()
        if not 0 <= dest < len(peers):
            raise MetaMpiError(f"dest {dest} out of range for size {len(peers)}")
        return peers[dest]

    def _world_src(self, source: int) -> int:
        return source if source == ANY_SOURCE else self._dst_world(source)

    def _src_local(self, world: int) -> int:
        peers = self._peer_group()
        return peers.index(world)

    # -- virtual time ---------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Account ``seconds`` of local computation on this rank's clock."""
        # Written so NaN fails too: a NaN clock would leave the baton's
        # (clock, rank) order undefined.
        if not 0.0 <= seconds < math.inf:
            raise ValueError(
                f"advance needs finite seconds >= 0, got {seconds!r}")
        ctx = self._me()
        ctx.clock += seconds
        if self.runtime.tracer is not None:
            self.runtime.tracer.record_compute(ctx.world_rank, seconds, ctx.clock)

    def wtime(self) -> float:
        """This rank's virtual clock (MPI_Wtime equivalent)."""
        return self._me().clock

    # -- point-to-point: objects ------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a picklable object (buffered: returns immediately)."""
        self._post("obj", obj, dest, tag, user=True)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Blocking matched receive; returns the object."""
        return self._collect(source, tag, status).data

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send (buffered, so born complete)."""
        self.send(obj, dest, tag)
        return Request.completed()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive returning a waitable Request."""
        self._me()  # a non-member or a bad source fails here, not at wait()
        self._world_src(source)

        def waiter(status: Optional[Status]) -> Any:
            return self._collect(source, tag, status).data

        return Request(wait_fn=waiter, probe_fn=lambda: self.probe(source, tag))

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Combined send+receive (deadlock-free in this buffered runtime)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag, status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already queued.  A miss lets the
        other ready ranks run first (see :meth:`Runtime.poll`)."""
        ctx = self._me()
        world_src = self._world_src(source)
        box = ctx.mailbox
        return self.runtime.poll(
            ctx, lambda: box.probe(self.comm_id, world_src, tag)
        )

    # -- point-to-point: buffers ---------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Send a NumPy buffer (copied at call time)."""
        self._post("buf", np.asarray(buf), dest, tag, user=True)

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> None:
        """Receive into ``buf`` (shape/size must match the message)."""
        msg = self._collect(source, tag, status)
        self._copy_into(buf, msg.data)

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer send."""
        self.Send(buf, dest, tag)
        return Request.completed()

    def Irecv(
        self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Nonblocking buffer receive; wait() fills ``buf``."""
        self._me()  # a non-member or a bad source fails here, not at wait()
        self._world_src(source)

        def waiter(status: Optional[Status]) -> np.ndarray:
            msg = self._collect(source, tag, status)
            self._copy_into(buf, msg.data)
            return buf

        return Request(wait_fn=waiter, probe_fn=lambda: self.probe(source, tag))

    def Sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        recvbuf: np.ndarray,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> None:
        """Combined buffer send+receive."""
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source, recvtag)

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _copy_into(buf: np.ndarray, data: Any) -> None:
        """Copy received data into ``buf`` in place (sizes must match)."""
        data = np.asarray(data)
        if buf.size != data.size:
            raise MetaMpiError(f"buffer size {buf.size} != data size {data.size}")
        # Reject lossy dtype conversion: receiving a float64 message into
        # an int32 buffer used to truncate values silently.  (The dtype
        # comparison only skips ``can_cast``'s cost on the common case.)
        if data.dtype != buf.dtype and not np.can_cast(
            data.dtype, buf.dtype, casting="safe"
        ):
            raise MetaMpiError(
                f"cannot safely cast dtype {data.dtype} into buffer dtype "
                f"{buf.dtype}"
            )
        # Assign through the buffer's own shape: ``buf.reshape(-1)`` is a
        # copy, not a view, when ``buf`` is not C-contiguous.
        buf[...] = data.reshape(buf.shape)

    def _post(self, kind: str, data: Any, dest: int, tag: int, user: bool) -> None:
        if user and tag < 0:
            raise InvalidTag(f"user tags must be >= 0, got {tag}")
        ctx = self._me()
        self.runtime.post(ctx, self._dst_world(dest), self.comm_id, tag, kind, data)

    def _collect(
        self, source: int, tag: int, status: Optional[Status]
    ) -> Message:
        ctx = self._me()
        msg = self.runtime.collect(ctx, self.comm_id, self._world_src(source), tag)
        if status is not None:
            status.source = self._src_local(msg.src)
            status.tag = msg.tag
            status.count = msg.nbytes
        return msg

    # -- MPI-2 attachment hooks shared by both comm kinds --------------------
    def Get_parent(self) -> Optional["Intercomm"]:
        """The intercommunicator to the spawning processes (children only)."""
        return self.runtime.current().parent_comm

    def Disconnect(self) -> None:
        """No-op in this buffered runtime (messages are already delivered)."""

    def Publish_name(self, service: str, port: str) -> None:
        """Publish a port under a service name (MPI_Publish_name)."""
        self.runtime.publish_name(service, port)

    def Lookup_name(self, service: str) -> str:
        """Resolve a published service name (MPI_Lookup_name)."""
        return self.runtime.lookup_name(service)


class Intracomm(Comm):
    """Intracommunicator: collectives, split/dup, dynamic processes."""

    def __init__(
        self,
        runtime: Runtime,
        comm_id: int,
        group: Sequence[int],
        strategy=None,
    ):
        super().__init__(runtime, comm_id, group)
        #: The collective algorithm family.  Accepts a strategy name
        #: (``"naive"``/``"flat"``/``"ring"``/``"hierarchical"``) or an
        #: instance.
        self.strategy: CollectiveStrategy = resolve_strategy(strategy)
        #: The collective plan, built once because group and placement
        #: never change: islands, trees by (strategy, root), and the
        #: hierarchical per-rank parts and subcommunicators (all rank
        #: threads share them; the runtime's baton serializes the fills).
        self._islands = self._scan_islands()
        self._trees: dict = {}
        self._subcomm_cache: dict = {}
        #: one rank: every collective returns its local result directly
        self._single = len(self.group) == 1

    # -- island structure -----------------------------------------------------
    def islands(self) -> list[list[int]]:
        """Comm-local ranks grouped by machine (WAN-island structure).

        Fresh lists on every call: callers may sort or edit them."""
        return [list(isl) for isl in self._islands]

    def _scan_islands(self) -> list[list[int]]:
        by_loc: dict[tuple[str, str], list[int]] = {}
        for local, world in enumerate(self.group):
            ctx = self.runtime.ranks[world]
            by_loc.setdefault((ctx.machine.name, ctx.host), []).append(local)
        return list(by_loc.values())

    def _tree(self, root: int) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Parent/children maps (comm-local) for the collective tree,
        built once per (strategy, root).  Callers must not mutate them."""
        key = (self.strategy, root)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = self.strategy.tree(self, root)
        return tree

    def _collective(self, label: str) -> Any:
        if self._single:
            return _NO_LABEL
        return _Collective(self._me(), f"{self.strategy.name}.{label}")

    def _solo(self, root: int = 0) -> bool:
        """Check ``root``; True when this rank is the whole communicator,
        so a collective sends nothing and returns its local result."""
        if not 0 <= root < len(self.group):
            raise MetaMpiError(f"root {root} out of range for size {self.size}")
        return self._single and bool(self._me())  # a non-member fails

    def _coll_tag(self) -> int:
        return self._me().next_collective_tag(self.comm_id, INTERNAL_TAG_BASE)

    def _send_i(self, kind: str, data: Any, dest: int, tag: int) -> None:
        self._post(kind, data, dest, tag, user=False)

    def _recv_i(self, source: int, tag: int) -> Any:
        return self._collect(source, tag, None).data

    # -- object collectives ----------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns it."""
        if self._solo(root):
            return obj
        with self._collective("bcast"):
            return self.strategy.bcast(self, obj, root)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Gather objects to ``root`` (list in rank order) — None elsewhere."""
        if self._solo(root):
            return [obj]
        with self._collective("gather"):
            return self.strategy.gather(self, obj, root)

    def scatter(self, values: Optional[Sequence], root: int = 0) -> Any:
        """Scatter a size-length sequence from ``root``; returns own item."""
        solo = self._solo(root)
        if self.rank == root and (values is None or len(values) != self.size):
            raise MetaMpiError(
                "scatter needs a sequence of exactly comm.size items at root"
            )
        if solo:
            return values[0]
        with self._collective("scatter"):
            return self.strategy.scatter(self, values, root)

    def allgather(self, obj: Any) -> list:
        """Every rank ends with the rank-ordered list of all objects."""
        if self._solo():
            return [obj]
        with self._collective("allgather"):
            return self.strategy.allgather(self, obj)

    def reduce(self, value: Any, op: Op = SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (rank-ordered fold); None elsewhere."""
        if self._solo(root):
            return value
        with self._collective("reduce"):
            return self.strategy.reduce(self, value, op, root)

    def allreduce(self, value: Any, op: Op = SUM) -> Any:
        """Reduce across all ranks; every rank returns the result."""
        if self._solo():
            return value
        with self._collective("allreduce"):
            return self.strategy.allreduce(self, value, op)

    def alltoall(self, values: Sequence) -> list:
        """Personalized all-to-all exchange."""
        if len(values) != self.size:
            raise MetaMpiError("alltoall needs exactly comm.size items")
        if self._solo():
            return [values[0]]
        with self._collective("alltoall"):
            return self.strategy.alltoall(self, values)

    def barrier(self) -> None:
        """All ranks synchronize; afterwards all clocks agree and every
        rank's exit clock is >= the slowest rank's entry clock."""
        if self._solo():
            return
        with self._collective("barrier"):
            self.strategy.barrier(self)

    def scan(self, value: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction along rank order (chain algorithm:
        inherently rank-ordered, identical under every strategy)."""
        if self._solo():
            return value
        with self._collective("scan"):
            tag = self._coll_tag()
            me = self.rank
            acc = value
            if me > 0:
                acc = op(self._recv_i(me - 1, tag), value)
            if me < self.size - 1:
                self._send_i("obj", acc, me + 1, tag)
            return acc

    def exscan(self, value: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction: rank 0 gets None."""
        if self._solo():
            return None
        with self._collective("exscan"):
            tag = self._coll_tag()
            me = self.rank
            prior = None if me == 0 else self._recv_i(me - 1, tag)
            if me < self.size - 1:
                outgoing = value if prior is None else op(prior, value)
                self._send_i("obj", outgoing, me + 1, tag)
            return prior

    def reduce_scatter(self, values: Sequence, op: Op = SUM) -> Any:
        """Elementwise reduction of size-length sequences, item ``i``
        delivered to rank ``i`` (MPI_Reduce_scatter_block semantics)."""
        if len(values) != self.size:
            raise MetaMpiError("reduce_scatter needs exactly comm.size items")
        if self._solo():
            return values[0]
        with self._collective("reduce_scatter"):
            return self.strategy.reduce_scatter(self, values, op)

    # -- buffer collectives --------------------------------------------------
    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """Broadcast ``buf`` from root into every rank's ``buf`` in place."""
        if self._solo(root):
            return
        with self._collective("Bcast"):
            self.strategy.Bcast(self, buf, root)

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op: Op = SUM,
        root: int = 0,
    ) -> None:
        """Elementwise reduction into ``recvbuf`` at root."""
        if self._solo(root):
            if recvbuf is None:
                raise MetaMpiError("root must supply recvbuf")
            self._copy_into(recvbuf, sendbuf)
            return
        with self._collective("Reduce"):
            self.strategy.Reduce(self, sendbuf, recvbuf, op, root)

    def Allreduce(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM
    ) -> None:
        """Reduce across all ranks, filling ``recvbuf`` everywhere."""
        if self._solo():
            return self.Reduce(sendbuf, recvbuf, op)
        with self._collective("Allreduce"):
            self.strategy.Allreduce(self, sendbuf, recvbuf, op)

    def Gather(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        root: int = 0,
    ) -> None:
        """Gather equal-size buffers into ``recvbuf[rank] = sendbuf``."""
        with self._collective("Gather"):
            parts = self.gather(np.asarray(sendbuf), root=root)
        if self.rank == root:
            if recvbuf is None:
                raise MetaMpiError("root must supply recvbuf")
            stacked = np.stack(parts)
            self._copy_into(recvbuf, stacked)

    def Scatter(
        self,
        sendbuf: Optional[np.ndarray],
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> None:
        """Scatter rows of ``sendbuf`` at root into each rank's ``recvbuf``."""
        values = None
        if self.rank == root:
            if sendbuf is None:
                raise MetaMpiError("root must supply sendbuf")
            arr = np.asarray(sendbuf)
            if arr.shape[0] != self.size:
                raise MetaMpiError(
                    f"Scatter sendbuf first dim {arr.shape[0]} != size {self.size}"
                )
            values = [arr[i] for i in range(self.size)]
        with self._collective("Scatter"):
            part = self.scatter(values, root=root)
        self._copy_into(recvbuf, part)

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """All ranks end with the stacked buffers in ``recvbuf``."""
        with self._collective("Allgather"):
            parts = self.allgather(np.asarray(sendbuf))
        stacked = np.stack(parts)
        self._copy_into(recvbuf, stacked)

    def _collect_internal(self, source: int, tag: int) -> Message:
        return self._collect(source, tag, None)

    # -- communicator management ----------------------------------------------
    def dup(self) -> "Intracomm":
        """A new communicator over the same group (separate tag space)."""
        new_id = self.bcast(
            self.runtime.next_comm_id() if self.rank == 0 else None, root=0
        )
        return Intracomm(self.runtime, new_id, self.group, self.strategy)

    def split(self, color: int, key: int = 0) -> Optional["Intracomm"]:
        """Partition the communicator by ``color``, ordering by ``key``."""
        me = self.rank
        triples = self.allgather((color, key, me))
        # Rank 0 of the parent allocates ids for all colors at once.
        if me == 0:
            colors = sorted({c for (c, _, _) in triples if c is not None})
            id_map = {c: self.runtime.next_comm_id() for c in colors}
        else:
            id_map = None
        id_map = self.bcast(id_map, root=0)
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color
        )
        local_ranks = [r for _, r in members]
        return Intracomm(
            self.runtime,
            id_map[color],
            [self.group[r] for r in local_ranks],
            self.strategy,
        )

    # -- MPI-2 dynamic process management -----------------------------------
    def Spawn(
        self,
        fn: Callable,
        args: tuple = (),
        maxprocs: int = 1,
        machine=None,
        host: str = "",
        root: int = 0,
    ) -> "Intercomm":
        """Start ``maxprocs`` new ranks running ``fn(child_comm, *args)``.

        Collective over this communicator.  Children see each other through
        their own world communicator and reach the parents through
        ``comm.Get_parent()``.  The paper uses this for realtime
        visualization and computational steering attachments.
        """
        me = self.rank
        if me == root:
            ctx = self._me()
            spec = machine or ctx.machine
            child_ctxs = [
                self.runtime.add_rank(spec, host or spec.testbed_host, clock=ctx.clock)
                for _ in range(maxprocs)
            ]
            child_world = [c.world_rank for c in child_ctxs]
            child_comm_id = self.runtime.next_comm_id()
            inter_comm_id = self.runtime.next_comm_id()
            info = (child_world, child_comm_id, inter_comm_id)
        else:
            info = None
        child_world, child_comm_id, inter_comm_id = self.bcast(info, root=root)

        inter = Intercomm(
            self.runtime, inter_comm_id, self.group, child_world
        )
        if me == root:
            child_intra = Intracomm(
                self.runtime, child_comm_id, child_world, self.strategy
            )
            child_side = Intercomm(
                self.runtime, inter_comm_id, child_world, self.group
            )
            for c in child_ctxs:
                c.parent_comm = child_side
                self.runtime.start_rank(c, fn, args, child_intra)
        return inter

    # -- MPI-2 ports (attachment) ------------------------------------------
    def Open_port(self) -> str:
        """Allocate a port name for Accept/Connect."""
        return self.runtime.open_port()

    def Accept(self, port: str, root: int = 0) -> "Intercomm":
        """Accept one connection on ``port`` (collective)."""
        me = self.rank
        if me == root:
            offer = self.runtime.port_take(port)
            inter_comm_id = offer["comm_id"]
            remote_group = offer["group"]
            offer["reply"].append(
                {"group": self.group, "clock": self._me().clock}
            )
            self.runtime.notify()
            info = (inter_comm_id, remote_group)
        else:
            info = None
        inter_comm_id, remote_group = self.bcast(info, root=root)
        return Intercomm(self.runtime, inter_comm_id, self.group, remote_group)

    def Connect(self, port: str, root: int = 0) -> "Intercomm":
        """Connect to an Accept-ing communicator at ``port`` (collective)."""
        me = self.rank
        if me == root:
            ctx = self._me()
            inter_comm_id = self.runtime.next_comm_id()
            reply: list = []
            self.runtime.port_offer(
                port,
                {
                    "comm_id": inter_comm_id,
                    "group": self.group,
                    "clock": ctx.clock,
                    "reply": reply,
                },
            )
            self.runtime.block(ctx, lambda: reply, "Connect({!r})", port)
            remote = reply[0]
            ctx.clock = max(ctx.clock, remote["clock"])
            info = (inter_comm_id, remote["group"])
        else:
            info = None
        inter_comm_id, remote_group = self.bcast(info, root=root)
        return Intercomm(self.runtime, inter_comm_id, self.group, remote_group)


_NO_LABEL = contextlib.nullcontext()


class _Collective:
    """``with`` block of one collective: attributes runtime traffic to the
    *outermost* collective (nested subcommunicator phases inherit it)."""

    __slots__ = ("ctx", "label")

    def __init__(self, ctx: RankContext, label: str):
        self.ctx, self.label = ctx, label if ctx.coll_label is None else None

    def __enter__(self) -> None:
        if self.label:
            self.ctx.coll_label = self.label

    def __exit__(self, *exc) -> None:
        if self.label:
            self.ctx.coll_label = None


class Intercomm(Comm):
    """Intercommunicator: p2p addresses the *remote* group."""

    def __init__(
        self,
        runtime: Runtime,
        comm_id: int,
        local_group: Sequence[int],
        remote_group: Sequence[int],
    ):
        super().__init__(runtime, comm_id, local_group)
        self.remote_group = list(remote_group)

    @property
    def remote_size(self) -> int:
        """Number of ranks in the remote group."""
        return len(self.remote_group)

    def Get_remote_size(self) -> int:
        """MPI-style accessor."""
        return self.remote_size

    def _peer_group(self) -> list[int]:
        return self.remote_group

    def Merge(self, high: bool = False) -> Intracomm:
        """Merge both groups into one intracommunicator.

        The ``high=False`` group comes first in the merged rank order;
        both sides derive the same communicator id deterministically.
        """
        merged_id = self.comm_id + _MERGE_ID_OFFSET
        if high:
            group = self.remote_group + self.group
        else:
            group = self.group + self.remote_group
        return Intracomm(self.runtime, merged_id, group)
