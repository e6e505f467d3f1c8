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
        self._tls = runtime._tls
        self.comm_id = comm_id
        self.group = list(group)
        self._index = {w: i for i, w in enumerate(self.group)}
        if len(self._index) != len(self.group):
            raise MetaMpiError("duplicate ranks in communicator group")

    # -- identity ---------------------------------------------------------
    def _me(self, root: int = 0) -> RankContext:
        """The calling rank's context.  Raises unless the caller is a
        member and ``root`` (of a rooted collective) is one of its ranks.
        Each public method resolves the caller once, here, and hands the
        context down."""
        ctx = self._tls.ctx
        if ctx is None:
            ctx = self.runtime.current()  # raises: not a rank thread
        if ctx.world_rank not in self._index:
            raise MetaMpiError(
                f"calling thread (world rank {ctx.world_rank}) is not a "
                f"member of this communicator"
            )
        if not 0 <= root < len(self.group):
            raise MetaMpiError(f"root {root} out of range for size {self.size}")
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

    def _recv_src(self, source: int, tag: int) -> int:
        """The world rank a receive from ``source`` matches (ANY_SOURCE
        stays itself), after checking that ``tag`` is a user tag."""
        if tag < 0 and tag != ANY_TAG:
            raise InvalidTag(f"receive tags must be >= 0 or ANY_TAG, got {tag}")
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
        self._post("obj", obj, dest, tag)

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
        self._me()  # a non-member, bad source or tag fails here, not at wait()
        self._recv_src(source, tag)

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
        self._recv_src(source, recvtag)  # a bad receive sends nothing
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag, status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already queued.  A miss lets the
        other ready ranks run first (see :meth:`Runtime.poll`)."""
        ctx = self._me()
        world_src = self._recv_src(source, tag)
        box = ctx.mailbox
        return self.runtime.poll(
            ctx, lambda: box.probe(self.comm_id, world_src, tag)
        )

    # -- point-to-point: buffers ---------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Send a NumPy buffer (copied at call time)."""
        self._post("buf", np.asarray(buf), dest, tag)

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
        self._me()  # a non-member, bad source or tag fails here, not at wait()
        self._recv_src(source, tag)

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
        self._recv_src(source, recvtag)  # a bad receive sends nothing
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

    def _post(self, kind: str, data: Any, dest: int, tag: int) -> None:
        if tag < 0:
            raise InvalidTag(f"user tags must be >= 0, got {tag}")
        ctx = self._me()
        self.runtime.post(ctx, self._dst_world(dest), self.comm_id, tag, kind, data)

    def _collect(
        self, source: int, tag: int, status: Optional[Status]
    ) -> Message:
        ctx = self._me()
        msg = self.runtime.collect(
            ctx, self.comm_id, self._recv_src(source, tag), tag
        )
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

    def _run(self, ctx: RankContext, op: str, *args, label: str = "") -> Any:
        """The strategy's ``op`` collective for ``ctx``, its traffic
        attributed to ``"<strategy>.<label or op>"`` unless an outer
        collective labels it (nested subcommunicator phases inherit it)."""
        run = getattr(self.strategy, op)
        if ctx.coll_label is not None:
            return run(self, ctx, *args)
        ctx.coll_label = f"{self.strategy.name}.{label or op}"
        try:
            return run(self, ctx, *args)
        finally:
            ctx.coll_label = None

    def _coll_tag(self, ctx: RankContext) -> int:
        """Internal tag for ``ctx``'s next collective on this communicator
        (all ranks call a communicator's collectives in the same order,
        an MPI requirement, so their counters agree)."""
        seq = ctx.coll_seq.get(self.comm_id, 0)
        ctx.coll_seq[self.comm_id] = seq + 1
        return INTERNAL_TAG_BASE - seq

    def _send_i(
        self, ctx: RankContext, kind: str, data: Any, dest: int, tag: int
    ) -> None:
        self.runtime.post(ctx, self.group[dest], self.comm_id, tag, kind, data)

    def _recv_i(self, ctx: RankContext, source: int, tag: int) -> Any:
        return self.runtime.collect(ctx, self.comm_id, self.group[source], tag).data

    # -- object collectives ----------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns it."""
        ctx = self._me(root)
        return obj if self._single else self._run(ctx, "bcast", obj, root)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Gather objects to ``root`` (list in rank order) — None elsewhere."""
        ctx = self._me(root)
        return [obj] if self._single else self._run(ctx, "gather", obj, root)

    def scatter(self, values: Optional[Sequence], root: int = 0) -> Any:
        """Scatter a size-length sequence from ``root``; returns own item."""
        ctx = self._me(root)
        if self._index[ctx.world_rank] == root and (
            values is None or len(values) != self.size
        ):
            raise MetaMpiError(
                "scatter needs a sequence of exactly comm.size items at root"
            )
        return values[0] if self._single else self._run(ctx, "scatter", values, root)

    def allgather(self, obj: Any) -> list:
        """Every rank ends with the rank-ordered list of all objects."""
        ctx = self._me()
        return [obj] if self._single else self._run(ctx, "allgather", obj)

    def reduce(self, value: Any, op: Op = SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (rank-ordered fold); None elsewhere."""
        ctx = self._me(root)
        return value if self._single else self._run(ctx, "reduce", value, op, root)

    def allreduce(self, value: Any, op: Op = SUM) -> Any:
        """Reduce across all ranks; every rank returns the result."""
        ctx = self._me()
        return value if self._single else self._run(ctx, "allreduce", value, op)

    def alltoall(self, values: Sequence) -> list:
        """Personalized all-to-all exchange."""
        ctx = self._me()
        if len(values) != self.size:
            raise MetaMpiError("alltoall needs exactly comm.size items")
        return [values[0]] if self._single else self._run(ctx, "alltoall", values)

    def barrier(self) -> None:
        """All ranks synchronize; afterwards all clocks agree and every
        rank's exit clock is >= the slowest rank's entry clock."""
        ctx = self._me()
        if not self._single:
            self._run(ctx, "barrier")

    def scan(self, value: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction along rank order (chain algorithm:
        inherently rank-ordered, identical under every strategy)."""
        ctx = self._me()
        return value if self._single else self._run(ctx, "scan", value, op)

    def exscan(self, value: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction: rank 0 gets None."""
        ctx = self._me()
        return None if self._single else self._run(ctx, "exscan", value, op)

    def reduce_scatter(self, values: Sequence, op: Op = SUM) -> Any:
        """Elementwise reduction of size-length sequences, item ``i``
        delivered to rank ``i`` (MPI_Reduce_scatter_block semantics)."""
        ctx = self._me()
        if len(values) != self.size:
            raise MetaMpiError("reduce_scatter needs exactly comm.size items")
        if self._single:
            return values[0]
        return self._run(ctx, "reduce_scatter", values, op)

    # -- buffer collectives --------------------------------------------------
    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """Broadcast ``buf`` from root into every rank's ``buf`` in place."""
        ctx = self._me(root)
        if not self._single:
            self._run(ctx, "Bcast", buf, root)

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op: Op = SUM,
        root: int = 0,
    ) -> None:
        """Elementwise reduction into ``recvbuf`` at root."""
        ctx = self._me(root)
        if self._single:
            self._reduce_alone(sendbuf, recvbuf)
        else:
            self._run(ctx, "Reduce", sendbuf, recvbuf, op, root)

    def Allreduce(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM
    ) -> None:
        """Reduce across all ranks, filling ``recvbuf`` everywhere."""
        ctx = self._me()
        if self._single:
            self._reduce_alone(sendbuf, recvbuf)
        else:
            self._run(ctx, "Allreduce", sendbuf, recvbuf, op)

    def _reduce_alone(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray]) -> None:
        """A one-rank reduction: ``recvbuf`` gets ``sendbuf``."""
        if recvbuf is None:
            raise MetaMpiError("root must supply recvbuf")
        self._copy_into(recvbuf, sendbuf)

    def Gather(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        root: int = 0,
    ) -> None:
        """Gather equal-size buffers into ``recvbuf[rank] = sendbuf``."""
        ctx = self._me(root)
        part = np.asarray(sendbuf)
        if self._single:
            parts = [part]
        else:
            parts = self._run(ctx, "gather", part, root, label="Gather")
        if self._index[ctx.world_rank] == root:
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
        ctx = self._me(root)
        values = None
        if self._index[ctx.world_rank] == root:
            if sendbuf is None:
                raise MetaMpiError("root must supply sendbuf")
            arr = np.asarray(sendbuf)
            if arr.shape[0] != self.size:
                raise MetaMpiError(
                    f"Scatter sendbuf first dim {arr.shape[0]} != size {self.size}"
                )
            values = [arr[i] for i in range(self.size)]
        if self._single:
            part = values[0]
        else:
            part = self._run(ctx, "scatter", values, root, label="Scatter")
        self._copy_into(recvbuf, part)

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """All ranks end with the stacked buffers in ``recvbuf``."""
        ctx = self._me()
        part = np.asarray(sendbuf)
        if self._single:
            parts = [part]
        else:
            parts = self._run(ctx, "allgather", part, label="Allgather")
        stacked = np.stack(parts)
        self._copy_into(recvbuf, stacked)

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
