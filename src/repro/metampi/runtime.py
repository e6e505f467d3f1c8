"""The threaded virtual-time runtime behind the MPI API.

Each rank is an OS thread executing the user's function on real data.
Virtual time is tracked per rank: compute is accounted explicitly
(``comm.advance``), communication costs come from the
:class:`~repro.metampi.transport.TransportModel`.  A receive sets the
receiver's clock to ``max(own clock, message arrival)`` — the standard
conservative logical-clock rule — so the final ``max`` over all rank
clocks is the metacomputer's elapsed time for the run.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.machines.spec import MachineSpec
from repro.metampi.errors import MetaMpiError, RankFailed, TransportError
from repro.metampi.message import Mailbox, Message
from repro.metampi.transport import TransportModel


@dataclass
class RankContext:
    """Per-rank state: location, clock, mailbox, thread bookkeeping."""

    world_rank: int
    machine: MachineSpec
    host: str
    node_index: int
    clock: float = 0.0
    mailbox: Mailbox = field(default_factory=Mailbox)
    thread: Optional[threading.Thread] = None
    result: Any = None
    error: Optional[BaseException] = None
    #: per-communicator collective sequence numbers (for internal tags)
    coll_seq: dict[int, int] = field(default_factory=dict)
    #: set for spawned ranks: the intercommunicator back to the parents
    parent_comm: Any = None
    #: label of the outermost collective in progress ("<strategy>.<op>"),
    #: None during point-to-point traffic — used for cost attribution
    coll_label: Optional[str] = None

    def next_collective_tag(self, comm_id: int, base: int) -> int:
        """Internal tag for the next collective on ``comm_id``.

        All ranks call collectives on a communicator in the same program
        order (an MPI requirement), so local counters agree globally.
        """
        seq = self.coll_seq.get(comm_id, 0)
        self.coll_seq[comm_id] = seq + 1
        return base - seq


class Runtime:
    """Owns all ranks, the transport model, and the global send order."""

    def __init__(
        self,
        transport: Optional[TransportModel] = None,
        wallclock_timeout: Optional[float] = 60.0,
        tracer: Any = None,
    ):
        self.transport = transport or TransportModel()
        self.wallclock_timeout = wallclock_timeout
        self.tracer = tracer
        #: telemetry hook (repro.telemetry.probes.instrument_runtime)
        self.probe: Any = None
        self.ranks: list[RankContext] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._comm_ids = itertools.count(1)
        self._channel_free: dict[tuple[str, str], float] = {}
        #: per-(label, scope) traffic tallies: [messages, bytes, seconds]
        #: where label is "<strategy>.<collective>" or "p2p" and scope is
        #: "intra" or "wan" — the data behind :meth:`traffic_summary`.
        self.traffic: dict[tuple[str, str], list] = {}
        self._derived_ids: dict[tuple[int, str], int] = {}
        self._ports: dict[str, list] = {}
        self._port_cond = threading.Condition()
        self._port_names = itertools.count(1)
        self._services: dict[str, str] = {}

    # -- rank management ------------------------------------------------
    def add_rank(
        self, machine: MachineSpec, host: str = "", clock: float = 0.0
    ) -> RankContext:
        """Register a new rank located on ``machine`` (thread started later)."""
        with self._lock:
            per_machine = sum(
                1 for c in self.ranks if c.machine is machine and c.host == host
            )
            ctx = RankContext(
                world_rank=len(self.ranks),
                machine=machine,
                host=host or machine.testbed_host,
                node_index=per_machine,
                clock=clock,
            )
            self.ranks.append(ctx)
            return ctx

    def next_comm_id(self) -> int:
        return next(self._comm_ids)

    def derived_comm_id(self, parent_id: int, key: str) -> int:
        """Deterministic communicator id for a derived subcommunicator.

        All ranks asking for the same ``(parent_id, key)`` — e.g. the
        hierarchical strategy's per-site communicators — get the same id
        without any bootstrap communication; the first caller allocates.
        """
        with self._lock:
            cid = self._derived_ids.get((parent_id, key))
            if cid is None:
                cid = next(self._comm_ids)
                self._derived_ids[(parent_id, key)] = cid
            return cid

    def current(self) -> RankContext:
        """The context of the calling thread."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:
            raise MetaMpiError("not inside a metampi rank thread")
        return ctx

    def start_rank(
        self, ctx: RankContext, fn: Callable, args: tuple, comm: Any
    ) -> None:
        """Spin up the rank's thread running ``fn(comm, *args)``."""

        def body():
            self._tls.ctx = ctx
            try:
                ctx.result = fn(comm, *args)
            except BaseException as exc:  # noqa: BLE001 - reported to joiner
                ctx.error = exc
            finally:
                if self.tracer is not None:
                    self.tracer.record_finish(ctx.world_rank, ctx.clock)

        ctx.thread = threading.Thread(
            target=body, name=f"metampi-rank-{ctx.world_rank}", daemon=True
        )
        ctx.thread.start()

    def join(self, ctxs: list[RankContext]) -> None:
        """Wait for the given ranks; re-raise the first rank failure.

        Fails fast: if any rank raised, its peers are typically blocked in
        receives that will never match, so we surface the root cause
        immediately instead of waiting out the watchdog.
        """
        import time

        deadline = (
            time.monotonic() + self.wallclock_timeout
            if self.wallclock_timeout is not None
            else None
        )
        pending = [c for c in ctxs if c.thread is not None]
        while pending:
            for ctx in list(pending):
                ctx.thread.join(timeout=0.02)
                if not ctx.thread.is_alive():
                    pending.remove(ctx)
                    if ctx.error is not None:
                        raise RankFailed(ctx.world_rank, ctx.error) from ctx.error
            if deadline is not None and time.monotonic() > deadline:
                from repro.metampi.errors import DeadlockSuspected

                stuck = [c.world_rank for c in pending]
                raise DeadlockSuspected(
                    f"ranks {stuck} still running after "
                    f"{self.wallclock_timeout}s wall-clock"
                )

    # -- messaging --------------------------------------------------------
    def post(
        self,
        src: RankContext,
        dst_world: int,
        comm_id: int,
        tag: int,
        kind: str,
        data: Any,
    ) -> int:
        """Send path: cost accounting + delivery to the dest mailbox.

        Returns payload size in bytes.  A send over a failed WAN path
        raises :class:`~repro.metampi.errors.TransportError` (annotated
        with the rank pair) once the transport's retry budget is spent,
        so the failure surfaces through ``join`` as a ``RankFailed``
        instead of deadlocking the peers.
        """
        dst = self.ranks[dst_world]
        # Copy-on-send (the receiver must not see later mutation); objects
        # are sized by the pickle their copy is loaded from.
        if kind == "buf":
            nbytes = int(data.nbytes)
            data = np.array(data, copy=True)
        else:
            blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
            nbytes = len(blob)
            data = pickle.loads(blob)
        try:
            cost = self.transport.cost(src.machine, src.host, dst.machine, dst.host)
        except TransportError as exc:
            exc.src_rank = src.world_rank
            exc.dst_rank = dst_world
            raise
        key = self.transport.channel_key(
            src.machine, src.host, dst.machine, dst.host
        )
        label = src.coll_label or "p2p"
        scope = "intra" if key is None else "wan"
        with self._lock:
            if key is None:
                seconds = cost.transit(nbytes)
                arrival = src.clock + seconds
            else:
                # The external attachment serializes concurrent transfers.
                occupancy = nbytes / cost.bandwidth
                start = max(src.clock, self._channel_free.get(key, 0.0))
                self._channel_free[key] = start + occupancy
                arrival = start + occupancy + cost.latency
                seconds = occupancy + cost.latency
            tally = self.traffic.setdefault((label, scope), [0, 0, 0.0])
            tally[0] += 1
            tally[1] += nbytes
            tally[2] += seconds
        src.clock += cost.sender_overhead
        if self.probe is not None:
            self.probe.on_message(
                src.world_rank, dst_world, nbytes, scope, label
            )
        msg = Message(
            src=src.world_rank,
            dst=dst_world,
            comm_id=comm_id,
            tag=tag,
            kind=kind,
            data=data,
            nbytes=nbytes,
            arrival=arrival,
            seq=next(self._seq),
        )
        dst.mailbox.deliver(msg)
        if self.tracer is not None:
            self.tracer.record_send(
                src.world_rank, dst_world, tag, nbytes, src.clock, arrival
            )
        return nbytes

    def collect(
        self, dst: RankContext, comm_id: int, source_world: int, tag: int
    ) -> Message:
        """Receive path: block for a match, then advance the clock."""
        msg = dst.mailbox.collect(
            comm_id, source_world, tag, timeout=self.wallclock_timeout
        )
        dst.clock = max(dst.clock, msg.arrival)
        if self.tracer is not None:
            self.tracer.record_recv(
                msg.src, dst.world_rank, msg.tag, msg.nbytes, dst.clock
            )
        return msg

    # -- ports (MPI-2 attachment) -----------------------------------------
    def open_port(self) -> str:
        """A fresh port name for Accept/Connect."""
        return f"metampi-port-{next(self._port_names)}"

    def publish_name(self, service: str, port: str) -> None:
        """Associate a service name with a port (MPI_Publish_name)."""
        with self._port_cond:
            self._services[service] = port
            self._port_cond.notify_all()

    def lookup_name(self, service: str) -> str:
        """Resolve a published service name, waiting if necessary."""
        with self._port_cond:
            while service not in self._services:
                if not self._port_cond.wait(timeout=self.wallclock_timeout):
                    raise MetaMpiError(f"service {service!r} never published")
            return self._services[service]

    def port_offer(self, port: str, offer: Any) -> None:
        """Connect side: deposit a connection offer at the port."""
        with self._port_cond:
            self._ports.setdefault(port, []).append(offer)
            self._port_cond.notify_all()

    def port_take(self, port: str) -> Any:
        """Accept side: wait for and remove one connection offer."""
        with self._port_cond:
            while not self._ports.get(port):
                if not self._port_cond.wait(timeout=self.wallclock_timeout):
                    raise MetaMpiError(f"accept on {port!r} timed out")
            return self._ports[port].pop(0)

    # -- diagnostics ------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Metacomputer elapsed virtual time so far."""
        return max((c.clock for c in self.ranks), default=0.0)

    def traffic_summary(self) -> dict:
        """Per-collective cost accounting, nested by label then scope::

            {"hierarchical.allreduce": {"wan": {"messages": 2, ...}}, ...}

        Labels are ``"<strategy>.<collective>"`` for traffic sent inside
        a collective (nested subcommunicator phases inherit the outermost
        label) and ``"p2p"`` for user point-to-point messages.
        """
        out: dict[str, dict[str, dict[str, float]]] = {}
        with self._lock:
            items = list(self.traffic.items())
        for (label, scope), (msgs, nbytes, seconds) in items:
            out.setdefault(label, {})[scope] = {
                "messages": msgs,
                "bytes": nbytes,
                "seconds": seconds,
            }
        return out
