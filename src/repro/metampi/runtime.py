"""The virtual-time runtime behind the MPI API.

Each rank is an OS thread executing the user's function on real data.
Virtual time is tracked per rank: compute is accounted explicitly
(``comm.advance``), communication costs come from the
:class:`~repro.metampi.transport.TransportModel`.  A receive sets the
receiver's clock to ``max(own clock, message arrival)`` — the standard
conservative logical-clock rule — so the final ``max`` over all rank
clocks is the metacomputer's elapsed time for the run.

The rank threads run under a baton: exactly one runs at a time, and a
rank hands the baton on only where it blocks (a receive with no matching
message, an unpublished service name, a port with no offer, a
``test()``/``probe()`` miss) or exits.  The next holder is the ready
rank with the least (virtual clock, world rank), so the whole run —
WAN channel reservations included — is a function of virtual time and
rank alone, not of host thread timing.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.machines.spec import MachineSpec
from repro.metampi.errors import (
    DeadlockSuspected,
    MetaMpiError,
    RankFailed,
    TransportError,
)
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
    #: the rank's baton gate: held while it runs, waited on while parked
    gate: Any = None
    #: while parked on a condition: (test, what) — ``test()`` is truthy
    #: once the rank can go on, ``what`` a format string and its args
    blocked: Any = None
    result: Any = None
    error: Optional[BaseException] = None
    #: per-communicator collective sequence numbers (for internal tags)
    coll_seq: dict[int, int] = field(default_factory=dict)
    #: set for spawned ranks: the intercommunicator back to the parents
    parent_comm: Any = None
    #: label of the outermost collective in progress ("<strategy>.<op>"),
    #: None during point-to-point traffic — used for cost attribution
    coll_label: Optional[str] = None


class _RankLocal(threading.local):
    #: the calling thread's rank; None outside the rank threads
    ctx: Optional[RankContext] = None


class _Abort(BaseException):
    """Unwinds a rank whose run another rank's failure ended."""


class Runtime:
    """Owns all ranks, the transport model, the baton and the send order."""

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
        self._tls = _RankLocal()
        #: ranks waiting for the baton, as a heap of (clock, world rank)
        self._ready: list[tuple[float, int]] = []
        #: started ranks that have not exited, by world rank
        self._live: dict[int, RankContext] = {}
        self._failure: Optional[MetaMpiError] = None
        self._done = threading.Event()
        self._seq = itertools.count()
        self._comm_ids = itertools.count(1)
        self._channel_free: dict[tuple[str, str], float] = {}
        #: per-(label, scope) traffic tallies: [messages, bytes, seconds]
        #: where label is "<strategy>.<collective>" or "p2p" and scope is
        #: "intra" or "wan" — the data behind :meth:`traffic_summary`.
        self.traffic: dict[tuple[str, str], list] = {}
        self._derived_ids: dict[tuple[int, str], int] = {}
        self._ports: dict[str, list] = {}
        self._port_names = itertools.count(1)
        self._services: dict[str, str] = {}

    # -- rank management ------------------------------------------------
    def add_rank(
        self, machine: MachineSpec, host: str = "", clock: float = 0.0
    ) -> RankContext:
        """Register a new rank located on ``machine`` (thread started later)."""
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
        cid = self._derived_ids.get((parent_id, key))
        if cid is None:
            cid = self._derived_ids[(parent_id, key)] = next(self._comm_ids)
        return cid

    def current(self) -> RankContext:
        """The context of the calling thread."""
        ctx = self._tls.ctx
        if ctx is None:
            raise MetaMpiError("not inside a metampi rank thread")
        return ctx

    def start_rank(
        self, ctx: RankContext, fn: Callable, args: tuple, comm: Any
    ) -> None:
        """Start the rank's thread running ``fn(comm, *args)``, parked in
        the ready set until the baton reaches it."""

        def body():
            self._tls.ctx = ctx
            try:
                self._park(ctx)
                ctx.result = fn(comm, *args)
            except _Abort:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported by join
                ctx.error = exc
            finally:
                self._exit(ctx)

        ctx.gate = threading.Lock()
        ctx.gate.acquire()
        ctx.thread = threading.Thread(
            target=body, name=f"metampi-rank-{ctx.world_rank}", daemon=True
        )
        self._live[ctx.world_rank] = ctx
        self._done.clear()
        heapq.heappush(self._ready, (ctx.clock, ctx.world_rank))
        ctx.thread.start()

    def join(self) -> None:
        """Hand out the first baton, wait until every rank (spawned ones
        too) has exited, and re-raise the failure that ended the run.
        ``wallclock_timeout`` only guards against a rank stuck in its own
        code; a rank failure or a deadlock ends the run at once."""
        self._handoff()
        if not self._done.wait(self.wallclock_timeout):
            self._fail(DeadlockSuspected(
                f"ranks {sorted(self._live)} still running after "
                f"{self.wallclock_timeout}s wall-clock"
            ))
        failure = self._failure
        if failure is not None:
            raise failure from getattr(failure, "original", None)

    # -- the baton ----------------------------------------------------------
    def _park(self, ctx: RankContext) -> None:
        """Wait until the baton comes back to ``ctx``."""
        ctx.gate.acquire()
        if self._failure is not None:
            raise _Abort

    def _handoff(self) -> bool:
        """Pass the baton to the ready rank with the least (clock, rank)."""
        if not self._ready:
            return False
        self.ranks[heapq.heappop(self._ready)[1]].gate.release()
        return True

    def _wake(self, ctx: RankContext) -> None:
        ctx.blocked = None
        heapq.heappush(self._ready, (ctx.clock, ctx.world_rank))

    def block(self, ctx: RankContext, test: Callable, *what: Any) -> Any:
        """Return ``test()`` once it is truthy, parking ``ctx`` while it is
        not; ``what`` (format string, args) names the wait if it deadlocks."""
        hit = test()
        while not hit:
            ctx.blocked = (test, what)
            if not self._handoff():
                self._deadlock()
            self._park(ctx)
            hit = test()
        return hit

    def poll(self, ctx: RankContext, test: Callable) -> bool:
        """Non-blocking ``test()``.  A miss lets the other ready ranks run
        first, so a rank spinning on it cannot starve the one it awaits."""
        if not test() and self._ready:
            other = heapq.heapreplace(self._ready, (ctx.clock, ctx.world_rank))
            self.ranks[other[1]].gate.release()
            self._park(ctx)
        return bool(test())

    def notify(self) -> None:
        """Wake every parked rank whose condition now holds."""
        for ctx in list(self._live.values()):
            if ctx.blocked is not None and ctx.blocked[0]():
                self._wake(ctx)

    def _exit(self, ctx: RankContext) -> None:
        """``ctx`` finished: pass the baton on, or end the run."""
        if self.tracer is not None:
            self.tracer.record_finish(ctx.world_rank, ctx.clock)
        if self._failure is not None:
            return
        del self._live[ctx.world_rank]
        if ctx.error is not None:
            self._fail(RankFailed(ctx.world_rank, ctx.error))
        elif not self._live:
            self._done.set()
        elif not self._handoff():
            self._deadlock()

    def _deadlock(self) -> None:
        """No rank is ready, so no parked rank can ever be woken."""
        self._fail(DeadlockSuspected("deadlock: " + "; ".join(
            f"rank {w} in " + c.blocked[1][0].format(*c.blocked[1][1:])
            for w, c in sorted(self._live.items())
        )))

    def _fail(self, failure: MetaMpiError) -> None:
        """End the run with ``failure``: every live rank unparks to unwind."""
        self._failure = self._failure or failure
        for ctx in list(self._live.values()):
            if ctx.gate.locked():
                ctx.gate.release()
        self._done.set()

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
            cost, key = self.transport.channel(
                src.machine, src.host, dst.machine, dst.host
            )
        except TransportError as exc:
            exc.src_rank = src.world_rank
            exc.dst_rank = dst_world
            raise
        label = src.coll_label or "p2p"
        scope = "intra" if key is None else "wan"
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
        tally = self.traffic.get((label, scope))
        if tally is None:
            tally = self.traffic[label, scope] = [0, 0, 0.0]
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
        if dst.blocked is not None and dst.blocked[0]():
            self._wake(dst)
        if self.tracer is not None:
            self.tracer.record_send(
                src.world_rank, dst_world, tag, nbytes, src.clock, arrival
            )
        return nbytes

    def collect(
        self, dst: RankContext, comm_id: int, source_world: int, tag: int
    ) -> Message:
        """Receive path: block for a match, then advance the clock."""
        box = dst.mailbox
        msg = self.block(
            dst, lambda: box.probe(comm_id, source_world, tag),
            "recv(comm={}, source={}, tag={})", comm_id, source_world, tag,
        )
        box.remove(msg)
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
        self._services[service] = port
        self.notify()

    def lookup_name(self, service: str) -> str:
        """Resolve a published service name, waiting if necessary."""
        self.block(
            self.current(), lambda: service in self._services,
            "lookup_name({!r})", service,
        )
        return self._services[service]

    def port_offer(self, port: str, offer: Any) -> None:
        """Connect side: deposit a connection offer at the port."""
        self._ports.setdefault(port, []).append(offer)
        self.notify()

    def port_take(self, port: str) -> Any:
        """Accept side: wait for and remove one connection offer."""
        self.block(
            self.current(), lambda: self._ports.get(port), "Accept({!r})", port
        )
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
        for (label, scope), (msgs, nbytes, seconds) in self.traffic.items():
            out.setdefault(label, {})[scope] = {
                "messages": msgs,
                "bytes": nbytes,
                "seconds": seconds,
            }
        return out
