"""Traffic sources and sinks for the network simulator."""

from __future__ import annotations

import bisect
from typing import Optional

from repro.netsim.core import Network, Packet
from repro.netsim.ip import ClassicalIP, IP_HEADER, TCP_HEADER
from repro.sim import Environment, Event
from repro.util.stats import RunningStats

_ACK_BYTES = IP_HEADER + TCP_HEADER

#: Ceiling of the retransmission timeout (s), backoff included.
MAX_RTO = 60.0
#: Duplicate ACKs that trigger a fast retransmit.
DUPACK_THRESHOLD = 3


class TransferStalled(RuntimeError):
    """A reliable transfer gave up after repeated retransmission timeouts
    (the path stayed dead past the backoff budget)."""


class BulkTransfer:
    """A windowed (TCP-like) bulk transfer of ``nbytes`` from src to dst.

    Sliding byte window with cumulative acknowledgements; optional slow
    start.  ``done`` is an event firing at completion; ``throughput`` is
    application goodput in bit/s over the transfer.

    Loss recovery (packets may be dropped by bounded link queues, random
    wire loss, or link/gateway failures):

    * a retransmission timer on the oldest unacknowledged segment, with
      RTO adapted from measured RTT (Jacobson srtt/rttvar, Karn's rule)
      and exponential backoff on repeated expiry;
    * duplicate-ACK fast retransmit (:data:`DUPACK_THRESHOLD` duplicates);
    * multiplicative congestion-window reduction on loss (halved on fast
      retransmit, collapsed to one segment on timeout);
    * ``retransmits`` / ``timeouts`` / ``fast_retransmits`` counters for
      the benchmarks, and ``duplicate_segments``: segments the receiver
      already held, so a retransmission that was not needed.

    A transfer whose path stays dead fails its ``done`` event with
    :class:`TransferStalled` after ``max_consecutive_timeouts`` unanswered
    retransmissions instead of hanging forever.

    Under zero loss the event sequence is identical to the classic
    sliding-window sender, so :func:`repro.netsim.tcp.tcp_steady_throughput`
    remains the closed-form reference.

    The sender and the retransmission timer are callback chains, each
    started by a zero-delay entry at construction: the sender sends
    while the window allows and, once it is full, waits for an advancing
    ACK to schedule it again; the timer re-arms at each RTO deadline and
    sleeps while nothing is in flight until a transmission schedules it.
    An exception raised in either propagates out of ``env.run``.
    """

    _ids = 0

    def __init__(
        self,
        net: Network,
        src: str,
        dst: str,
        nbytes: int,
        ip: Optional[ClassicalIP] = None,
        window_bytes: int = 8 * 1024 * 1024,
        slow_start: bool = False,
        name: str = "",
        min_rto: float = 0.2,
        initial_rto: float = 1.0,
        max_consecutive_timeouts: Optional[int] = 12,
    ):
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        BulkTransfer._ids += 1
        self.net = net
        self.env: Environment = net.env
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.ip = ip or ClassicalIP()
        self.window_bytes = window_bytes
        self.slow_start = slow_start
        self.name = name or f"bulk{BulkTransfer._ids}"
        self.min_rto = min_rto
        self.max_consecutive_timeouts = max_consecutive_timeouts
        self.done: Event = self.env.event()
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        # loss-recovery counters
        #: Retransmitted segments per kind, in first-seen order: ``rto``
        #: (timer expiry), ``gbn`` (go-back-N re-stream), ``fast``.
        self.retransmit_kinds: dict[str, int] = {}
        self.timeouts = 0
        #: 1 once the transfer failed with :class:`TransferStalled`.
        self.stalls = 0
        #: Segments the receiver got again after it already had them.
        self.duplicate_segments = 0
        #: Times the stall budget was waived because routing still
        #: resolved a live path (failover onto an alternate route).
        self.failovers = 0
        # sender state
        self._acked = 0
        self._cwnd = self.ip.max_segment if slow_start else window_bytes
        self._next_seq = 0  # first segment the sender has not sent
        self._sender_blocked = False  # waiting for the window to open
        self._payloads = list(self.ip.segments(nbytes))
        ends: list[int] = []
        total = 0
        for p in self._payloads:
            total += p
            ends.append(total)
        self._ends = ends  # cumulative end offset of each segment
        self._sent_bytes = 0
        self._sent_at: dict[int, float] = {}
        self._rexmitted: set[int] = set()
        self._prune_next = 0  # lowest segment index that may still hold records
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = initial_rto
        self._timer_epoch = 0.0
        self._timer_idle = False  # nothing in flight: woken by _transmit
        self._dup_acks = 0
        self._consecutive_timeouts = 0
        # Timeout recovery (go-back-N): everything past the loss point is
        # presumed lost with it and re-streamed as acknowledgements
        # advance, ramping cwnd back up slow-start style.
        self._recover_until = 0  # byte offset the recovery must reach
        self._rexmit_next = 0  # next segment index to re-stream
        # receiver state (cumulative reassembly)
        self._received = 0  # contiguous bytes assembled at the receiver
        self._rx_next = 0  # next expected segment index
        self._rx_segments: dict[int, int] = {}  # out-of-order buffer
        # Resolve the endpoint hosts once: net.host() is a dict lookup
        # plus isinstance check, too costly per segment/ACK.
        self._src_host = net.host(src)
        self._dst_host = net.host(dst)
        self._src_host.register_sink(self.name, self._on_ack)
        self._dst_host.register_sink(self.name, self._on_data)
        self.env.call_later(0.0, self._start)
        self.env.call_later(0.0, self._timer)

    # -- sender --------------------------------------------------------------
    def _start(self) -> None:
        self.start_time = self.env.now
        self._send_more()

    def _send_more(self) -> None:
        """Send segments in order while the window allows; when it is
        full, block until an advancing ACK calls again."""
        if self.done.triggered:
            return  # transfer failed (TransferStalled)
        payloads = self._payloads
        seq = self._next_seq
        while seq < len(payloads):
            payload = payloads[seq]
            if self._sent_bytes - self._acked + payload > min(
                self._cwnd, self.window_bytes
            ):
                self._sender_blocked = True
                break
            self._transmit(seq)
            self._sent_bytes += payload
            seq += 1
        self._next_seq = seq

    def _transmit(self, seq: int, retransmit: bool = False, kind: str = "rto") -> None:
        if retransmit:
            kinds = self.retransmit_kinds
            kinds[kind] = kinds.get(kind, 0) + 1
            self._rexmitted.add(seq)
        elif self._acked >= self._sent_bytes:
            # Pipe was empty: the timer clock starts with this packet.
            self._timer_epoch = self.env.now
        self._sent_at[seq] = self.env.now
        payload = self._payloads[seq]
        self._src_host.send(
            Packet(
                flow=self.name,
                src=self.src,
                dst=self.dst,
                ip_bytes=self.ip.datagram_bytes(payload),
                payload_bytes=payload,
                seq=seq,
            )
        )
        if self._timer_idle:
            self._timer_idle = False
            self.env.call_later(0.0, self._timer)

    def _route_alive(self) -> bool:
        """Whether routing currently resolves a live path both ways.

        Consulted only at the stall decision (never on the per-segment
        hot path): a transfer whose retransmissions go unanswered while
        an alternate route exists should fail over, not die.  Both
        directions are checked — data getting through is worthless if
        every ACK path is severed.
        """
        try:
            self.net.route_link(self.src, self.dst)
            self.net.route_link(self.dst, self.src)
        except ValueError:
            return False
        return True

    def _first_unacked(self) -> int:
        """Index of the first segment not yet cumulatively acknowledged."""
        return bisect.bisect_right(self._ends, self._acked)

    def _prune_acked(self) -> None:
        """Drop send records and Karn marks for fully-acked segments, so
        bookkeeping stays proportional to the window, not the transfer.
        Runs after :meth:`_sample_rtt`, which reads the newest acked
        record before it is discarded here."""
        first = self._first_unacked()
        while self._prune_next < first:
            self._sent_at.pop(self._prune_next, None)
            self._rexmitted.discard(self._prune_next)
            self._prune_next += 1

    def _timer(self) -> None:
        """Retransmission timer: retransmit the oldest unacked segment on
        expiry, then re-arm at the next deadline."""
        env = self.env
        while self._acked < self.nbytes and not self.done.triggered:
            if self._acked >= self._sent_bytes:
                # Nothing in flight: sleep until the sender transmits.
                self._timer_idle = True
                return
            deadline = self._timer_epoch + self._rto
            if env.now < deadline:
                env.call_later(deadline - env.now, self._timer)
                return
            self.timeouts += 1
            self._consecutive_timeouts += 1
            if (
                self.max_consecutive_timeouts is not None
                and self._consecutive_timeouts > self.max_consecutive_timeouts
            ):
                if self._route_alive():
                    # Failover: routing still resolves a live path in
                    # both directions (an alternate survived the outage,
                    # or the fault healed just before the budget ran
                    # out).  The stall verdict is reserved for a truly
                    # severed path — reset the budget and keep driving
                    # go-back-N recovery over the surviving route.
                    self._consecutive_timeouts = 0
                    self.failovers += 1
                else:
                    self.stalls += 1
                    self.done.fail(
                        TransferStalled(
                            f"{self.name}: no progress after "
                            f"{self.timeouts} retransmission timeouts "
                            f"({self.src} -> {self.dst})"
                        )
                    )
                    return
            # Exponential backoff; collapse the window to one segment and
            # arm go-back-N: all in-flight data is presumed lost, so the
            # ack-driven recovery in ``_on_ack`` re-streams it.
            self._rto = min(self._rto * 2.0, MAX_RTO)
            self._cwnd = self.ip.max_segment
            self._dup_acks = 0
            self._recover_until = max(self._recover_until, self._sent_bytes)
            first = self._first_unacked()
            if first < len(self._payloads):
                self._transmit(first, retransmit=True)
            self._rexmit_next = first + 1
            self._timer_epoch = env.now

    # -- receiver side ---------------------------------------------------------
    def _on_data(self, packet: Packet, now: float) -> None:
        seq = packet.seq
        if seq >= self._rx_next and seq not in self._rx_segments:
            self._rx_segments[seq] = packet.payload_bytes
            while self._rx_next in self._rx_segments:
                self._received += self._rx_segments.pop(self._rx_next)
                self._rx_next += 1
        else:
            self.duplicate_segments += 1
        # Always acknowledge — duplicates included — with the cumulative
        # reassembly point; duplicate ACKs drive fast retransmit.
        ack = Packet(
            flow=self.name,
            src=self.dst,
            dst=self.src,
            ip_bytes=_ACK_BYTES,
            payload_bytes=0,
            kind="ack",
            seq=packet.seq,
            acked=self._received,
        )
        self._dst_host.send(ack)

    # -- ack handling -------------------------------------------------------
    def _on_ack(self, packet: Packet, now: float) -> None:
        acked = packet.acked
        if acked > self._acked:
            self._acked = acked
            self._dup_acks = 0
            self._consecutive_timeouts = 0
            self._sample_rtt(now)
            self._prune_acked()
            self._timer_epoch = now
            if self._cwnd < self.window_bytes:
                # Slow start, both initial (``slow_start=True``) and when
                # regrowing the window a loss event collapsed.
                self._cwnd = min(
                    self._cwnd + self.ip.max_segment, self.window_bytes
                )
            if self._acked < self._recover_until:
                # Go-back-N after a timeout: re-stream the lost window,
                # as much as the recovering cwnd allows per ack.
                limit = min(
                    self._acked + min(self._cwnd, self.window_bytes),
                    self._recover_until,
                )
                self._rexmit_next = max(self._rexmit_next, self._first_unacked())
                while (
                    self._rexmit_next < len(self._payloads)
                    and self._ends[self._rexmit_next] <= limit
                ):
                    self._transmit(self._rexmit_next, retransmit=True, kind="gbn")
                    self._rexmit_next += 1
            if self._sender_blocked:
                self._sender_blocked = False
                self.env.call_later(0.0, self._send_more)
            if self._acked >= self.nbytes and not self.done.triggered:
                self.end_time = now
                self.done.succeed(self.throughput)
        elif acked == self._acked and acked < self.nbytes:
            self._dup_acks += 1
            if self._dup_acks == DUPACK_THRESHOLD:
                first = self._first_unacked()
                if first < len(self._payloads) and first in self._sent_at:
                    self._cwnd = max(self.ip.max_segment, self._cwnd // 2)
                    self._transmit(first, retransmit=True, kind="fast")
                    self._timer_epoch = now

    def _sample_rtt(self, now: float) -> None:
        """Jacobson RTT estimation; Karn's rule skips retransmitted
        segments (their ACK is ambiguous)."""
        newest = self._first_unacked() - 1
        if newest < 0 or newest in self._rexmitted:
            return
        sent = self._sent_at.get(newest)
        if sent is None:
            # A cumulative ACK can cover segments whose send record was
            # already pruned (or never landed under reordering); the
            # fast-retransmit path guards the same way.
            return
        sample = now - sent
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(
            MAX_RTO, max(self.min_rto, self._srtt + 4.0 * self._rttvar)
        )

    @property
    def retransmits(self) -> int:
        """Retransmitted segments, all kinds."""
        return sum(self.retransmit_kinds.values())

    @property
    def fast_retransmits(self) -> int:
        """Fast retransmits (on the third duplicate ACK)."""
        return self.retransmit_kinds.get("fast", 0)

    @property
    def segments_delivered(self) -> int:
        """Contiguously reassembled data segments at the receiver."""
        return self._rx_next

    @property
    def throughput(self) -> float:
        """Application goodput in bit/s (valid after completion)."""
        if self.end_time is None or self.start_time is None:
            raise RuntimeError("transfer not complete")
        elapsed = self.end_time - self.start_time
        return self.nbytes * 8 / elapsed if elapsed > 0 else float("inf")

    def run(self) -> float:
        """Convenience: run the simulation until completion, return bit/s.

        Raises :class:`TransferStalled` if the path stays dead past the
        retransmission backoff budget.
        """
        self.env.run(until=self.done)
        return self.throughput


class CbrFlow:
    """Constant-bit-rate frame stream (e.g. an uncompressed D1 video VC).

    Emits ``frame_bytes`` every ``interval`` seconds, segmented at the IP
    MTU.  The sink counts complete frames and tracks inter-arrival jitter;
    frames missing segments (queue drops) count as lost.

    After the last frame is emitted the flow drains until every segment
    has arrived, no segment has arrived for an RTT-aware quiet window
    (so long-RTT paths do not miscount in-flight frames as lost), or the
    explicit ``drain_timeout`` elapses.

    ``playout_deadline`` models the receiver's playout buffer: a complete
    frame whose transit exceeds the deadline counts as late (and lost for
    playback) rather than received — the fate of frames queued behind an
    oversubscribed attachment.
    """

    _ids = 0

    def __init__(
        self,
        net: Network,
        src: str,
        dst: str,
        frame_bytes: int,
        interval: float,
        n_frames: int,
        ip: Optional[ClassicalIP] = None,
        name: str = "",
        drain_timeout: Optional[float] = None,
        playout_deadline: Optional[float] = None,
    ):
        CbrFlow._ids += 1
        self.net = net
        self.env = net.env
        self.src = src
        self.dst = dst
        self.frame_bytes = frame_bytes
        self.interval = interval
        self.n_frames = n_frames
        self.ip = ip or ClassicalIP()
        self.name = name or f"cbr{CbrFlow._ids}"
        self.drain_timeout = drain_timeout
        self.playout_deadline = playout_deadline
        self.done: Event = self.env.event()
        self.frames_received = 0
        self.frames_late = 0
        self.frames_lost = 0
        self.interarrival = RunningStats()
        self.latency = RunningStats()
        self._rx_segments: dict[int, int] = {}
        self._last_arrival: Optional[float] = None
        self._segments_received = 0
        self._last_segment_time: Optional[float] = None
        self._segments_per_frame = len(self.ip.segments(frame_bytes))
        net.host(dst).register_sink(self.name, self._on_segment)
        # Burst chain: each frame is emitted by a bare callback that
        # schedules the next one ``interval`` later.  An empty stream
        # goes straight to its drain check.
        self._host = net.host(src)
        self._payloads = [
            (p, self.ip.datagram_bytes(p)) for p in self.ip.segments(frame_bytes)
        ]
        if n_frames > 0:
            self.env.call_later(0.0, self._emit_frame, 0)
        else:
            self.env.call_later(0.0, self._begin_drain)

    def _path_rtt_estimate(self) -> float:
        """Zero-load round trip of one full segment, for the drain window."""
        from repro.netsim.tcp import characterize_path

        try:
            return characterize_path(self.net, self.src, self.dst, self.ip).rtt
        except (ValueError, TypeError, KeyError):
            return 0.0  # no route right now; fall back to interval-based wait

    # -- the burst chain -----------------------------------------------------
    def _emit_frame(self, frame: int) -> None:
        """Emit every segment of ``frame``, then arm the next departure.

        One heap entry per frame, scheduled *after* this frame's segments
        are injected.
        """
        host = self._host
        name = self.name
        src = self.src
        dst = self.dst
        for payload, ip_bytes in self._payloads:
            host.send(Packet(name, src, dst, ip_bytes, payload, "data", frame))
        nxt = frame + 1
        if nxt < self.n_frames:
            self.env.call_later(self.interval, self._emit_frame, nxt)
        else:
            self.env.call_later(self.interval, self._begin_drain)

    def _begin_drain(self) -> None:
        """Start the drain phase, one interval past the last frame (at
        the start instant for an empty stream).

        Drain the tail: keep waiting while segments are still arriving.
        A fixed interval multiple under-waits on long-RTT paths, so the
        quiet window covers a full round trip of the path as well.
        """
        self._drain_total = self.n_frames * self._segments_per_frame
        self._drain_quiet = max(4 * self.interval, 2 * self._path_rtt_estimate())
        self._drain_deadline = (
            self.env.now + self.drain_timeout
            if self.drain_timeout is not None
            else float("inf")
        )
        self._drain_anchor = self.env.now
        self._drain_poll()

    def _drain_poll(self) -> None:
        # Poll every interval until every segment arrived, the deadline
        # passed, or the path went quiet (the remainder was lost).
        now = self.env._now
        if self._segments_received < self._drain_total and now < self._drain_deadline:
            last = (
                self._last_segment_time
                if self._last_segment_time is not None
                else self._drain_anchor
            )
            if now - last <= self._drain_quiet:
                self.env.call_later(self.interval, self._drain_poll)
                return
        self._finish()

    def _finish(self) -> None:
        self.frames_lost = self.n_frames - self.frames_received
        if not self.done.triggered:
            self.done.succeed()

    def _on_segment(self, packet: Packet, now: float) -> None:
        self._segments_received += 1
        self._last_segment_time = now
        frame = packet.seq
        got = self._rx_segments.get(frame, 0) + 1
        self._rx_segments[frame] = got
        if got == self._segments_per_frame:
            # All of a frame's segments are injected in the same instant,
            # so any segment's origin stamp is the frame send time.
            transit = now - packet.created
            if (
                self.playout_deadline is not None
                and transit > self.playout_deadline
            ):
                self.frames_late += 1
                return
            self.frames_received += 1
            self.latency.add(transit)
            if self._last_arrival is not None:
                self.interarrival.add(now - self._last_arrival)
            self._last_arrival = now

    @property
    def delivered_rate(self) -> float:
        """Delivered application bit/s based on mean frame inter-arrival."""
        if self.interarrival.n == 0:
            return 0.0
        return self.frame_bytes * 8 / self.interarrival.mean

    @property
    def jitter(self) -> float:
        """Standard deviation of frame inter-arrival times (seconds)."""
        return self.interarrival.stddev

    def run(self) -> "CbrFlow":
        """Run until the flow drains; returns self for chaining."""
        self.env.run(until=self.done)
        return self


class PingFlow:
    """Small request/response pairs measuring round-trip time.

    A lost echo no longer hangs the flow: after the last send the flow
    waits out ``deadline`` seconds and then completes, reporting the
    unanswered pings in ``lost``.
    """

    _ids = 0

    def __init__(
        self,
        net: Network,
        src: str,
        dst: str,
        count: int = 10,
        payload: int = 16,
        interval: float = 1e-3,
        name: str = "",
        deadline: Optional[float] = None,
    ):
        PingFlow._ids += 1
        self.net = net
        self.env = net.env
        self.src = src
        self.dst = dst
        self.count = count
        self.payload = payload
        self.interval = interval
        self.name = name or f"ping{PingFlow._ids}"
        self.deadline = deadline if deadline is not None else max(1.0, 8 * interval)
        self.rtt = RunningStats()
        self.lost = 0
        self.done: Event = self.env.event()
        self._sent_at: dict[int, float] = {}
        self._src_host = net.host(src)
        self._dst_host = net.host(dst)
        self._dst_host.register_sink(self.name, self._echo)
        self._src_host.register_sink(self.name + ".reply", self._pong)
        # Burst chain (see CbrFlow): one callback per ping.  An empty
        # probe only waits out its deadline.
        if count > 0:
            self.env.call_later(0.0, self._send_ping, 0)
        else:
            self.env.call_later(0.0, self._arm_deadline)

    # -- the burst chain -----------------------------------------------------
    def _send_ping(self, i: int) -> None:
        self._sent_at[i] = self.env._now
        self._src_host.send(
            Packet(
                self.name,
                self.src,
                self.dst,
                self.payload + IP_HEADER + TCP_HEADER,
                self.payload,
                "data",
                i,
            )
        )
        nxt = i + 1
        if nxt < self.count:
            self.env.call_later(self.interval, self._send_ping, nxt)
        else:
            self.env.call_later(self.interval, self._arm_deadline)

    def _arm_deadline(self) -> None:
        # Deadline one interval after the last send: echoes lost to drops
        # or failures must not block run() forever.
        self.env.call_later(self.deadline, self._deadline_finish)

    def _deadline_finish(self) -> None:
        if not self.done.triggered:
            self.lost = self.count - self.rtt.n
            self.done.succeed(self.rtt.mean)

    def _echo(self, packet: Packet, now: float) -> None:
        self._dst_host.send(
            Packet(
                self.name + ".reply",
                self.dst,
                self.src,
                packet.ip_bytes,
                packet.payload_bytes,
                "reply",
                packet.seq,
            )
        )

    def _pong(self, packet: Packet, now: float) -> None:
        self.rtt.add(now - self._sent_at[packet.seq])
        if self.rtt.n == self.count and not self.done.triggered:
            self.done.succeed(self.rtt.mean)

    def run(self) -> float:
        """Run until all echoes return or the deadline passes; mean RTT in
        seconds over the answered pings (0.0 if every ping was lost)."""
        self.env.run(until=self.done)
        return self.rtt.mean
