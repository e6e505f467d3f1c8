"""Cell-exact ATM link simulation (validation of the packet model).

The packet-level network charges ``aal5_wire_bytes(pdu) * 8 / rate`` per
datagram; this module actually clocks every 53-byte cell of a transfer
through a link — including interleaving of multiple VCs cell by cell,
which ATM does and packet simulators cannot — and confirms the
aggregate timing the fast model uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.netsim.atm import AAL5Frame, AAL5Reassembler, ATM_CELL_BYTES, Cell
from repro.sim import Environment


@dataclass
class CellLog:
    """Arrival record of one cell."""

    time: float
    cell: Cell


class CellLink:
    """A unidirectional ATM link transmitting individual cells.

    Cells from all VCs share one transmitter in FIFO order; each cell
    occupies the line for ``424 / rate`` seconds and arrives after the
    propagation delay.  A cell sent to an idle transmitter starts at
    once; one sent while it is busy waits in a deque, and each completed
    cell starts the next.
    """

    def __init__(self, env: Environment, rate: float, propagation: float = 0.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.env = env
        self.rate = rate
        self.propagation = propagation
        self.cell_time = ATM_CELL_BYTES * 8 / rate
        self._queue: deque[Cell] = deque()
        self._busy = False
        self.delivered: list[CellLog] = []
        self.reassembler = AAL5Reassembler()
        self.pdu_complete_times: dict[int, float] = {}

    def send_cell(self, cell: Cell) -> None:
        """Queue one cell for transmission."""
        if self._busy:
            self._queue.append(cell)
        else:
            self._busy = True
            self.env.call_later(self.cell_time, self._sent, cell)

    def send_frame(self, frame: AAL5Frame) -> None:
        """Queue a whole AAL5 frame (all its cells, in order)."""
        for cell in frame.segment():
            self.send_cell(cell)

    def _sent(self, cell: Cell) -> None:
        if self.propagation:
            self.env.call_later(self.propagation, self._arrive, cell)
        else:
            self._arrive(cell)
        if self._queue:
            self.env.call_later(self.cell_time, self._sent, self._queue.popleft())
        else:
            self._busy = False

    def _arrive(self, cell: Cell) -> None:
        self.delivered.append(CellLog(time=self.env.now, cell=cell))
        done = self.reassembler.push(cell)
        if done is not None:
            self.pdu_complete_times[done] = self.env.now


def transfer_time_cell_exact(
    payload_bytes: int, rate: float, propagation: float = 0.0
) -> float:
    """Clock one AAL5 PDU through a link cell by cell; returns the time
    at which the last cell arrives (= packet model's prediction)."""
    env = Environment()
    link = CellLink(env, rate, propagation)
    link.send_frame(AAL5Frame(payload_bytes=payload_bytes, pdu_id=0))
    env.run()
    return link.pdu_complete_times[0]


def interleaved_vc_transfer(
    payloads: list[int], rate: float
) -> dict[int, float]:
    """Cells of several VCs interleaved round-robin on one link.

    Returns per-PDU completion times — each PDU finishes later than it
    would alone (the sharing the CBR reservations of
    :mod:`repro.netsim.qos` exist to bound).
    """
    env = Environment()
    link = CellLink(env, rate)
    generators = [
        iter(
            AAL5Frame(payload_bytes=p, vci=32 + i, pdu_id=i).segment()
        )
        for i, p in enumerate(payloads)
    ]
    # Round-robin rotation: each pass takes one cell per still-active VC
    # (exhausted VCs drop out of the rotation in O(1), keeping the feed
    # linear in total cells — the emitted order is round-robin across
    # active VCs either way).
    pending = deque(generators)
    while pending:
        for _ in range(len(pending)):
            gen = pending.popleft()
            cell = next(gen, None)
            if cell is not None:
                link.send_cell(cell)
                pending.append(gen)
    env.run()
    return dict(link.pdu_complete_times)
