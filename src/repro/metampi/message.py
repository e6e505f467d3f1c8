"""In-flight message representation and per-rank mailboxes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.metampi.constants import ANY_SOURCE, ANY_TAG


@dataclass(slots=True, eq=False)
class Message:
    """One message queued at the receiver.

    ``src``/``dst`` are *world* ranks; communicator-local translation
    happens in the Comm layer.  ``arrival`` is the virtual time at which
    the message is available to the receiver.  Messages compare by
    identity, so a mailbox removes the very message it matched.
    """

    src: int
    dst: int
    comm_id: int
    tag: int
    kind: str  #: 'obj' (pickled Python object) or 'buf' (ndarray)
    data: Any
    nbytes: int
    arrival: float
    seq: int  #: global send order, for FIFO tie-breaking


class Mailbox:
    """Mailbox with MPI matching semantics.

    Matching respects non-overtaking order per (source, comm, tag) by
    scanning in global send order; ANY_SOURCE picks the earliest-arriving
    match for determinism of the virtual timeline.  As in MPI, ANY_TAG
    matches user tags (>= 0) only, never a collective's internal tag.
    Only the rank holding the runtime's baton touches a mailbox, so it
    needs no lock.
    """

    def __init__(self) -> None:
        self._messages: list[Message] = []

    def deliver(self, msg: Message) -> None:
        """Queue ``msg`` (called by the sending rank)."""
        self._messages.append(msg)

    def probe(self, comm_id: int, source: int, tag: int) -> Optional[Message]:
        """The message a receive would match now, left queued (or None)."""
        # Non-overtaking: for each source only its *first* matching message
        # (in send order; list order == seq order) is eligible.  Among the
        # eligible heads, ANY_SOURCE picks the earliest virtual arrival.
        heads: dict[int, Message] = {}
        for msg in self._messages:
            if msg.comm_id != comm_id:
                continue
            if source != ANY_SOURCE and msg.src != source:
                continue
            if tag == ANY_TAG:
                if msg.tag < 0:
                    continue
            elif msg.tag != tag:
                continue
            if source != ANY_SOURCE:
                return msg
            heads.setdefault(msg.src, msg)
        if not heads:
            return None
        return min(heads.values(), key=lambda m: (m.arrival, m.seq))

    def remove(self, msg: Message) -> None:
        """Dequeue a message :meth:`probe` returned."""
        self._messages.remove(msg)
