"""Error types of the metacomputing MPI runtime."""


class MetaMpiError(RuntimeError):
    """Base class for all metampi errors."""


class RankFailed(MetaMpiError):
    """A rank's function raised; carries rank and original exception."""

    def __init__(self, rank: int, original: BaseException):
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


class DeadlockSuspected(MetaMpiError):
    """Every live rank is parked, or the wall-clock watchdog fired."""


class TransportError(MetaMpiError):
    """A WAN send found no usable path after the retry/backoff policy.

    Raised instead of hanging when the testbed path between two hosts is
    down (link failure, gateway crash) and does not recover within the
    transport's :class:`~repro.metampi.transport.RetryPolicy` budget.
    ``src_rank``/``dst_rank`` are filled in by the runtime when the
    failure surfaces from a rank's send.
    """

    def __init__(self, src_host: str, dst_host: str, attempts: int):
        super().__init__(
            f"no usable path from {src_host!r} to {dst_host!r} "
            f"after {attempts} attempt(s)"
        )
        self.src_host = src_host
        self.dst_host = dst_host
        self.attempts = attempts
        self.src_rank: int | None = None
        self.dst_rank: int | None = None


class InvalidTag(MetaMpiError):
    """User supplied a negative (reserved) tag."""
