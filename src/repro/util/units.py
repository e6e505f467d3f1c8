"""Unit conventions used throughout the package.

The 1999 networking literature (and this paper) measures link rates in
Mbit/s (decimal, 1e6 bit/s) and data sizes in KByte/MByte (binary, as was
customary for memory-backed transfer blocks: the paper's "64 KByte MTU" is
65536 bytes).  We keep both conventions explicit to avoid the classic
factor-1.048 confusion when reproducing throughput numbers.

All simulator-internal quantities are SI: seconds, bytes, bit/s.
"""

from __future__ import annotations

#: Binary size units (the paper's "KByte"/"MByte" for MTUs and buffers).
KBYTE = 1024
MBYTE = 1024 * 1024
GBYTE = 1024 * 1024 * 1024

#: Decimal rate units (link speeds).
KBIT = 1e3
MBIT = 1e6
GBIT = 1e9


def bytes_to_bits(nbytes: float) -> float:
    """Convert a byte count to bits."""
    return nbytes * 8.0


def bits_to_bytes(nbits: float) -> float:
    """Convert a bit count to bytes."""
    return nbits / 8.0


def mbit_per_s(value: float) -> float:
    """A rate given in Mbit/s, as bit/s."""
    return value * MBIT


def gbit_per_s(value: float) -> float:
    """A rate given in Gbit/s, as bit/s."""
    return value * GBIT


def mbyte_per_s(value: float) -> float:
    """A rate given in MByte/s (binary MByte), as bit/s."""
    return value * MBYTE * 8.0


def rate_in_mbit(bits_per_s: float) -> float:
    """A bit/s rate expressed in Mbit/s (decimal)."""
    return bits_per_s / MBIT


def rate_in_mbyte(bits_per_s: float) -> float:
    """A bit/s rate expressed in MByte/s (binary)."""
    return bits_per_s / 8.0 / MBYTE


def pretty_rate(bits_per_s: float) -> str:
    """Human-readable rate, e.g. ``'622.08 Mbit/s'``."""
    if bits_per_s >= GBIT:
        return f"{bits_per_s / GBIT:.2f} Gbit/s"
    if bits_per_s >= MBIT:
        return f"{bits_per_s / MBIT:.2f} Mbit/s"
    if bits_per_s >= KBIT:
        return f"{bits_per_s / KBIT:.2f} kbit/s"
    return f"{bits_per_s:.0f} bit/s"


def pretty_size(nbytes: float) -> str:
    """Human-readable size using binary units, e.g. ``'64.0 KByte'``."""
    if nbytes >= GBYTE:
        return f"{nbytes / GBYTE:.2f} GByte"
    if nbytes >= MBYTE:
        return f"{nbytes / MBYTE:.2f} MByte"
    if nbytes >= KBYTE:
        return f"{nbytes / KBYTE:.1f} KByte"
    return f"{nbytes:.0f} Byte"


def pretty_time(seconds: float) -> str:
    """Human-readable duration, e.g. ``'1.10 s'`` or ``'540 µs'``."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.0f} µs"
    return f"{seconds * 1e9:.0f} ns"


def check_seconds(what: str, value: float) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``value`` is a finite,
    non-negative duration (a NaN or negative service time would make a
    model stage silently free or schedule into the past)."""
    if not 0.0 <= value < float("inf"):
        raise ValueError(f"{what} must be a finite time >= 0 s, got {value!r}")


def check_rate(what: str, value: float) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``value`` is a positive
    rate (``inf`` allowed: no limit)."""
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value!r}")
