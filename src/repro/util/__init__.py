"""Shared utilities: unit conversions, image and JSONL output, small math
helpers."""

from repro.util.units import (
    KBYTE,
    MBYTE,
    GBYTE,
    bits_to_bytes,
    bytes_to_bits,
    mbit_per_s,
    gbit_per_s,
    mbyte_per_s,
    pretty_rate,
    pretty_size,
    pretty_time,
)
from repro.util.images import write_pgm, write_ppm
from repro.util.jsonl import write_jsonl
from repro.util.stats import RunningStats

__all__ = [
    "KBYTE",
    "MBYTE",
    "GBYTE",
    "bits_to_bytes",
    "bytes_to_bits",
    "mbit_per_s",
    "gbit_per_s",
    "mbyte_per_s",
    "pretty_rate",
    "pretty_size",
    "pretty_time",
    "write_jsonl",
    "write_pgm",
    "write_ppm",
    "RunningStats",
]
