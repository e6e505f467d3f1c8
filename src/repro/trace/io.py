"""Trace files: one JSON object per line (merge-friendly, stream-friendly)."""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.trace.events import TraceEvent
from repro.trace.timeline import Timeline
from repro.util.jsonl import write_jsonl


def write_trace(path: str | os.PathLike, events: Iterable[TraceEvent]) -> int:
    """Write events as JSONL; returns the number written."""
    return write_jsonl(path, (ev.to_dict() for ev in events))


def read_trace(path: str | os.PathLike) -> Timeline:
    """Read a JSONL trace back into a Timeline."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return Timeline(events)


def merge_traces(*paths: str | os.PathLike) -> Timeline:
    """Merge several trace files into one global timeline."""
    merged = Timeline([])
    for p in paths:
        merged = merged.merge(read_trace(p))
    return merged
