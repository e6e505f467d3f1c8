"""One JSON object per line: the shape of every exported row file."""

from __future__ import annotations

import json
import os
from typing import Any, Iterable


def write_jsonl(path: str | os.PathLike, rows: Iterable[Any]) -> int:
    """Write each row as ``json.dumps(row, sort_keys=True)`` on its own
    line, replacing ``path``; returns the number of rows written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            n += 1
    return n
