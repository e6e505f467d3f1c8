"""Wildcards and reduction operations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Receive from any rank.
ANY_SOURCE = -1
#: Receive any user tag (>= 0), never a collective's internal one.
ANY_TAG = -1

#: Tags below this value are reserved for internal protocols (collectives,
#: spawn handshakes).  User tags must be >= 0.
INTERNAL_TAG_BASE = -1000


@dataclass(frozen=True)
class Op:
    """A reduction operation usable by reduce/allreduce/Reduce/Allreduce.

    ``commutative=False`` makes every collective strategy fold strictly
    in rank order (ring/hierarchical otherwise reorder the reduction for
    bandwidth); all builtin ops are commutative, matching MPI.
    """

    name: str
    py: Callable[[Any, Any], Any]
    np_ufunc: Callable  #: in-place capable NumPy ufunc
    commutative: bool = True

    def __call__(self, a, b):
        return self.py(a, b)


SUM = Op("sum", lambda a, b: a + b, np.add)
PROD = Op("prod", lambda a, b: a * b, np.multiply)
MAX = Op("max", lambda a, b: a if a >= b else b, np.maximum)
MIN = Op("min", lambda a, b: a if a <= b else b, np.minimum)
LAND = Op("land", lambda a, b: bool(a) and bool(b), np.logical_and)
LOR = Op("lor", lambda a, b: bool(a) or bool(b), np.logical_or)
