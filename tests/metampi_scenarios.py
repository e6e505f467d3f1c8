"""The inputs pinned by ``tests/metampi_goldens.json``.

metampi layouts the ``collectives`` sweep (3 + 2 ranks) never runs:
one T3E-600 rank with one SP2 rank, and one T3E-600 rank with three
SP2 ranks, so every hierarchical collective has a one-rank island.  Each
input runs one exchange pattern under one collective strategy on the
simulated testbed and records every rank's final clock, the run's
``elapsed``, its ``traffic_summary()`` and every rank's results, floats
written exactly (``float.hex``), so a change in any virtual time or
message count, however small, moves the golden.  :data:`INPUTS` names
every pinned input; regenerate the goldens, after a change that is
meant to move results, with::

    PYTHONPATH=src python -m tests.metampi_scenarios > tests/metampi_goldens.json

and say in the change log which inputs moved and why.
"""

from __future__ import annotations

import json
from typing import Any, Callable

import numpy as np

from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import MAX, SUM, MetaMPI
from repro.metampi.collectives import STRATEGIES
from repro.netsim import build_testbed

#: (T3E-600 ranks, SP2 ranks)
LAYOUTS = {"1+1": (1, 1), "1+3": (1, 3)}
ROUNDS = 2
ELEMS = 64


def _exact(value: Any) -> Any:
    """``value`` as JSON-ready data with every float written exactly."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def _coupler(comm) -> list:
    """The MOM-2/IFS flux-coupler step: Allreduce, Bcast, barrier."""
    flux = np.arange(ELEMS, dtype=np.int64) * (comm.rank + 1)
    coupled = np.zeros(ELEMS, dtype=np.int64)
    out = []
    for _ in range(ROUNDS):
        comm.advance(1e-4 * (comm.rank + 1))
        comm.Allreduce(flux, coupled, op=SUM)
        correction = (
            coupled // comm.size if comm.rank == 0
            else np.zeros(ELEMS, dtype=np.int64)
        )
        comm.Bcast(correction, root=0)
        comm.barrier()
        out.append(int(correction.sum()))
    return out


def _allreduce(comm) -> list:
    """Object allreduce of an array (the ring fast path) and of a float."""
    field = np.full(ELEMS, comm.rank + 1, dtype=np.int64)
    out = []
    for _ in range(ROUNDS):
        comm.advance(2e-4 * comm.rank)
        total = comm.allreduce(field, op=SUM)
        peak = comm.allreduce(0.5 * comm.rank, op=MAX)
        out.append([int(np.asarray(total).sum()), peak])
    return out


def _alltoall(comm) -> list:
    """Personalized exchange of per-destination strips."""
    out = []
    for r in range(ROUNDS):
        comm.advance(1e-4 * (comm.size - comm.rank))
        parts = [
            np.full(ELEMS // comm.size, 100 * comm.rank + d + r, dtype=np.int64)
            for d in range(comm.size)
        ]
        out.append([int(p[0]) for p in comm.alltoall(parts)])
    return out


def _scan(comm) -> list:
    """Inclusive and exclusive prefix sums along rank order."""
    out = []
    for r in range(ROUNDS):
        comm.advance(5e-5 * (comm.rank + r))
        out.append([comm.scan(comm.rank + 1 + r), comm.exscan(comm.rank + 1)])
    return out


def _barrier(comm) -> list:
    """Skewed compute, then a barrier: every clock ends equal."""
    out = []
    for r in range(ROUNDS):
        comm.advance(3e-4 * ((comm.rank + r) % comm.size))
        comm.barrier()
        out.append(comm.wtime())
    return out


PATTERNS: dict[str, Callable] = {
    "coupler": _coupler,
    "allreduce": _allreduce,
    "alltoall": _alltoall,
    "scan": _scan,
    "barrier": _barrier,
}


def run(layout: str, strategy: str, pattern: str) -> dict:
    """One pattern under one strategy on one layout, recorded exactly."""
    ranks_a, ranks_b = LAYOUTS[layout]
    mc = MetaMPI(testbed=build_testbed(), wallclock_timeout=60.0, strategy=strategy)
    mc.add_machine(CRAY_T3E_600, ranks=ranks_a)
    mc.add_machine(IBM_SP2, ranks=ranks_b)
    results = mc.run(PATTERNS[pattern])
    return {
        "clocks": [_exact(r.clock) for r in results],
        "elapsed": _exact(mc.elapsed),
        "results": [_exact(r.value) for r in results],
        "traffic": _exact(mc.runtime.traffic_summary()),
    }


INPUTS: dict[str, Callable[[], dict]] = {
    f"{layout}_{strategy}_{pattern}": (
        lambda layout=layout, strategy=strategy, pattern=pattern: run(
            layout, strategy, pattern
        )
    )
    for layout in LAYOUTS
    for strategy in sorted(STRATEGIES)
    for pattern in PATTERNS
}


def record() -> dict:
    """Run every pinned input; the contents of the goldens file."""
    return {name: run() for name, run in INPUTS.items()}


if __name__ == "__main__":
    # One input per line, so a moved golden shows as a one-line diff.
    rows = (
        f"{json.dumps(name)}: {json.dumps(golden, sort_keys=True)}"
        for name, golden in sorted(record().items())
    )
    print("{\n" + ",\n".join(rows) + "\n}")
