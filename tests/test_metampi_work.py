"""Work counters of the 2-rank flux coupler (perfbench's ``coupled_ranks``).

One T3E-600 rank and one SP2 rank run the MOM-2/IFS coupling round —
``Allreduce``, ``Bcast`` and ``barrier`` on the hierarchical strategy —
whose seven WAN messages cost the runtime a fixed amount of work: baton
hand-offs, counted exactly, and Python-level calls, gated at an upper
bound.
"""

import gc
import sys
from collections import Counter

import numpy as np

from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import SUM, MetaMPI
from repro.metampi.runtime import Runtime
from repro.netsim import build_testbed

ELEMS = 512
#: Python-level calls per coupling round, both ranks together, recorded
#: on Python 3.11.  Python 3.12 inlines comprehensions, so it counts
#: fewer, never more.
CALLS_PER_ROUND = 227


def coupler(rounds, on_round=None):
    """Run ``rounds`` coupling rounds; ``on_round(i)`` runs on every rank
    thread before round ``i`` (and with ``i == rounds`` after the last)."""
    mc = MetaMPI(
        testbed=build_testbed(), wallclock_timeout=60.0, strategy="hierarchical"
    )
    mc.add_machine(CRAY_T3E_600, ranks=1)
    mc.add_machine(IBM_SP2, ranks=1)
    base = np.arange(ELEMS, dtype=np.int64)

    def main(comm):
        flux = base * (comm.rank + 1)
        coupled = np.zeros(ELEMS, dtype=np.int64)
        for i in range(rounds):
            if on_round is not None:
                on_round(i)
            comm.Allreduce(flux, coupled, op=SUM)
            correction = (
                coupled // comm.size if comm.rank == 0
                else np.zeros(ELEMS, dtype=np.int64)
            )
            comm.Bcast(correction, root=0)
            comm.barrier()
        if on_round is not None:
            on_round(rounds)
        return int(correction[-1])

    return mc, [r.value for r in mc.run(main)]


def test_six_baton_handoffs_per_round(monkeypatch):
    """Each rank parks once before it first runs, then six times a round
    between them: 3,000 hand-offs in 500 rounds."""
    parks = Counter()
    park = Runtime._park

    def counting_park(self, ctx):
        parks[ctx.world_rank] += 1
        park(self, ctx)

    monkeypatch.setattr(Runtime, "_park", counting_park)
    mc, checks = coupler(500)
    assert checks == [3 * (ELEMS - 1) // 2] * 2
    assert sum(parks.values()) == 2 + 6 * 500
    wan = mc.runtime.traffic_summary()
    assert sum(s["wan"]["messages"] for s in wan.values()) == 7 * 500


def test_python_calls_per_round_are_bounded():
    """Python-level calls in steady-state rounds (after the first builds
    the collective plans), both rank threads counted.  The cyclic
    collector is held off in the window: a ``gc.callbacks`` hook (the
    hypothesis package installs one) runs whenever a collection falls
    inside it, and when that happens depends on what ran before."""
    warm, steady = 10, 40
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    def on_round(i):
        if i == warm:
            gc.disable()
            sys.setprofile(profile)
        elif i == warm + steady:
            sys.setprofile(None)

    try:
        coupler(warm + steady, on_round)
    finally:
        gc.enable()
    del calls[on_round.__code__]  # the hook, not the round's work
    per_round = sum(calls.values()) / steady
    # A floor, so a profiler that saw nothing cannot pass.
    assert 100 < per_round <= CALLS_PER_ROUND
