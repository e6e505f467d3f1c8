"""Kernel exception types.

They live in their own dependency-free module so both the event layer
(:mod:`repro.sim.events`) and the event loop (:mod:`repro.sim.engine`)
can raise them without importing each other.
"""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Raised for kernel misuse: double-triggering an event, running an
    empty queue, scheduling into the past.
    """
