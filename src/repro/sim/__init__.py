"""A from-scratch discrete-event simulation kernel.

Provides the coroutine-process model the network simulator and the FIRE
pipeline run on: an :class:`Environment` with a time-ordered event queue,
generator-based :class:`Process` es, :class:`Timeout` s, triggerable
:class:`Event` s, FIFO :class:`Store` s and capacity :class:`Resource` s.

The design follows the SimPy process-interaction style (implemented from
scratch; no external dependency): a process is a generator that ``yield`` s
events; the kernel resumes it when the event fires, passing the event's
value back into the generator.
"""

from repro.sim.engine import Environment, Interrupt, Lane, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout
from repro.sim.resources import Resource, Store

__all__ = [
    "Environment",
    "Lane",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Store",
    "Resource",
    "Interrupt",
    "SimulationError",
]
