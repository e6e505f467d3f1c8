"""A from-scratch discrete-event simulation kernel.

An :class:`Environment` holds the simulated clock and a time-ordered
queue of callbacks: model code schedules ``fn(*args)`` with
``call_later``/``call_at`` and keeps whatever state a wait needs in its
own attributes, so one kind of heap entry carries all the work.  A
:class:`Lane` holds a stage's pre-scheduled completions behind one heap
entry.  Triggerable :class:`Event` s mark completions a caller runs
until (``env.run(until=flow.done)``) or joins with :class:`AllOf`.
"""

from repro.sim.engine import Environment, Lane, SimulationError
from repro.sim.events import AllOf, Event

__all__ = [
    "Environment",
    "Lane",
    "Event",
    "AllOf",
    "SimulationError",
]
