"""High-level launcher: assemble a metacomputer and run a program on it.

Typical use::

    mc = MetaMPI(testbed=build_testbed())
    mc.add_machine(CRAY_T3E_600, ranks=8)
    mc.add_machine(IBM_SP2, ranks=4)
    results = mc.run(main)          # main(comm) runs on every rank
    print(mc.elapsed)               # metacomputer virtual seconds

Without a ``testbed``, inter-machine messages use a generic default WAN
cost, which keeps unit tests independent of the network simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.machines.spec import MachineSpec
from repro.metampi.comm import Intracomm
from repro.metampi.runtime import Runtime
from repro.metampi.transport import TransportModel
from repro.telemetry.log import get_logger

#: level-filtered and silent by default — library code must not write to
#: stdout unconditionally (enable with repro.telemetry.enable_console()).
log = get_logger("metampi.launcher")


@dataclass
class RankResult:
    """Outcome of one rank: return value and final virtual clock."""

    rank: int
    value: Any
    clock: float
    machine: str


class MetaMPI:
    """Builds the rank layout and runs SPMD programs on it."""

    def __init__(
        self,
        testbed: Any = None,
        transport: Optional[TransportModel] = None,
        wallclock_timeout: Optional[float] = 60.0,
        tracer: Any = None,
        strategy: Any = None,
    ):
        if transport is None:
            net = getattr(testbed, "net", testbed)
            transport = TransportModel(net=net)
        self.runtime = Runtime(
            transport=transport,
            wallclock_timeout=wallclock_timeout,
            tracer=tracer,
        )
        # ``strategy`` names the collective algorithm family
        # ("naive"/"flat"/"ring"/"hierarchical"; default hierarchical).
        self.strategy = strategy
        self._layout: list = []
        self.world: Optional[Intracomm] = None

    # -- assembly -----------------------------------------------------------
    def add_machine(
        self, spec: MachineSpec, ranks: int, host: str = ""
    ) -> "MetaMPI":
        """Contribute ``ranks`` processes on ``spec`` to the metacomputer."""
        if ranks < 1:
            raise ValueError("need at least one rank per machine")
        for _ in range(ranks):
            self._layout.append(self.runtime.add_rank(spec, host))
        log.debug(
            "added %d rank(s) on %s (world size now %d)",
            ranks, spec.name, len(self._layout),
        )
        return self

    @property
    def size(self) -> int:
        """World size assembled so far."""
        return len(self._layout)

    # -- execution ------------------------------------------------------------
    def run(
        self,
        fn: Callable,
        args: tuple = (),
        per_rank_args: Optional[Sequence[tuple]] = None,
    ) -> list[RankResult]:
        """Run ``fn(world_comm, *args)`` on every rank; wait for all ranks.

        ``per_rank_args`` overrides ``args`` individually.  Ranks spawned
        dynamically during the run are joined too.  The ranks take turns
        under the runtime's baton (see :mod:`repro.metampi.runtime`).
        """
        if not self._layout:
            raise RuntimeError("add_machine() before run()")
        if per_rank_args is not None and len(per_rank_args) != self.size:
            raise ValueError("per_rank_args length must equal world size")

        world = Intracomm(
            self.runtime,
            self.runtime.next_comm_id(),
            [c.world_rank for c in self._layout],
            strategy=self.strategy,
        )
        self.world = world
        if self.runtime.tracer is not None:
            self.runtime.tracer.bind_runtime(self.runtime)

        log.info(
            "starting %d rank(s) across %d machine(s)",
            self.size, len({c.machine.name for c in self._layout}),
        )
        for i, ctx in enumerate(self._layout):
            rank_args = per_rank_args[i] if per_rank_args is not None else args
            self.runtime.start_rank(ctx, fn, tuple(rank_args), world)

        self.runtime.join()
        log.info(
            "run complete: %d rank(s), %.6f virtual seconds",
            len(self.runtime.ranks), self.elapsed,
        )
        return [
            RankResult(
                rank=i,
                value=ctx.result,
                clock=ctx.clock,
                machine=ctx.machine.name,
            )
            for i, ctx in enumerate(self.runtime.ranks)
        ]

    @property
    def elapsed(self) -> float:
        """Virtual elapsed time of the whole run (max over rank clocks)."""
        return self.runtime.elapsed
