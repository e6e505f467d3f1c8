"""The metacomputer: sites, machines and session assembly."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.machines.registry import MACHINES
from repro.machines.spec import MachineSpec
from repro.metampi.launcher import MetaMPI
from repro.netsim.testbed import GigabitTestbedWest, build_testbed


class Site(enum.Enum):
    """The two ends of the Gigabit Testbed West."""

    JUELICH = "juelich"
    GMD = "gmd"


@dataclass
class Metacomputer:
    """The full testbed: network + machine registry + session factory.

    One object answers "what is installed where" (paper Section 1) and
    hands out ready-to-run :class:`MetaMPI` sessions whose inter-machine
    message costs come from the simulated WAN.
    """

    testbed: Optional[GigabitTestbedWest] = None
    machines: dict[str, MachineSpec] = field(default_factory=lambda: dict(MACHINES))

    def __post_init__(self) -> None:
        if self.testbed is None:
            self.testbed = build_testbed()

    # -- inventory ----------------------------------------------------------
    def at_site(self, site: Site) -> list[MachineSpec]:
        """Machines installed at one site."""
        return [m for m in self.machines.values() if m.site == site.value]

    def machine(self, name: str) -> MachineSpec:
        """Look up a machine by name."""
        try:
            return self.machines[name]
        except KeyError:
            raise KeyError(
                f"unknown machine {name!r}; known: {sorted(self.machines)}"
            ) from None

    @property
    def total_peak_gflops(self) -> float:
        """Aggregate peak of the whole metacomputer."""
        return sum(m.peak_gflops for m in self.machines.values())

    # -- session assembly ------------------------------------------------------
    def session(
        self,
        layout: dict[str, int],
        wallclock_timeout: float = 60.0,
        tracer=None,
        strategy=None,
    ) -> MetaMPI:
        """A MetaMPI session with ``layout`` = {machine name: ranks}.

        Message timing between machines follows the testbed network.
        ``strategy`` selects the collective algorithm family by name
        ("naive"/"flat"/"ring"/"hierarchical"; default hierarchical).
        """
        mc = MetaMPI(
            testbed=self.testbed,
            wallclock_timeout=wallclock_timeout,
            tracer=tracer,
            strategy=strategy,
        )
        for name, ranks in layout.items():
            mc.add_machine(self.machine(name), ranks=ranks)
        return mc

    def summary(self) -> str:
        """Human-readable inventory (the paper's Section-1 paragraph)."""
        lines = ["Gigabit Testbed West metacomputer:"]
        for site in Site:
            lines.append(f"  {site.value}:")
            for m in self.at_site(site):
                lines.append(
                    f"    {m.name}: {m.nodes} x {m.peak_mflops_per_node:.0f} "
                    f"MFLOPS ({m.kind.value}), host '{m.testbed_host}'"
                )
        lines.append(f"  total peak: {self.total_peak_gflops:.1f} GFLOPS")
        return "\n".join(lines)
