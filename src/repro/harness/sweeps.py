"""Committed sweep definitions — the paper's measurement axes as grids.

Each :class:`Sweep` names a grid of :class:`ScenarioSpec` points; its
baseline file pins every metric exactly:

* ``fig1_network`` — Section 2 / Figure 1: HiPPI block sizes, TCP
  throughput vs. MTU on the local Cray complex and across the WAN, and
  the per-stage path characterization (bottleneck identification);
* ``table1_t3e`` — Table 1: FIRE module times for 1–256 PEs at the
  reference and an 8x image size (the E7 "larger images" sweep);
* ``fault_recovery`` — Section 4 reliability: goodput vs. injected WAN
  loss rate (with the Mathis-style bound) and link-outage recovery;
* ``kernel_bench`` — discrete-event kernel work on a WAN bulk
  microbench: scheduled entries, link packets, segments, the heap peak
  and the simulated goodput;
* ``contention`` — Sections 2-3 concurrent mix: bulk transfers + D1
  video + ping sharing the backbone, DRR fairness vs. the closed-form
  max-min fair-share model, on both the OC-48 and OC-12 backbones;
* ``collectives`` — Section 3 metampi ablation: every collective
  strategy on the coupled-model exchange patterns: virtual completion
  times, WAN message and byte counts, whether the strategies' results
  are identical, and the hierarchical/naive completion-time ratio;
* ``hybrid`` — the fluid/packet hybrid engine gate: fluid-vs-packet
  agreement within 5% on the overlap grid (``within_5pct``), the
  workload generator's schedule digest, and the heavy-tailed scale
  scenarios on both backbones with their FCT statistics;
* ``availability`` — SPring-8-style redundancy: single vs. dual ring
  under identical seeded outage schedules, with the dual ring's
  delivered availability strictly higher (``dual_strictly_better``)
  and the CBR playout misses;
* ``grid`` — KEK-style multi-site staging on 2×2 and 2×3 grids, with
  and without a mid-run trunk cut: transfers must fail over instead of
  stalling (``stalled`` stays 0), with their goodputs.

``quick=True`` shrinks transfer sizes for CI smoke runs; the grids
themselves do not change shape, so quick and full baselines share the
same metric namespace per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness.spec import ParameterGrid, ScenarioSpec, make_spec
from repro.util.units import KBYTE, MBYTE

#: MTU axis (bytes): ATM default IP MTU up to the testbed's 64 KByte.
MTU_AXIS = [9180, 16 * KBYTE, 32 * KBYTE, 64 * KBYTE]
#: Loss-probability axis for the fault sweep (full mode).
LOSS_AXIS = [0.0, 1e-4, 1e-3, 5e-3]
#: Quick mode raises the top loss rate so the shorter packet stream
#: still sees seeded losses (cf. bench_fault_recovery).
LOSS_AXIS_QUICK = [0.0, 1e-4, 1e-3, 2e-2]


@dataclass(frozen=True)
class Sweep:
    """A named, baselined sweep definition."""

    name: str
    description: str
    build: Callable[[bool], list[ScenarioSpec]]

    def specs(self, quick: bool = False) -> list[ScenarioSpec]:
        return self.build(quick)


def _fig1_network(quick: bool) -> list[ScenarioSpec]:
    mbytes = 10 if quick else 40
    specs = [
        make_spec("hippi_raw", block_bytes=block)
        for block in (64 * KBYTE, 256 * KBYTE, 1 * MBYTE)
    ]
    for src, dst in (("t3e-600", "t3e-1200"), ("t3e-600", "sp2")):
        grid = ParameterGrid(
            {"mtu": MTU_AXIS}, fixed={"src": src, "dst": dst, "mbytes": mbytes}
        )
        specs.extend(grid.specs("wan_bulk_transfer"))
    specs.append(make_spec("path_characterization", src="t3e-600", dst="sp2"))
    return specs


def _table1_t3e(quick: bool) -> list[ScenarioSpec]:
    from repro.machines.t3e_model import REF_VOXELS, TABLE1_PES

    grid = ParameterGrid(
        {"pes": list(TABLE1_PES), "voxels": [REF_VOXELS, 8 * REF_VOXELS]}
    )
    return grid.specs("t3e_scaling")


def _kernel_bench(quick: bool) -> list[ScenarioSpec]:
    sizes = [8] if quick else [8, 32]
    return [
        make_spec("kernel_bench", mbytes=mb, src="sp2", dst="t3e-600")
        for mb in sizes
    ]


def _contention(quick: bool) -> list[ScenarioSpec]:
    mbytes = 8 if quick else 24
    frames = 25 if quick else 50
    grid = ParameterGrid(
        {"oc48": [True, False], "n_bulk": [1, 2, 3]},
        fixed={"mbytes": mbytes, "frames": frames},
    )
    return grid.specs("wan_contention")


def _collectives(quick: bool) -> list[ScenarioSpec]:
    # Payloads sit below the occupancy crossover: past ~100 KByte the
    # WAN transfer time is pure bandwidth and leader aggregation stops
    # paying for the per-message sender overhead it eliminates.
    payload_kb = 32 if quick else 64
    rounds = 2 if quick else 4
    grid = ParameterGrid(
        {"pattern": ["allreduce", "coupler", "trace"]},
        fixed={"payload_kb": payload_kb, "rounds": rounds},
    )
    return grid.specs("collectives_ablation")


def _fault_recovery(quick: bool) -> list[ScenarioSpec]:
    mbytes = 20 if quick else 40
    loss_axis = LOSS_AXIS_QUICK if quick else LOSS_AXIS
    grid = ParameterGrid({"loss_rate": loss_axis}, fixed={"mbytes": mbytes})
    specs = grid.specs("wan_bulk_transfer")
    specs.extend(
        make_spec("loss_bound", loss_rate=p) for p in loss_axis if p > 0.0
    )
    specs.append(make_spec("wan_bulk_transfer", mbytes=mbytes, outage=False))
    specs.append(
        make_spec(
            "wan_bulk_transfer",
            mbytes=mbytes,
            outage=True,
            outage_at=0.2,
            outage_len=1.0,
        )
    )
    return specs


def _hybrid(quick: bool) -> list[ScenarioSpec]:
    sessions = 1000 if quick else 10000
    rate = 40.0 if quick else 90.0
    return [
        # The validity gate: fluid-vs-packet agreement on the overlap
        # grid (1..3 distinct-source bulk flows).  ``within_5pct`` is
        # pinned exactly.
        make_spec("fluid_vs_packet", mbytes=16 if quick else 32, max_flows=3),
        # Pure fluid at scale on both backbones.
        make_spec(
            "fluid_wan", sessions=sessions, session_rate=rate, oc48=True
        ),
        make_spec(
            "fluid_wan", sessions=sessions, session_rate=rate, oc48=False
        ),
        # The coupled run: heavy-tailed fluid load under live ping + D1.
        make_spec(
            "hybrid_wan",
            sessions=200 if quick else 1000,
            session_rate=rate,
            frames=15 if quick else 25,
        ),
    ]


def _availability(quick: bool) -> list[ScenarioSpec]:
    frames = 40 if quick else 120
    horizon = 1.2 if quick else 4.0
    outages = 5 if quick else 8
    grid = ParameterGrid(
        # ``index`` only perturbs the content hash, i.e. the outage
        # schedule's seed — each point replays a different cut history.
        {"index": [0, 1] if quick else [0, 1, 2]},
        fixed={"frames": frames, "horizon": horizon, "outages": outages},
    )
    specs = grid.specs("ring_availability")
    if not quick:
        specs.append(
            make_spec(
                "ring_availability",
                sites=6,
                frames=frames,
                horizon=horizon,
                outages=outages,
            )
        )
    return specs


def _grid(quick: bool) -> list[ScenarioSpec]:
    mbytes = 4 if quick else 16
    specs: list[ScenarioSpec] = []
    for rows, cols in ((2, 2), (2, 3)):
        specs.append(make_spec("grid_staging", rows=rows, cols=cols, mbytes=mbytes))
        specs.append(
            make_spec(
                "grid_staging",
                rows=rows,
                cols=cols,
                mbytes=mbytes,
                outage_at=0.05,
                outage_len=0.3,
            )
        )
    return specs


SWEEPS: dict[str, Sweep] = {
    s.name: s
    for s in (
        Sweep(
            name="fig1_network",
            description="Section 2: HiPPI peak, TCP vs MTU, WAN bottleneck",
            build=_fig1_network,
        ),
        Sweep(
            name="table1_t3e",
            description="Table 1: T3E module times and speedups, 1-256 PEs",
            build=_table1_t3e,
        ),
        Sweep(
            name="kernel_bench",
            description="Kernel work counters on a WAN bulk microbench",
            build=_kernel_bench,
        ),
        Sweep(
            name="contention",
            description="Sections 2-3: concurrent mix fairness vs max-min model",
            build=_contention,
        ),
        Sweep(
            name="collectives",
            description="Section 3: collective-strategy ablation on the testbed",
            build=_collectives,
        ),
        Sweep(
            name="hybrid",
            description="Fluid/packet hybrid: cross-validation + heavy-tailed scale",
            build=_hybrid,
        ),
        Sweep(
            name="availability",
            description="Single vs dual ring delivered availability under outages",
            build=_availability,
        ),
        Sweep(
            name="grid",
            description="Multi-site grid staging with mid-run trunk-cut failover",
            build=_grid,
        ),
        Sweep(
            name="fault_recovery",
            description="Section 4: goodput vs loss, outage recovery",
            build=_fault_recovery,
        ),
    )
}


def get_sweep(name: str) -> Sweep:
    try:
        return SWEEPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {sorted(SWEEPS)}"
        ) from None


def sweep_specs(name: str, quick: bool = False) -> list[ScenarioSpec]:
    return get_sweep(name).specs(quick)


def demo_specs(n: int = 12, duration: float = 0.25) -> list[ScenarioSpec]:
    """The documentation/self-test sweep: ``n`` seeded sleepy scenarios."""
    return [
        make_spec("demo", index=i, duration=duration, n=200) for i in range(n)
    ]
