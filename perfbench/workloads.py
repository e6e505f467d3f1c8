"""The four benchmark workloads, built from the public simulator APIs.

Every workload is closed: one fixed job, run to completion in this
process.  ``setup(seed)`` builds topology, flows, fluid schedule and ranks
and returns a :class:`Job`; ``Job.run()`` simulates and returns an
:class:`Outcome`.  The benchmark times the two calls separately
(``setup_s`` and ``wall_s``).

The seed perturbs a fixed job slightly (a few kilobytes of transfer size,
a wire-loss pattern, a flux field, microseconds of arrival time) rather
than re-drawing it, so every seed puts the same load on the simulator.
A freshly drawn heavy-tailed fluid day varies by about 30% in host cost
between seeds, which would swamp any regression bound.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.fluid import BoundedPareto, FlowArrival, FluidEngine, WorkloadGenerator
from repro.machines import CRAY_T3E_600, IBM_SP2
from repro.metampi import SUM, MetaMPI, RankFailed
from repro.netsim import (
    BulkTransfer,
    CbrFlow,
    ClassicalIP,
    PingFlow,
    TransferStalled,
    build_testbed,
)
from repro.netsim.ip import TESTBED_MTU
from repro.util.units import KBYTE, MBYTE

#: Classical-IP-over-ATM default MTU (RFC 1577).
CLIP_MTU = 9180


@dataclass
class Outcome:
    """What one run of a job produced."""

    ops: int  #: transfers, streams, ping series, fluid sessions or rounds
    failed: int  #: ops that did not complete
    units: int  #: work units behind ``work_per_s`` (see METRICS.md)
    results: dict[str, Any]  #: simulated results, checked and digested
    link_pkts: int = 0  #: link packet transmissions, every link and direction
    drops: dict[str, int] = field(default_factory=dict)  #: link drops by reason
    round_s: list[float] = field(default_factory=list)  #: host s per round


@dataclass
class Job:
    """A built workload, ready to simulate."""

    run: Callable[[], Outcome]
    #: host seconds of set-up spent generating the fluid schedule
    schedule_s: float = 0.0


def canonical(results: Any, float_sig: int = 0) -> Any:
    """``results`` as plain JSON data, floats rounded to ``float_sig``
    significant digits (exact when 0)."""
    if isinstance(results, dict):
        return {str(k): canonical(v, float_sig) for k, v in results.items()}
    if isinstance(results, (list, tuple)):
        return [canonical(v, float_sig) for v in results]
    if isinstance(results, float) and float_sig:
        return float(f"{results:.{float_sig}g}")
    return results


def digest(results: dict[str, Any], float_sig: int = 0) -> str:
    """SHA-256 over the simulated results (floats by exact repr, or
    rounded to ``float_sig`` significant digits)."""
    text = json.dumps(canonical(results, float_sig), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def link_packets(net) -> int:
    """Link packet transmissions summed over every link and direction."""
    return sum(sum(ln.tx_packets.values()) for ln in net.links.values())


def add_drops(into: dict[str, int], net) -> dict[str, int]:
    """Add every link's drops, by typed reason, to ``into``."""
    for ln in net.links.values():
        for reason, n in ln.drop_reasons.items():
            into[reason] = into.get(reason, 0) + n
    return into


def _run_transfer(net, bt: BulkTransfer) -> bool:
    """Run ``bt`` to completion; False if it stalled."""
    try:
        net.env.run(until=bt.done)
    except TransferStalled:
        return False
    return True


def _bulk_results(bt: BulkTransfer, ok: bool) -> dict[str, Any]:
    return {
        "done": ok,
        "goodput_bps": bt.throughput if ok else None,
        "segments": bt.segments_delivered,
        "retransmits": bt.retransmits,
        "timeouts": bt.timeouts,
    }


# -- wan_bulk ---------------------------------------------------------------

#: (MTU, MBytes) of the back-to-back single-flow transfers of one job.
WAN_BULK_TRANSFERS = ((TESTBED_MTU, 64), (CLIP_MTU, 16))


def wan_bulk(seed: int) -> Job:
    """Back-to-back single-flow SP2 -> T3E-600 bulk transfers, no loss,
    at the paper's 64 KByte MTU and the 9180-byte Classical-IP default."""
    rng = random.Random(seed)
    legs = []
    for mtu, mbytes in WAN_BULK_TRANSFERS:
        tb = build_testbed()
        nbytes = mbytes * MBYTE + rng.randrange(64 * KBYTE)
        bt = BulkTransfer(
            tb.net, tb.SP2, tb.T3E_600, nbytes, ip=ClassicalIP(mtu),
            name=f"bulk-{mtu}",
        )
        legs.append((tb.net, bt))

    def run() -> Outcome:
        results = {}
        drops: dict[str, int] = {}
        pkts = failed = 0
        for net, bt in legs:
            ok = _run_transfer(net, bt)
            failed += not ok
            pkts += link_packets(net)
            add_drops(drops, net)
            res = _bulk_results(bt, ok)
            res["nbytes"] = bt.nbytes
            res["sim_end_s"] = net.env.now
            results[bt.name] = res
        return Outcome(len(legs), failed, pkts, results, link_pkts=pkts, drops=drops)

    return Job(run)


def check_wan_bulk(results: dict[str, Any]) -> list[str]:
    """Seed-independent invariants: complete, lossless, MTU-sized."""
    errors = []
    for name, res in results.items():
        mtu = int(name.split("-")[1])
        expect = -(-res["nbytes"] // ClassicalIP(mtu).max_segment)
        if not res["done"]:
            errors.append(f"{name} did not complete")
        if res["segments"] != expect:
            errors.append(f"{name} delivered {res['segments']} of {expect} segments")
        if res["retransmits"]:
            errors.append(f"{name} retransmitted on a lossless path")
    return errors


# -- app_mix ----------------------------------------------------------------

APP_MIX_MBYTES = 8
APP_MIX_LOSS = 1e-3
APP_MIX_FRAMES = 25
APP_MIX_PINGS = 40


def app_mix(seed: int) -> Job:
    """The paper's concurrent mix on the shared backbone: bulk both ways
    between the supercomputers (8 MB windows), the 270 Mbit/s D1 video
    and a ping probe, with seeded wire loss Juelich -> Sankt Augustin."""
    rng = random.Random(seed)
    tb = build_testbed()
    net = tb.net
    ip = ClassicalIP(CLIP_MTU)
    pairs = [
        (tb.T3E_600, tb.SP2),
        (tb.SP2, tb.T3E_600),
        (tb.T3E_1200, tb.E500_GMD),
        (tb.E500_GMD, tb.T3E_1200),
    ]
    bulks = [
        BulkTransfer(
            net, src, dst, APP_MIX_MBYTES * MBYTE + rng.randrange(64 * KBYTE),
            ip=ip, window_bytes=8 * MBYTE, name=f"bulk-{src}",
        )
        for src, dst in pairs
    ]
    # Uncompressed D1: 270 Mbit/s at 25 frames/s.
    video = CbrFlow(
        net, tb.ONYX2_JUELICH, tb.ONYX2_GMD, frame_bytes=1_350_000,
        interval=0.04, n_frames=APP_MIX_FRAMES, ip=ip, name="d1-video",
    )
    ping = PingFlow(
        net, tb.FRONTEND, tb.E500_GMD, count=APP_MIX_PINGS, interval=0.025, name="ping"
    )
    tb.wan_link.set_loss(
        APP_MIX_LOSS, direction=tb.SW_JUELICH, rng=random.Random(rng.getrandbits(64))
    )

    def run() -> Outcome:
        results: dict[str, Any] = {}
        failed = 0
        for bt in bulks:
            ok = _run_transfer(net, bt)
            failed += not ok
            results[bt.name] = _bulk_results(bt, ok)
        net.env.run(until=video.done)
        net.env.run(until=ping.done)
        results["video"] = {
            "received": video.frames_received,
            "late": video.frames_late,
            "lost": video.frames_lost,
            "latency_mean_s": video.latency.mean,
        }
        results["ping"] = {
            "answered": ping.rtt.n, "lost": ping.lost, "rtt_mean_s": ping.rtt.mean,
        }
        results["wan_drops"] = dict(tb.wan_link.drop_reasons)
        results["sim_end_s"] = net.env.now
        pkts = link_packets(net)
        # The video and ping complete by their own deadlines; a stream or
        # series that delivered nothing at all counts as failed.
        failed += (video.frames_received == 0) + (ping.rtt.n == 0)
        return Outcome(
            len(bulks) + 2, failed, pkts, results, link_pkts=pkts,
            drops=add_drops({}, net),
        )

    return Job(run)


def check_app_mix(results: dict[str, Any]) -> list[str]:
    errors = []
    for name, res in results.items():
        if name.startswith("bulk-") and not res["done"]:
            errors.append(f"{name} did not complete")
    v = results["video"]
    if v["received"] + v["late"] + v["lost"] != APP_MIX_FRAMES:
        errors.append(f"video frames do not add up: {v}")
    p = results["ping"]
    if p["answered"] + p["lost"] != APP_MIX_PINGS:
        errors.append(f"pings do not add up: {p}")
    if set(results["wan_drops"]) - {"wire_loss"}:
        errors.append(f"unexpected WAN drop reasons {results['wan_drops']}")
    return errors


# -- fluid_day --------------------------------------------------------------

FLUID_SESSIONS = 500
FLUID_RATE = 50.0
#: Seed of the base day every run seed perturbs.
FLUID_BASE_SEED = 1999


def fluid_schedule(tb, seed: int) -> list[FlowArrival]:
    """A heavy-tailed day (Poisson sessions, bounded-Pareto sizes,
    diurnal curve) over all 30 directed cross-site host pairs: the fixed
    base day, each session shifted by up to 50 us and grown by up to
    1 KByte under ``seed``."""
    pairs = [(a, b) for a in tb.juelich_hosts for b in tb.gmd_hosts]
    pairs += [(b, a) for a, b in pairs]
    base = WorkloadGenerator(
        pairs,
        n_sessions=FLUID_SESSIONS,
        session_rate=FLUID_RATE,
        seed=FLUID_BASE_SEED,
        sizes=BoundedPareto(shape=1.3, lo=256 * KBYTE, hi=64 * MBYTE),
        diurnal_amplitude=0.3,
        diurnal_period=FLUID_SESSIONS / FLUID_RATE,
    ).schedule()
    rng = random.Random(seed)
    return [
        FlowArrival(
            at=a.at + rng.randrange(50) * 1e-6,
            name=a.name, src=a.src, dst=a.dst,
            nbytes=a.nbytes + rng.randrange(KBYTE),
        )
        for a in base
    ]


def schedule_digest(schedule: list[FlowArrival]) -> str:
    h = hashlib.sha256()
    for a in schedule:
        h.update(f"{round(a.at * 1e6)}|{a.name}|{a.src}|{a.dst}|{a.nbytes}\n".encode())
    return h.hexdigest()


def fluid_day(seed: int) -> Job:
    """The heavy-tailed day on the pure fluid engine: tens of flows
    active at once, no packets at all."""
    tb = build_testbed()
    t0 = time.perf_counter()
    schedule = fluid_schedule(tb, seed)
    schedule_s = time.perf_counter() - t0
    eng = FluidEngine(tb.net, ip=ClassicalIP(CLIP_MTU), window_bytes=8 * MBYTE)
    eng.offer(schedule)
    offered = sum(a.nbytes for a in schedule)

    def run() -> Outcome:
        eng.run()
        done = len(eng.completed)
        results = {
            "schedule_sha": schedule_digest(schedule),
            "offered_bytes": offered,
            "completed": done,
            "completed_bytes": sum(f.nbytes for f in eng.completed),
            "resolves": eng.resolves,
            "peak_active": eng.peak_active,
            "mean_active": eng.mean_active(),
            "sim_end_s": eng.now,
            "fct_s": eng.fct_stats(),
        }
        return Outcome(len(schedule), len(schedule) - done, done, results)

    return Job(run, schedule_s=schedule_s)


def check_fluid_day(results: dict[str, Any]) -> list[str]:
    errors = []
    if results["completed"] != FLUID_SESSIONS:
        errors.append(f"{results['completed']} of {FLUID_SESSIONS} sessions completed")
    if results["completed_bytes"] != results["offered_bytes"]:
        errors.append("completed bytes differ from offered bytes")
    if results["resolves"] > 2 * FLUID_SESSIONS:
        errors.append(f"{results['resolves']} re-solves for {FLUID_SESSIONS} sessions")
    return errors


# -- coupled_ranks ----------------------------------------------------------

COUPLING_ROUNDS = 500
COUPLING_ELEMS = 512


def coupled_ranks(seed: int) -> Job:
    """The MOM-2/IFS flux-coupler step (Allreduce + Bcast + barrier) as a
    2-rank hierarchical metampi job, T3E-600 <-> SP2 over the testbed."""
    base = np.random.default_rng(seed).integers(0, 1000, COUPLING_ELEMS, dtype=np.int64)
    mc = MetaMPI(testbed=build_testbed(), wallclock_timeout=120.0, strategy="hierarchical")
    mc.add_machine(CRAY_T3E_600, ranks=1)
    mc.add_machine(IBM_SP2, ranks=1)

    def main(comm):
        clock = time.perf_counter
        flux = base * (comm.rank + 1)
        coupled = np.zeros(COUPLING_ELEMS, dtype=np.int64)
        round_s = []
        checksum = 0
        for _ in range(COUPLING_ROUNDS):
            t0 = clock()
            comm.Allreduce(flux, coupled, op=SUM)
            correction = (
                coupled // comm.size if comm.rank == 0
                else np.zeros(COUPLING_ELEMS, dtype=np.int64)
            )
            comm.Bcast(correction, root=0)
            comm.barrier()
            round_s.append(clock() - t0)
            checksum += int(correction[-1])
        return checksum, round_s

    def run() -> Outcome:
        try:
            ranks = mc.run(main)
        except RankFailed:
            return Outcome(COUPLING_ROUNDS, COUPLING_ROUNDS, 0, {"failed": True})
        wan = sum(
            scopes["wan"]["messages"]
            for scopes in mc.runtime.traffic_summary().values()
            if "wan" in scopes
        )
        results = {
            "checksums": [r.value[0] for r in ranks],
            "expected_checksum": COUPLING_ROUNDS * int(3 * base[-1] // 2),
            "wan_messages": wan,
            "elapsed_s": mc.elapsed,
        }
        return Outcome(
            COUPLING_ROUNDS, 0, COUPLING_ROUNDS, results, round_s=ranks[0].value[1]
        )

    return Job(run)


def check_coupled_ranks(results: dict[str, Any]) -> list[str]:
    if results.get("failed"):
        return ["a rank failed"]
    want = results["expected_checksum"]
    if any(c != want for c in results["checksums"]):
        return [f"checksums {results['checksums']} != {want}"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Job]
    check: Callable[[dict[str, Any]], list[str]]
    #: what one ``work_per_s`` unit is
    unit: str
    #: results that do not depend on the seed, compared for every seed
    seed_free: tuple[str, ...] = ()
    #: significant digits float results are compared at across processes
    #: (0: exact)
    float_sig: int = 0
    #: the job hands off between threads (run.py pins it to one CPU)
    threaded: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wan_bulk", wan_bulk, check_wan_bulk, "link packet"),
        Workload("app_mix", app_mix, check_app_mix, "link packet"),
        # The fluid engine's max-min solve sums over sets of resource
        # names, so its floats move in the last place with the string
        # hash seed (PYTHONHASHSEED); within one process they are exact.
        Workload(
            "fluid_day", fluid_day, check_fluid_day, "fluid session", float_sig=12
        ),
        Workload(
            "coupled_ranks", coupled_ranks, check_coupled_ranks, "coupling round",
            seed_free=("wan_messages", "elapsed_s"), threaded=True,
        ),
    )
}
