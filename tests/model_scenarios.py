"""The inputs pinned by ``tests/model_goldens.json``.

Timing models that run on their own clocks rather than through the
delivery tap: the FIRE pipeline in both modes, the cell-exact ATM link,
and a telemetry sampler watching a faulted WAN.  Each ``run_*`` function
returns a JSON-ready dict of counts and sha256 digests over exact float
values (``float.hex``), so a change in any timestamp, however small,
moves a digest.  :data:`INPUTS` names every pinned input; regenerate the
goldens, after a change that is meant to move results, with::

    PYTHONPATH=src python -m tests.model_scenarios > tests/model_goldens.json

and say in the change log which inputs moved and why.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from repro.fire.pipeline import FirePipeline, PipelineConfig
from repro.netsim import BulkTransfer, CbrFlow, ClassicalIP, build_testbed
from repro.netsim.atm import AAL5Frame
from repro.netsim.cellsim import (
    CellLink,
    interleaved_vc_transfer,
    transfer_time_cell_exact,
)
from repro.netsim.faults import FaultInjector
from repro.netsim.ip import TESTBED_MTU
from repro.sim import Environment
from repro.telemetry import (
    MetricsRegistry,
    Sampler,
    instrument_flow,
    instrument_network,
)


def _digest(rows) -> str:
    """sha256 over the rows' ``repr``, floats written exactly."""
    h = hashlib.sha256()
    for row in rows:
        h.update(
            repr(tuple(v.hex() if isinstance(v, float) else v for v in row)).encode()
        )
    return h.hexdigest()


# -- the FIRE pipeline ------------------------------------------------------------

#: Pipeline configurations: the paper's default session, a slow T3E
#: partition whose client lags the scanner and skips scans, and a short
#: TR that backs images up in every pipelined stage.
FIRE_CONFIGS = {
    "default": {},
    "lagging": {"pes": 16, "n_images": 12, "repetition_time": 2.0},
    "backlog": {
        "pes": 64,
        "n_images": 16,
        "repetition_time": 0.7,
        "comm_time": 1.3,
    },
}


def run_fire(config: str, pipelined: bool) -> dict:
    """Every image record of one FIRE session."""
    cfg = PipelineConfig(pipelined=pipelined, **FIRE_CONFIGS[config])
    report = FirePipeline(cfg).run()
    rows = [
        (r.index, r.scan_time, r.server_time, r.t3e_start, r.t3e_end, r.display_time)
        for r in report.records
    ]
    return {"count": len(rows), "digest": _digest(rows)}


# -- the cell-exact ATM link ------------------------------------------------------

def run_cell_exact() -> dict:
    """Last-cell arrival of single PDUs over a grid of sizes, rates and
    propagation delays, and of interleaved VCs."""
    single = [
        (payload, rate, prop, transfer_time_cell_exact(payload, rate, prop))
        for payload in (1, 40, 1000, 9180, 65535)
        for rate in (149.76e6, 599.04e6)
        for prop in (0.0, 1e-3)
    ]
    interleaved = []
    for payloads, rate in (
        ((4800, 4800), 149.76e6),
        ((9180, 1500, 65535), 149.76e6),
        ((40, 1000, 9180, 333), 599.04e6),
    ):
        times = sorted(interleaved_vc_transfer(list(payloads), rate).items())
        interleaved.append((rate, *payloads, *(x for pair in times for x in pair)))
    return {
        "single": _digest(single),
        "interleaved": _digest(interleaved),
        "count": len(single) + len(interleaved),
    }


def run_cell_log() -> dict:
    """Every cell arrival of three frames on two VCs sent in bursts at
    three instants over a link with propagation delay."""
    env = Environment()
    link = CellLink(env, rate=149.76e6, propagation=2e-4)
    frames = [
        (0.0, AAL5Frame(payload_bytes=2000, vci=32, pdu_id=0)),
        (5e-5, AAL5Frame(payload_bytes=700, vci=33, pdu_id=1)),
        (1e-3, AAL5Frame(payload_bytes=9180, vci=32, pdu_id=2)),
    ]
    for at, frame in frames:
        env.call_at(at, link.send_frame, frame)
    env.run()
    rows = [
        (log.time, log.cell.vci, log.cell.seq, log.cell.pdu_id)
        for log in link.delivered
    ]
    return {
        "count": len(rows),
        "digest": _digest(rows),
        "complete": _digest(sorted(link.pdu_complete_times.items())),
    }


# -- a sampler watching a faulted WAN ----------------------------------------------

def run_sampled_faults() -> dict:
    """A CBR stream and a reverse bulk across the WAN while the link goes
    down for 8 ms and a loss window opens; a 2 ms sampler records every
    link counter and flow gauge.  Pins each tick time and every sampled
    value."""
    tb = build_testbed()
    net = tb.net
    ip = ClassicalIP(TESTBED_MTU)
    cbr = CbrFlow(
        net, "sp2", "t3e-600", frame_bytes=128 * 1024, interval=2e-3,
        n_frames=30, ip=ip, name="video", drain_timeout=0.5,
    )
    bulk = BulkTransfer(
        net, "t3e-1200", "e500-gmd", 1024 * 1024, ip=ip, name="bulk"
    )
    faults = FaultInjector(net, seed=3)
    faults.link_down(tb.wan_link, at=0.02, duration=8e-3)
    faults.random_loss(tb.wan_link, 0.05, start=0.035, duration=0.01)
    registry = MetricsRegistry()
    instrument_network(net, registry)
    instrument_flow(bulk, registry)
    sampler = Sampler(net.env, registry, interval=2e-3).start()
    env = net.env
    env.run(until=env.all_of([cbr.done, bulk.done]))
    sampler.stop()
    buffers = sorted(sampler.buffers().items())
    ticks = max(([t for t, _ in buf] for _, buf in buffers), key=len)
    return {
        "samples": sampler.samples_taken,
        "ticks": _digest((t,) for t in ticks),
        "values": _digest(
            (repr(key), *(x for tv in buf for x in tv)) for key, buf in buffers
        ),
        "series": len(buffers),
        "fault_log": _digest(faults.log),
        "scalars": _digest(
            [
                (env.now, cbr.frames_received, cbr.frames_lost),
                (bulk.throughput, bulk.retransmits, bulk.timeouts),
            ]
        ),
    }


INPUTS: dict[str, Callable[[], dict]] = {
    **{
        f"fire_{mode}_{config}": (
            lambda config=config, pipelined=(mode == "pipelined"): run_fire(
                config, pipelined
            )
        )
        for config in FIRE_CONFIGS
        for mode in ("sequential", "pipelined")
    },
    "cell_exact": run_cell_exact,
    "cell_log": run_cell_log,
    "sampled_faults": run_sampled_faults,
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
