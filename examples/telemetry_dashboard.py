#!/usr/bin/env python
"""Live telemetry on the Gigabit Testbed West: the operator's view.

Runs the standard T3E-600 → SP2 bulk transfer while the OC-12 backbone
suffers a mid-transfer outage, with the full telemetry stack attached:

* link/gateway/flow series read from the simulator's own tallies
  (repro.telemetry.probes);
* a sim-clock sampler feeding ring-buffer time series;
* alert rules (WAN down, RTO spike) evaluated on the sampling cadence;
* the console "testbed weather map" the testbed staff would have taped
  next to the operations phone, plus JSONL/CSV exports.

Writes metrics.jsonl / metrics.csv / samples.jsonl to a temp directory
(override with REPRO_EXAMPLES_OUT; generated artifacts are not kept in
the repository).

Run:  python examples/telemetry_dashboard.py
"""

import os
import tempfile

from repro.netsim import BulkTransfer, ClassicalIP, FaultInjector, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.telemetry import (
    AlertManager,
    MetricsRegistry,
    Sampler,
    counter_nonzero,
    instrument_flow,
    instrument_network,
    link_down,
    samples_to_jsonl,
    to_csv,
    to_jsonl,
    weather_map,
)
from repro.util.units import MBYTE, pretty_rate

OUT = os.environ.get("REPRO_EXAMPLES_OUT") or os.path.join(
    tempfile.gettempdir(), "repro-examples"
)
OUTAGE_AT, OUTAGE_LEN = 0.2, 1.0


def main() -> None:
    tb = build_testbed()
    registry = MetricsRegistry()
    instrument_network(tb.net, registry)

    bt = BulkTransfer(
        tb.net, "t3e-600", "sp2", 40 * MBYTE, ip=ClassicalIP(TESTBED_MTU)
    )
    instrument_flow(bt, registry)

    alerts = AlertManager(tb.net.env)
    alerts.watch(
        "wan-down",
        link_down(tb.wan_link),
        on_fire=lambda a, t: print(f"  [{t:7.3f} s] ALERT  {a.name}"),
        on_resolve=lambda a, t: print(f"  [{t:7.3f} s] clear  {a.name}"),
    )
    alerts.watch(
        "rto-spike",
        counter_nonzero(registry.counter("netsim.flow.timeouts", flow=bt.name)),
    )
    sampler = Sampler(tb.net.env, registry, interval=0.05)
    sampler.add_listener(alerts.evaluate)
    sampler.start()

    FaultInjector(tb.net).link_down(tb.wan_link, at=OUTAGE_AT, duration=OUTAGE_LEN)

    print(f"-- 40 MByte T3E-600 -> SP2 with a {OUTAGE_LEN:.0f} s WAN outage "
          f"at t={OUTAGE_AT} s --")
    goodput = bt.run()
    sampler.stop()
    print(f"  transfer complete at t={tb.net.env.now:.3f} s: "
          f"{pretty_rate(goodput)} goodput, {bt.retransmits} retransmits, "
          f"{bt.timeouts} RTOs")

    print("\n-- alert history --")
    for name in ("wan-down", "rto-spike"):
        for event in alerts.history(name):
            print(f"  {event.time:7.3f} s  {name:<10} {event.kind}")

    print("\n-- " + weather_map(tb.net, title="testbed weather map") + "\n")

    buf = sampler.buffer(
        "netsim.link.utilization", link=tb.wan_link.name, direction="sw-juelich"
    )
    peak = max(buf.values()) if buf is not None else 0.0
    print(f"peak sampled WAN utilization: {peak:.0%} "
          f"({len(buf)} samples at {sampler.interval} s)")

    os.makedirs(OUT, exist_ok=True)
    n_series = to_jsonl(registry, os.path.join(OUT, "metrics.jsonl"),
                        now=tb.net.env.now)
    to_csv(registry, os.path.join(OUT, "metrics.csv"))
    n_samples = samples_to_jsonl(sampler, os.path.join(OUT, "samples.jsonl"))
    print(f"exported {n_series} series and {n_samples} samples to {OUT}/")


if __name__ == "__main__":
    main()
