"""Exporters: JSONL/CSV metric dumps and the console "weather map".

The real Gigabit Testbed West staff watched per-link state on a wall
display; :func:`weather_map` is the console equivalent — one row per
link direction with rate, utilization, queue depth and loss counters,
plus a gateway section.  The JSONL/CSV dumps are the machine-readable
side, consumed by the CI benchmark artifact and any later dashboards.
"""

from __future__ import annotations

import csv
from typing import Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import Sampler
from repro.util.jsonl import write_jsonl


def _format_labels(labels: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(labels.items()))


def to_jsonl(registry: MetricsRegistry, path: str, now: Optional[float] = None) -> int:
    """Write one JSON object per series; returns the row count."""
    return write_jsonl(path, registry.snapshot(now=now))


_CSV_FIELDS = [
    "kind", "name", "labels", "value",
    "count", "sum", "min", "max", "mean", "p50", "p90", "p99",
]


def to_csv(registry: MetricsRegistry, path: str, now: Optional[float] = None) -> int:
    """Write all series as CSV (histograms spread over summary columns)."""
    rows = registry.snapshot(now=now)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["labels"] = _format_labels(row["labels"])
            writer.writerow(out)
    return len(rows)


def samples_to_jsonl(sampler: Sampler, path: str) -> int:
    """Write every kept sample as one JSON line, series by series in
    first-seen order, oldest first; returns the count."""
    return write_jsonl(
        path,
        (
            {"t": t, "name": name, "labels": dict(label_key), "value": v}
            for (name, label_key), buf in sampler.buffers().items()
            for t, v in buf
        ),
    )


def weather_map(net, title: str = "testbed weather map") -> str:
    """A point-in-time console table of per-link (and gateway) state.

    Needs only the :class:`~repro.netsim.core.Network` — all counters
    live on the links/gateways themselves — so it works with or without
    an instrumented registry.
    """
    from repro.netsim.core import Gateway  # local import: no cycle at load

    now = net.env.now
    lines = [f"{title} @ t={now:.3f}s"]
    header = (
        f"{'link':<28} {'dir':<18} {'Mbit/s':>8} {'util%':>6} "
        f"{'queue':>5} {'pkts':>7} {'drops':>6} {'lost':>5}  state"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for link in net.links.values():
        for end in (link.a, link.b):
            d = end.name
            rate = link.tx_bytes[d] * 8 / now / 1e6 if now > 0 else 0.0
            util = 100.0 * link.utilization(d)
            lines.append(
                f"{link.name:<28} {d + ' ->':<18} {rate:>8.1f} {util:>6.1f} "
                f"{len(link._dir[d].q):>5d} {link.tx_packets[d]:>7d} "
                f"{link.drops[d]:>6d} {link.lost[d]:>5d}  "
                f"{'UP' if link.up else 'DOWN'}"
            )
    gateways = [n for n in net.nodes.values() if isinstance(n, Gateway)]
    if gateways:
        lines.append("")
        gw_header = (
            f"{'gateway':<28} {'forwarded':>10} {'dropped':>8} "
            f"{'queue':>5}  state"
        )
        lines.append(gw_header)
        lines.append("-" * len(gw_header))
        for gw in gateways:
            lines.append(
                f"{gw.name:<28} {gw.forwarded:>10d} {gw.dropped:>8d} "
                f"{len(gw._queue):>5d}  {'UP' if gw.up else 'DOWN'}"
            )
    if net.no_route_drops:
        lines.append(f"\nno-route drops: {net.no_route_drops}")
    return "\n".join(lines)
