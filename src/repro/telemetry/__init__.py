"""Live metrics, probes, and alerting for the reproduction.

The observability layer the real testbed ran on: the paper's Section-2
numbers (HiPPI 800 Mbit/s peak, >430 Mbit/s local TCP, >260 Mbit/s WAN)
are *measurements*, taken by staff who watched links, gateways and
application traffic continuously.  This package makes the simulated
testbed observable the same way:

* :mod:`repro.telemetry.metrics` — labeled :class:`Counter` /
  :class:`Gauge` / log-binned :class:`Histogram` series in a
  :class:`MetricsRegistry`; :class:`NullRegistry` is the zero-overhead
  default for uninstrumented runs.
* :mod:`repro.telemetry.timeseries` — a sim-clock :class:`Sampler`
  appending one row of every counter and gauge per tick, on a
  configurable interval.
* :mod:`repro.telemetry.probes` — ``instrument_*`` installers exposing
  the tallies of netsim links/gateways/flows, the metampi transport and
  the fluid engine as series, and hooking the metampi runtime and the
  FIRE pipeline/RT-client.
* :mod:`repro.telemetry.alerts` — threshold watchers with
  sustain/resolve hysteresis, evaluated on sampler ticks; they compose
  with :mod:`repro.netsim.faults` so tests can assert
  fault injected → alert fired → recovery observed.
* :mod:`repro.telemetry.export` — JSONL/CSV dumps plus the console
  "testbed weather map" snapshot table.
* :mod:`repro.telemetry.log` — level-filtered, silent-by-default
  logging for library code.
"""

from repro.telemetry.alerts import (
    Alert,
    AlertEvent,
    AlertManager,
    counter_nonzero,
    counter_rate_above,
    link_down,
)
from repro.telemetry.export import samples_to_jsonl, to_csv, to_jsonl, weather_map
from repro.telemetry.log import enable_console, get_logger, set_level
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.probes import (
    instrument_flow,
    instrument_network,
    instrument_pipeline,
    instrument_rt_client,
    instrument_runtime,
)
from repro.telemetry.timeseries import Sampler

__all__ = [
    "Alert",
    "AlertEvent",
    "AlertManager",
    "counter_nonzero",
    "counter_rate_above",
    "link_down",
    "samples_to_jsonl",
    "to_csv",
    "to_jsonl",
    "weather_map",
    "enable_console",
    "get_logger",
    "set_level",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "instrument_flow",
    "instrument_network",
    "instrument_pipeline",
    "instrument_rt_client",
    "instrument_runtime",
    "Sampler",
]
