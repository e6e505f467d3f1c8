"""Sweep execution: a process pool with an inline fallback and timeouts.

The runner takes a list of :class:`ScenarioSpec` points, fans them out
over a ``multiprocessing`` pool (or runs them inline in the parent),
and returns a :class:`SweepResult` whose flattened metrics feed the
baseline comparator and the JSONL exporter.

Scenario functions are deterministic given ``spec.seed``, so pooled and
inline execution produce identical metrics — the executors differ only
in wall-clock time.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.harness.registry import get_scenario
from repro.harness.spec import ScenarioSpec
from repro.util.jsonl import write_jsonl


@dataclass
class ScenarioResult:
    """Outcome of one sweep point."""

    spec: ScenarioSpec
    metrics: dict[str, Any] = field(default_factory=dict)
    elapsed: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario; the pool entry point (must stay module-level
    so it pickles under every start method)."""
    start = time.perf_counter()
    try:
        metrics = dict(get_scenario(spec.scenario)(spec))
        error = None
    except Exception:
        metrics, error = {}, traceback.format_exc(limit=8)
    return ScenarioResult(
        spec, metrics, elapsed=time.perf_counter() - start, error=error
    )


@dataclass
class SweepResult:
    """All scenario outcomes of one sweep and its wall time."""

    name: str
    results: list[ScenarioResult]
    wall_time: float

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def find(self, scenario: Optional[str] = None, **params: Any) -> ScenarioResult:
        """The unique result whose spec matches ``scenario`` and the
        given parameter subset; raises ``KeyError`` if none matches."""
        for r in self.results:
            if scenario is not None and r.spec.scenario != scenario:
                continue
            d = r.spec.as_dict()
            if all(d.get(k) == v for k, v in params.items()):
                return r
        raise KeyError(f"no result matching {scenario!r} {params!r}")

    def metrics(self) -> dict[str, Any]:
        """Flatten to ``{"<scenario label>/<metric>": value}`` — the
        namespace the baseline files are written in."""
        flat: dict[str, Any] = {}
        for r in self.results:
            label = r.spec.label()
            for key, value in r.metrics.items():
                flat[f"{label}/{key}"] = value
        return flat

    def rows(self) -> list[dict[str, Any]]:
        """Per-metric rows in the telemetry JSONL shape: one object per
        series with ``kind``/``name``/``labels``/``value`` keys, so sweep
        exports land in the same artifact schema as
        :func:`repro.telemetry.export.to_jsonl`."""
        rows = []
        for r in self.results:
            labels = {str(k): v for k, v in r.spec.params}
            labels["scenario"] = r.spec.scenario
            labels["sweep"] = self.name
            for key, value in sorted(r.metrics.items()):
                rows.append(
                    {
                        "kind": "sweep",
                        "name": key,
                        "labels": labels,
                        "value": value,
                        "elapsed_s": round(r.elapsed, 6),
                    }
                )
        return rows

    def to_jsonl(self, path: str) -> int:
        """Write :meth:`rows` as JSONL; returns the row count."""
        return write_jsonl(path, self.rows())

    def format_table(self) -> str:
        lines = [
            f"sweep {self.name}: {len(self.results)} scenarios, "
            f"{self.failed} failed, {self.wall_time:.2f} s wall",
        ]
        for r in self.results:
            state = f"{r.elapsed:6.2f}s"
            if not r.ok:
                first = r.error.strip().splitlines()[-1] if r.error else "?"
                lines.append(f"  FAIL {r.spec.label()}  [{state}]  {first}")
                continue
            shown = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(r.metrics.items())
            )
            lines.append(f"  ok   {r.spec.label()}  [{state}]  {shown}")
        return "\n".join(lines)


class SweepRunner:
    """Execute sweeps, pooled or inline.

    ``processes`` defaults to the machine's CPU count (capped at the
    number of scenarios); one process — or a single scenario, or a pool
    start-up failure — runs inline in the parent instead.  ``timeout``
    bounds each scenario's result wait in process-pool mode; a blown
    deadline records a ``timeout`` error for that scenario and the pool
    is torn down afterwards rather than joined, so a hung worker cannot
    wedge the sweep.
    """

    def __init__(
        self, processes: Optional[int] = None, timeout: Optional[float] = None
    ) -> None:
        self.processes = processes
        self.timeout = timeout

    def run(
        self, specs: Sequence[ScenarioSpec], name: str = "sweep"
    ) -> SweepResult:
        start = time.perf_counter()
        nproc = min(self.processes or multiprocessing.cpu_count(), len(specs))
        if nproc <= 1:
            results = self._run_serial(specs)
        else:
            results = self._run_pool(specs, nproc)
        return SweepResult(
            name=name, results=results, wall_time=time.perf_counter() - start
        )

    def _run_serial(self, specs: Sequence[ScenarioSpec]) -> list[ScenarioResult]:
        return [_execute(spec) for spec in specs]

    def _run_pool(
        self, specs: Sequence[ScenarioSpec], nproc: int
    ) -> list[ScenarioResult]:
        try:
            pool = multiprocessing.Pool(processes=nproc)
        except (OSError, ValueError):  # pragma: no cover - env dependent
            return self._run_serial(specs)

        out = []
        # Pool.__exit__ terminates (not joins) the pool, which is what
        # we want after a timeout: hung workers are killed, not awaited.
        with pool:
            handles = [(spec, pool.apply_async(_execute, (spec,))) for spec in specs]
            for spec, handle in handles:
                try:
                    out.append(handle.get(self.timeout))
                except multiprocessing.TimeoutError:
                    out.append(
                        ScenarioResult(
                            spec=spec,
                            error=f"timeout after {self.timeout}s",
                            elapsed=self.timeout or 0.0,
                        )
                    )
                except Exception as exc:  # worker died (e.g. OOM-kill)
                    out.append(ScenarioResult(spec=spec, error=repr(exc)))
        return out
