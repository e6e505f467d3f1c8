"""Sweep execution: process pool with serial fallback and timeouts.

The runner takes a list of :class:`ScenarioSpec` points, resolves each
against the :class:`ResultCache`, fans the misses out over a
``multiprocessing`` pool (or runs them inline in serial mode), and
returns a :class:`SweepResult` whose flattened metrics feed the
baseline comparator and the JSONL exporter.

Scenario functions are deterministic given ``spec.seed``, so process-pool and
serial execution produce identical metrics — the executors differ only
in wall-clock time.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.harness.cache import ResultCache
from repro.harness.registry import get_scenario
from repro.harness.spec import ScenarioSpec

#: Serial fallback trigger for constrained environments.
SERIAL_ENV = "REPRO_SWEEP_SERIAL"


def _execute(spec: ScenarioSpec) -> dict[str, Any]:
    """Run one scenario; the pool entry point (must stay module-level
    so it pickles under every start method)."""
    start = time.perf_counter()
    try:
        metrics = dict(get_scenario(spec.scenario)(spec))
        return {
            "metrics": metrics,
            "elapsed": time.perf_counter() - start,
            "error": None,
        }
    except Exception:
        return {
            "metrics": {},
            "elapsed": time.perf_counter() - start,
            "error": traceback.format_exc(limit=8),
        }


@dataclass
class ScenarioResult:
    """Outcome of one sweep point."""

    spec: ScenarioSpec
    metrics: dict[str, Any] = field(default_factory=dict)
    elapsed: float = 0.0
    cached: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All scenario outcomes of one sweep, plus execution accounting."""

    name: str
    results: list[ScenarioResult]
    wall_time: float
    executed: int
    from_cache: int

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

    def summary(self) -> dict[str, Any]:
        return {
            "sweep": self.name,
            "scenarios": len(self.results),
            "executed": self.executed,
            "from_cache": self.from_cache,
            "failed": self.failed,
            "wall_time_s": round(self.wall_time, 4),
            "metrics": self.metrics(),
        }

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
                        "cached": r.cached,
                        "elapsed_s": round(r.elapsed, 6),
                    }
                )
        return rows

    def to_jsonl(self, path: str) -> int:
        """Append-free JSONL dump; returns the row count."""
        import json

        rows = self.rows()
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)

    def format_table(self) -> str:
        lines = [
            f"sweep {self.name}: {len(self.results)} scenarios, "
            f"{self.executed} executed, {self.from_cache} cached, "
            f"{self.failed} failed, {self.wall_time:.2f} s wall",
        ]
        for r in self.results:
            state = "cache" if r.cached else f"{r.elapsed:6.2f}s"
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
    """Execute sweeps against an optional result cache.

    ``processes`` defaults to the machine's CPU count (capped at the
    number of pending scenarios); ``serial=True`` — or a single CPU, or
    ``REPRO_SWEEP_SERIAL=1``, or a pool start-up failure — runs inline
    in the parent instead.  ``timeout`` bounds each scenario's result
    wait in process-pool mode; a blown deadline records a ``timeout`` error
    for that scenario and the pool is torn down afterwards rather than
    joined, so a hung worker cannot wedge the sweep.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        serial: bool = False,
    ) -> None:
        self.processes = processes
        self.timeout = timeout
        self.cache = cache
        self.serial = serial or bool(os.environ.get(SERIAL_ENV))

    def run(
        self, specs: Sequence[ScenarioSpec], name: str = "sweep"
    ) -> SweepResult:
        start = time.perf_counter()
        results: dict[int, ScenarioResult] = {}
        pending: list[tuple[int, ScenarioSpec]] = []

        for i, spec in enumerate(specs):
            payload = self.cache.get(spec) if self.cache is not None else None
            if payload is not None:
                results[i] = ScenarioResult(
                    spec=spec,
                    metrics=payload["metrics"],
                    elapsed=payload.get("elapsed", 0.0),
                    cached=True,
                )
            else:
                pending.append((i, spec))

        nproc = self._effective_processes(len(pending))
        if pending:
            if nproc <= 1:
                executed = self._run_serial(pending)
            else:
                executed = self._run_pool(pending, nproc)
            results.update(executed)

        if self.cache is not None:
            for i, _ in pending:
                r = results[i]
                if r.ok:
                    self.cache.put(r.spec, r.metrics, r.elapsed)

        ordered = [results[i] for i in range(len(specs))]
        return SweepResult(
            name=name,
            results=ordered,
            wall_time=time.perf_counter() - start,
            executed=len(pending),
            from_cache=len(specs) - len(pending),
        )

    def _effective_processes(self, n_pending: int) -> int:
        if self.serial or n_pending <= 1:
            return 1
        limit = self.processes or multiprocessing.cpu_count()
        return max(1, min(limit, n_pending))

    def _run_serial(
        self, pending: Sequence[tuple[int, ScenarioSpec]]
    ) -> dict[int, ScenarioResult]:
        out = {}
        for i, spec in pending:
            payload = _execute(spec)
            out[i] = ScenarioResult(
                spec=spec,
                metrics=payload["metrics"],
                elapsed=payload["elapsed"],
                error=payload["error"],
            )
        return out

    def _run_pool(
        self, pending: Sequence[tuple[int, ScenarioSpec]], nproc: int
    ) -> dict[int, ScenarioResult]:
        try:
            pool = multiprocessing.Pool(processes=nproc)
        except (OSError, ValueError):  # pragma: no cover - env dependent
            return self._run_serial(pending)

        out = {}
        # Pool.__exit__ terminates (not joins) the pool, which is what
        # we want after a timeout: hung workers are killed, not awaited.
        with pool:
            handles = [
                (i, spec, pool.apply_async(_execute, (spec,)))
                for i, spec in pending
            ]
            for i, spec, handle in handles:
                try:
                    payload = handle.get(self.timeout)
                except multiprocessing.TimeoutError:
                    out[i] = ScenarioResult(
                        spec=spec,
                        error=f"timeout after {self.timeout}s",
                        elapsed=self.timeout or 0.0,
                    )
                    continue
                except Exception as exc:  # worker died (e.g. OOM-kill)
                    out[i] = ScenarioResult(spec=spec, error=repr(exc))
                    continue
                out[i] = ScenarioResult(
                    spec=spec,
                    metrics=payload["metrics"],
                    elapsed=payload["elapsed"],
                    error=payload["error"],
                )
        return out
