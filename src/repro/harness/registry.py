"""The scenario registry.

Scenario functions take a :class:`~repro.harness.spec.ScenarioSpec` and
return a flat mapping of metric name to value (numbers or short
strings).  They are registered by name so a spec — which must stay
picklable and serializable — can reference its code by a string, and so
pool workers can resolve the function after a bare import.

Scenario functions must be deterministic given ``spec.seed``: the
harness asserts (in tests) that inline and process-pool execution
produce identical metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.harness.spec import ScenarioSpec

ScenarioFn = Callable[[ScenarioSpec], Mapping[str, Any]]

_SCENARIOS: dict[str, ScenarioFn] = {}


def scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator: register ``fn`` under ``name``.

    Registration is idempotent for the same function (module re-import)
    but refuses to silently shadow a different function.
    """

    def register(fn: ScenarioFn) -> ScenarioFn:
        existing = _SCENARIOS.get(name)
        if existing is not None and existing.__qualname__ != fn.__qualname__:
            raise ValueError(f"scenario {name!r} already registered")
        _SCENARIOS[name] = fn
        return fn

    return register


def _ensure_builtin_scenarios() -> None:
    # Deferred: scenarios.py imports this module for the decorator.
    import repro.harness.scenarios  # noqa: F401


def get_scenario(name: str) -> ScenarioFn:
    if name not in _SCENARIOS:
        _ensure_builtin_scenarios()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available()}"
        ) from None


def available() -> list[str]:
    _ensure_builtin_scenarios()
    return sorted(_SCENARIOS)
