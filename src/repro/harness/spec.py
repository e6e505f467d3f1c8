"""Hashable scenario specifications and parameter grids.

A sweep is declared as a :class:`ParameterGrid` — one axis per swept
parameter, mirroring the paper's measurement axes (MTU, loss rate, PE
count, …) — and expands into :class:`ScenarioSpec` points.  Specs are
frozen, hashable and canonically ordered, so the same logical scenario
always produces the same :meth:`~ScenarioSpec.content_hash` regardless
of the keyword order it was written in.  The content hash drives the
deterministic per-scenario seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterator, Mapping, Sequence

#: Parameter values must round-trip through JSON unchanged; containers
#: are frozen to tuples so specs stay hashable.
_SCALARS = (str, int, float, bool, type(None))


def _freeze(value: Any) -> Any:
    """Normalize a parameter value to a hashable, canonical form."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    raise TypeError(
        f"scenario parameters must be JSON scalars or sequences, "
        f"got {type(value).__name__}: {value!r}"
    )


def _thaw(value: Any) -> Any:
    """Canonical form -> JSON-serializable form (tuples become lists)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of a sweep: a scenario name plus frozen parameters.

    Build specs with :func:`make_spec` (or ``ScenarioSpec.make``) so the
    parameter tuple is canonically sorted; two specs with the same
    logical content always compare, hash and seed identically.
    """

    scenario: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, scenario: str, **params: Any) -> "ScenarioSpec":
        items = tuple(sorted((k, _freeze(v)) for k, v in params.items()))
        return cls(scenario=scenario, params=items)

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def get(self, key: str, default: Any = None) -> Any:
        return self.as_dict().get(key, default)

    def with_params(self, **overrides: Any) -> "ScenarioSpec":
        merged = self.as_dict()
        merged.update(overrides)
        return ScenarioSpec.make(self.scenario, **merged)

    def canonical_json(self) -> str:
        """The canonical serialization that the content hash covers."""
        payload = {
            "scenario": self.scenario,
            "params": [[k, _thaw(v)] for k, v in self.params],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical (scenario, params) content."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()

    @property
    def seed(self) -> int:
        """Deterministic 32-bit seed derived from the spec content."""
        return int(self.content_hash()[:8], 16)

    def label(self) -> str:
        """Compact human-readable identity, used in reports and metrics."""
        if not self.params:
            return self.scenario
        inner = ",".join(f"{k}={_thaw(v)}" for k, v in self.params)
        return f"{self.scenario}[{inner}]"


def make_spec(scenario: str, **params: Any) -> ScenarioSpec:
    """Convenience constructor: ``make_spec("demo", mtu=9180)``."""
    return ScenarioSpec.make(scenario, **params)


@dataclass(frozen=True)
class ParameterGrid:
    """A cross product of named parameter axes.

    >>> grid = ParameterGrid({"mtu": [9180, 65536], "loss": [0.0, 1e-3]})
    >>> len(grid)
    4
    >>> [s.label() for s in grid.specs("wan")][0]
    'wan[loss=0.0,mtu=9180]'

    Axes are expanded in sorted-name order so the spec sequence is
    deterministic; ``fixed`` parameters are merged into every point.
    """

    axes: Mapping[str, Sequence[Any]]
    fixed: Mapping[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def points(self) -> Iterator[dict[str, Any]]:
        names = sorted(self.axes)
        for combo in product(*(self.axes[n] for n in names)):
            point = dict(self.fixed)
            point.update(zip(names, combo))
            yield point

    def specs(self, scenario: str) -> list[ScenarioSpec]:
        return [ScenarioSpec.make(scenario, **p) for p in self.points()]
