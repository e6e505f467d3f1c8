"""Heavy-tailed open-loop workload generation for the fluid engine.

The data-grid follow-ons to the paper (KEK's HPSS Gigabit-WAN testbed,
PAMELA's parallel-stream GridFTP transfers) carry the workload shape
this module produces: sessions arrive as a Poisson process, each session
transfers a bounded-Pareto-sized file between a site pair, and the
arrival intensity follows a diurnal load curve.  The generator is
*open-loop*: arrivals do not react to network state, which is what makes
a "millions of users on the backbone" scenario a pure function of the
seed.

Determinism contract
--------------------

The schedule must be bit-identical for a given seed across serial and
process-pool harness runs and across Python versions (3.10–3.12 are in CI).
Two measures enforce that:

* only ``random.Random.random()`` draws are consumed (the Mersenne
  Twister stream is specified exactly); the exponential and
  bounded-Pareto transforms are explicit inverse CDFs, so no library
  distribution code is involved;
* arrival times are quantized to whole microseconds and sizes to whole
  bytes, so a last-ulp ``libm`` difference cannot leak into the
  schedule (``digest()`` hashes the quantized values).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.util.units import GBYTE, KBYTE


@dataclass(frozen=True)
class FlowArrival:
    """One scheduled transfer: at ``at`` seconds, ``nbytes`` from
    ``src`` to ``dst`` under the flow name ``name``."""

    at: float
    name: str
    src: str
    dst: str
    nbytes: int


@dataclass(frozen=True)
class BoundedPareto:
    """Bounded Pareto distribution on ``[lo, hi]`` with tail index
    ``shape`` — the canonical heavy-tailed file-size model (most flows
    are mice, most *bytes* ride in elephants)."""

    shape: float = 1.3
    lo: float = 256 * KBYTE
    hi: float = 1 * GBYTE

    def __post_init__(self):
        if self.shape <= 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not 0 < self.lo < self.hi:
            raise ValueError(f"need 0 < lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, u: float) -> float:
        """Inverse CDF at ``u`` in [0, 1)."""
        a = self.shape
        ratio = (self.lo / self.hi) ** a
        return self.lo * (1.0 - u * (1.0 - ratio)) ** (-1.0 / a)

    @property
    def mean(self) -> float:
        """Closed-form mean of the bounded distribution."""
        a = self.shape
        if a == 1.0:
            return math.log(self.hi / self.lo) / (1.0 / self.lo - 1.0 / self.hi)
        ratio = (self.lo / self.hi) ** a
        return (
            self.lo
            * (a / (a - 1.0))
            * (1.0 - (self.lo / self.hi) ** (a - 1.0))
            / (1.0 - ratio)
        )


def diurnal_factor(t: float, period: float, amplitude: float) -> float:
    """Relative load at time ``t`` of a sinusoidal day: 1 ± amplitude."""
    if period <= 0 or amplitude == 0.0:
        return 1.0
    return 1.0 + amplitude * math.sin(2.0 * math.pi * t / period)


#: Flow names are this prefix plus the six-digit session index.
NAME_PREFIX = "f"


class WorkloadGenerator:
    """Seeded Poisson-session / Pareto-size / diurnal-curve generator.

    ``pairs`` are the ``(src, dst)`` host pairs sessions choose among
    (uniformly); ``session_rate`` is the *base* arrival intensity in
    sessions per second, modulated by the diurnal curve via thinning
    (candidates are drawn at the peak rate and accepted with probability
    ``rate(t) / peak``, so the accepted process is an inhomogeneous
    Poisson process with the exact target intensity).
    """

    def __init__(
        self,
        pairs: Sequence[tuple[str, str]],
        n_sessions: int,
        session_rate: float,
        seed: int,
        sizes: Optional[BoundedPareto] = None,
        diurnal_amplitude: float = 0.0,
        diurnal_period: float = 86400.0,
    ):
        if not pairs:
            raise ValueError("need at least one (src, dst) pair")
        if n_sessions <= 0:
            raise ValueError(f"n_sessions must be positive, got {n_sessions}")
        if session_rate <= 0:
            raise ValueError(
                f"session_rate must be positive, got {session_rate}"
            )
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal amplitude must be in [0, 1), got {diurnal_amplitude}"
            )
        self.pairs = list(pairs)
        self.n_sessions = n_sessions
        self.session_rate = session_rate
        self.seed = seed
        self.sizes = sizes or BoundedPareto()
        self.diurnal_amplitude = diurnal_amplitude
        self.diurnal_period = diurnal_period
        self._schedule: Optional[list[FlowArrival]] = None

    @property
    def offered_load_bits(self) -> float:
        """Mean offered load in bit/s (base rate × mean size)."""
        return self.session_rate * self.sizes.mean * 8.0

    def schedule(self) -> list[FlowArrival]:
        """The full arrival schedule, generated once and cached."""
        if self._schedule is None:
            self._schedule = list(self._generate())
        return self._schedule

    def _generate(self) -> Iterable[FlowArrival]:
        rng = random.Random(self.seed)
        uniform = rng.random
        peak = self.session_rate * (1.0 + self.diurnal_amplitude)
        t = 0.0
        npairs = len(self.pairs)
        for i in range(self.n_sessions):
            while True:
                # Exponential inter-arrival at the peak rate...
                t += -math.log(1.0 - uniform()) / peak
                if self.diurnal_amplitude == 0.0:
                    break
                # ...thinned down to the diurnal intensity at t.
                factor = diurnal_factor(
                    t, self.diurnal_period, self.diurnal_amplitude
                )
                if uniform() * (1.0 + self.diurnal_amplitude) < factor:
                    break
            src, dst = self.pairs[int(uniform() * npairs) % npairs]
            nbytes = int(self.sizes.sample(uniform()))
            # Quantize to whole microseconds/bytes: the schedule content
            # must not depend on last-ulp libm behaviour.
            at = round(t * 1e6) / 1e6
            yield FlowArrival(
                at=at,
                name=f"{NAME_PREFIX}{i:06d}",
                src=src,
                dst=dst,
                nbytes=nbytes,
            )

    def digest(self) -> str:
        """SHA-256 over the quantized schedule — the determinism witness
        the harness baselines pin (same seed ⇒ same digest, everywhere).
        """
        h = hashlib.sha256()
        for a in self.schedule():
            h.update(
                f"{round(a.at * 1e6)}|{a.name}|{a.src}|{a.dst}|{a.nbytes}\n".encode()
            )
        return h.hexdigest()
