"""Outside-in tracing: self-time wrappers around each layer's public calls.

:class:`Tracer` replaces methods at class level (and the ``max_min_rates``
name the fluid engine binds) with wrappers that keep a per-thread stack of
open spans.  A span's self time is its duration minus the time of the
spans it encloses, so each layer is charged only for its own code.  Counts
are kept at the same boundaries.  Spans are buffered in memory (up to
``span_limit``) and written out by :meth:`Tracer.write_spans` after the
run; nothing inside the simulator changes, so traced results are
bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Optional

_clock = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "stats", "counts")

    def __init__(self):
        self.stack: list[list] = []  # open spans: [child_ns, name]
        #: name -> [calls, self_ns, outermost calls, outermost ns, open]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}  # extra counters (claimed packets…)


class Tracer:
    """Install with :meth:`install`, read with :meth:`snapshot`, remove
    with :meth:`uninstall` (always, in a ``finally``)."""

    def __init__(self, span_limit: int = 50_000):
        self.span_limit = span_limit
        self.spans: list[tuple] = []
        self.pass_id = 0
        self.envs: list = []  # Environments created while installed
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- per-thread state ---------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def reset(self) -> None:
        """Zero every statistic (between passes)."""
        with self._lock:
            for st in self._states:
                st.stats.clear()
                st.counts.clear()
        self.envs.clear()

    def snapshot(self) -> tuple[dict[str, list], dict[str, int]]:
        """Per-name ``[calls, self_ns, outermost calls, outermost ns]``
        (a span is outermost when no span of the same name encloses it)
        and extra counters, merged over threads."""
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            for st in self._states:
                for name, rec in st.stats.items():
                    acc = stats.setdefault(name, [0, 0, 0, 0])
                    for i in range(4):
                        acc[i] += rec[i]
                for name, n in st.counts.items():
                    counts[name] = counts.get(name, 0) + n
        return stats, counts

    # -- wrapping -----------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[tuple, Any], tuple[str, int]]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, result)`` may
        return a ``(counter, amount)`` pair to add."""
        tracer = self
        tls = self._tls
        spans = self.spans
        limit = self.span_limit

        def traced(*args, **kwargs):
            st = getattr(tls, "st", None) or tracer._state()
            rec = st.stats.get(name)
            if rec is None:
                rec = st.stats[name] = [0, 0, 0, 0, 0]
            stack = st.stack
            frame = [0, name]
            stack.append(frame)
            rec[4] += 1  # open spans of this name
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt - frame[0]
                rec[4] -= 1
                if not rec[4]:
                    rec[2] += 1
                    rec[3] += dt
                if stack:
                    stack[-1][0] += dt
                if len(spans) < limit:
                    spans.append((
                        tracer.pass_id, name, stack[-1][1] if stack else None,
                        t0, t1, threading.get_ident(),
                    ))
            if count is not None:
                key, n = count(args, result)
                st.counts[key] = st.counts.get(key, 0) + n
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def patch(self, owner: Any, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` by its traced form."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Replace ``owner.attr`` by ``new`` (restored by uninstall)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str, meta: dict) -> None:
        """Write the buffered spans as JSON (times in ns)."""
        rows = [
            {"pass": p, "name": n, "parent": par, "start_ns": a, "end_ns": b, "thread": t}
            for p, n, par, a, b, t in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": rows}, fh)

    # -- the simulator's layers ---------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (see METRICS.md)."""
        import repro.fluid.engine as fluid_engine
        from repro.fluid import FluidEngine
        from repro.metampi.comm import Intracomm
        from repro.metampi.runtime import Runtime
        from repro.netsim.core import Gateway, Host, Link, Network, Switch
        from repro.netsim.sched import DrrScheduler
        from repro.sim import Environment

        try:
            env_init = Environment.__dict__["__init__"]

            def init(env, *args, **kwargs):
                env_init(env, *args, **kwargs)
                self.envs.append(env)

            self.replace(Environment, "__init__", init)
            self.patch(Environment, "run", "sim.run")
            self.patch(Link, "send", "link.send")
            self.patch(Host, "send", "host.send")
            self.patch(Host, "receive", "host.receive")
            self.patch(Gateway, "receive", "gateway.receive")
            self.patch(Switch, "receive", "switch.receive")
            self.patch(Network, "route_link", "route.lookup")
            self.patch(DrrScheduler, "put_nowait", "drr.put")
            self.patch(DrrScheduler, "dequeue", "drr.dequeue")
            self.patch(
                DrrScheduler, "claim", "drr.claim",
                count=lambda args, res: ("drr.claimed_pkts", len(res[1])),
            )
            self.patch(DrrScheduler, "commit_claim", "drr.commit")
            self.patch(
                DrrScheduler, "restore_front", "drr.restore",
                count=lambda args, res: ("drr.restored_pkts", len(args[2])),
            )
            register = Host.__dict__["register_sink"]

            def register_sink(host, flow, sink):
                register(host, flow, self.wrap("flows.sink", sink))

            self.replace(Host, "register_sink", register_sink)
            self.patch(FluidEngine, "advance_to", "fluid.advance")
            self.patch(fluid_engine, "max_min_rates", "maxmin")
            self.patch(Runtime, "post", "mpi.post")
            self.patch(Runtime, "collect", "mpi.collect")
            for op in ("Allreduce", "Bcast", "barrier"):
                self.patch(Intracomm, op, "mpi.collective")
        except BaseException:
            self.uninstall()
            raise
