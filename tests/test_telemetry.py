"""Unit tests for repro.telemetry: metrics, sampler, alerts, export, log."""

import csv
import json
import logging
import math

import pytest

from repro.sim import Environment
from repro.telemetry import (
    AlertManager,
    MetricsRegistry,
    NullRegistry,
    Sampler,
    counter_rate_above,
    get_logger,
    samples_to_jsonl,
    to_csv,
    to_jsonl,
)
from repro.telemetry.log import disable_console, enable_console


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("pkts", link="wan")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("pkts")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("drops", link="wan", reason="queue_full")
        b = reg.counter("drops", link="wan", reason="link_down")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert reg.total("drops") == 5

    def test_same_labels_deduplicate(self):
        reg = MetricsRegistry()
        # label order must not matter
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestGauge:
    def test_explicit_set(self):
        g = MetricsRegistry().gauge("util")
        g.set(0.7)
        assert g.value == 0.7

    def test_callback_is_lazy(self):
        calls = []

        def read():
            calls.append(1)
            return 42.0

        g = MetricsRegistry().gauge("depth")
        g.set_function(read)
        assert calls == []  # nothing evaluated until someone looks
        assert g.value == 42.0
        assert len(calls) == 1


class TestHistogram:
    def test_count_sum_min_max(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.5, 1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(7.5)
        assert h.min == 0.5
        assert h.max == 4.0
        assert h.mean == pytest.approx(7.5 / 4)

    def test_quantiles_bracket_truth(self):
        h = MetricsRegistry().histogram("lat")
        values = [0.001 * (i + 1) for i in range(1000)]
        for v in values:
            h.observe(v)
        # Log-binned: within a factor of 2 above the true quantile.
        for q in (0.5, 0.9, 0.99):
            true = values[int(q * len(values)) - 1]
            est = h.quantile(q)
            assert true <= est <= 2 * true + 1e-12

    def test_extremes_exact(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.3, 7.0, 2.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.3
        assert h.quantile(1.0) == 7.0

    def test_underflow_bin(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.quantile(0.5) <= 0.0

    def test_empty_quantile(self):
        assert MetricsRegistry().histogram("lat").quantile(0.5) == 0.0


class TestNullRegistry:
    def test_disabled_and_shared_noops(self):
        reg = NullRegistry()
        assert reg.enabled is False
        c1 = reg.counter("a", x="1")
        c2 = reg.counter("b")
        assert c1 is c2  # shared singleton
        c1.inc(100)
        assert c1.value == 0
        reg.gauge("g").set(5)
        assert reg.gauge("g").value == 0
        reg.histogram("h").observe(3)
        assert reg.histogram("h").count == 0

    def test_snapshot_empty(self):
        reg = NullRegistry()
        reg.counter("a").inc()
        assert reg.snapshot() == []
        assert len(reg) == 0


class TestSampler:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": -1.0},
            {"interval": math.nan},
            {"interval": math.inf},
            {"capacity": 0},
            {"capacity": -3},
            {"capacity": 2.5},
            {"capacity": 3.0},
        ],
    )
    def test_bad_arguments_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError):
            Sampler(Environment(), MetricsRegistry(), **kwargs)

    def test_capacity_keeps_the_newest_ticks_of_every_series(self):
        """Rows evict oldest first; a series created after eviction began
        holds only the ticks it was sampled on, and every series at most
        the newest ``capacity``."""
        env = Environment()
        reg = MetricsRegistry()
        early = reg.gauge("early")
        env.call_at(4.5, lambda: reg.counter("late").inc(7))
        sampler = Sampler(env, reg, interval=1.0, capacity=3).start()
        env.run(until=5.5)
        assert sampler.buffer("late") == [(5.0, 7.0)]
        assert [t for t, _ in sampler.buffer("early")] == [3.0, 4.0, 5.0]
        early.set(42.0)
        env.run(until=7.5)
        sampler.stop()
        assert [t for t, _ in sampler.buffer("late")] == [5.0, 6.0, 7.0]
        assert [t for t, _ in sampler.buffer("early")] == [5.0, 6.0, 7.0]
        # The newest sample is last.
        assert sampler.buffer("early")[-1] == (7.0, 42.0)
        assert list(sampler.buffers()) == [("early", ()), ("late", ())]

    def test_histograms_and_unknown_series_are_not_sampled(self):
        env = Environment()
        reg = MetricsRegistry()
        reg.histogram("latency", stage="recon").observe(3.0)
        reg.gauge("level").set(1.0)
        sampler = Sampler(env, reg, interval=1.0).start()
        env.run(until=1.5)
        sampler.stop()
        assert sampler.buffer("latency", stage="recon") is None
        assert sampler.buffer("missing") is None
        assert sampler.buffer("level") == [(0.0, 1.0), (1.0, 1.0)]
        assert list(sampler.buffers()) == [("level", ())]

    def test_periodic_sampling_on_sim_clock(self):
        env = Environment()
        reg = MetricsRegistry()
        g = reg.gauge("level")

        def source(i):
            g.set(i)
            if i < 9:
                env.call_later(1.0, source, i + 1)

        env.call_later(0.0, source, 0)
        sampler = Sampler(env, reg, interval=1.0).start()
        env.run(until=5.5)
        sampler.stop()
        env.run()
        buf = sampler.buffer("level")
        assert buf is not None
        # Ticks at t=0,1,..,5 read the value set at that instant.
        assert buf == [(float(t), float(t)) for t in range(6)]

    def test_stop_lets_queue_drain(self):
        env = Environment()
        sampler = Sampler(env, MetricsRegistry(), interval=0.1).start()
        env.run(until=0.35)
        sampler.stop()
        env.run()  # must terminate: no further sampler events scheduled
        assert env.peek() == math.inf

    def test_stop_then_start_runs_one_sampling_loop(self):
        env = Environment()
        sampler = Sampler(env, MetricsRegistry(), interval=1.0)
        ticks = []
        sampler.add_listener(ticks.append)
        sampler.start()
        env.run(until=0.5)
        sampler.stop()
        sampler.start()
        env.run(until=3.5)
        sampler.stop()
        env.run()
        assert ticks == [0.0, 0.5, 1.5, 2.5, 3.5]

    def test_listener_can_stop_or_restart_the_sampler(self):
        env = Environment()
        sampler = Sampler(env, MetricsRegistry(), interval=1.0)
        ticks = []

        def listener(now):
            ticks.append(now)
            if len(ticks) == 3:
                sampler.stop()
                sampler.start()  # restarts now: one tick at 2.0 again
            elif len(ticks) == 6:
                sampler.stop()

        sampler.add_listener(listener)
        sampler.start()
        env.run()
        assert ticks == [0.0, 1.0, 2.0, 2.0, 3.0, 4.0]

    def test_listener_called_each_tick(self):
        env = Environment()
        sampler = Sampler(env, MetricsRegistry(), interval=1.0)
        ticks = []
        sampler.add_listener(ticks.append)
        sampler.start()
        env.run(until=3.5)
        sampler.stop()
        env.run()
        assert ticks == [0.0, 1.0, 2.0, 3.0]

    def test_series_created_mid_run_picked_up(self):
        env = Environment()
        reg = MetricsRegistry()
        env.call_later(2.0, lambda: reg.counter("late").inc())
        sampler = Sampler(env, reg, interval=1.0).start()
        env.run(until=4.5)
        sampler.stop()
        env.run()
        buf = sampler.buffer("late")
        assert buf[0][0] >= 2.0


class TestAlerts:
    def _manager(self):
        return AlertManager(Environment())

    def test_fire_and_resolve_immediately(self):
        mgr = self._manager()
        breached = {"v": False}
        alert = mgr.watch("x", lambda now: breached["v"])
        mgr.evaluate(now=1.0)
        assert not alert.firing
        breached["v"] = True
        mgr.evaluate(now=2.0)
        assert alert.firing and alert.fired_at == 2.0
        breached["v"] = False
        mgr.evaluate(now=3.0)
        assert not alert.firing and alert.resolved_at == 3.0
        assert [e.kind for e in mgr.history("x")] == ["fired", "resolved"]

    def test_sustain_suppresses_blips(self):
        mgr = self._manager()
        breached = {"v": True}
        alert = mgr.watch("x", lambda now: breached["v"], sustain=1.0)
        mgr.evaluate(now=0.0)
        assert alert.state == "pending"
        breached["v"] = False
        mgr.evaluate(now=0.5)  # blip over before sustain elapsed
        assert alert.state == "ok"
        breached["v"] = True
        mgr.evaluate(now=1.0)
        mgr.evaluate(now=2.0)
        assert alert.firing
        assert alert.fired_at == 2.0

    def test_resolve_hysteresis(self):
        mgr = self._manager()
        breached = {"v": True}
        alert = mgr.watch("x", lambda now: breached["v"], resolve_after=1.0)
        mgr.evaluate(now=0.0)
        assert alert.firing
        breached["v"] = False
        mgr.evaluate(now=0.5)
        assert alert.firing  # not clear long enough yet
        mgr.evaluate(now=1.6)
        assert not alert.firing

    def test_callbacks_invoked(self):
        mgr = self._manager()
        seen = []
        mgr.watch(
            "x",
            lambda now: now < 2.0,
            on_fire=lambda a, t: seen.append(("fire", t)),
            on_resolve=lambda a, t: seen.append(("resolve", t)),
        )
        mgr.evaluate(now=1.0)
        mgr.evaluate(now=3.0)
        assert seen == [("fire", 1.0), ("resolve", 3.0)]

    def test_counter_rate_predicate(self):
        reg = MetricsRegistry()
        c = reg.counter("rexmt")
        pred = counter_rate_above(c, threshold=5.0)
        assert pred(0.0) is False  # no baseline yet
        c.inc(10)
        assert pred(1.0) is True  # 10/s > 5/s
        assert pred(2.0) is False  # no growth this window

    def test_firing_list(self):
        mgr = self._manager()
        mgr.watch("a", lambda now: True)
        mgr.watch("b", lambda now: False)
        mgr.evaluate(now=0.0)
        assert mgr.firing == ["a"]


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("pkts", link="wan").inc(7)
        reg.gauge("util", link="wan").set(0.5)
        h = reg.histogram("lat", stage="t3e")
        h.observe(1.0)
        h.observe(2.0)
        return reg

    def test_jsonl_roundtrip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "metrics.jsonl"
        n = to_jsonl(reg, str(path), now=1.5)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == n == 3
        by_name = {r["name"]: r for r in rows}
        assert by_name["pkts"]["value"] == 7
        assert by_name["pkts"]["labels"] == {"link": "wan"}
        assert by_name["pkts"]["t"] == 1.5
        assert by_name["lat"]["count"] == 2
        assert by_name["lat"]["p50"] >= 1.0

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        n = to_csv(self._populated(), str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n == 3
        by_name = {r["name"]: r for r in rows}
        assert float(by_name["pkts"]["value"]) == 7
        assert by_name["pkts"]["labels"] == "link=wan"
        assert int(by_name["lat"]["count"]) == 2

    def test_samples_jsonl(self, tmp_path):
        env = Environment()
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(1.0)
        sampler = Sampler(env, reg, interval=1.0).start()
        env.run(until=2.5)
        sampler.stop()
        env.run()
        path = tmp_path / "samples.jsonl"
        n = samples_to_jsonl(sampler, str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert n == len(rows) == 3
        assert [r["t"] for r in rows] == [0.0, 1.0, 2.0]
        assert all(r["name"] == "level" for r in rows)


class TestLog:
    def test_silent_by_default(self, capsys):
        log = get_logger("unit-test")
        log.info("should not appear anywhere")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_console_enable_disable(self, capsys):
        enable_console("DEBUG")
        try:
            get_logger("unit-test").info("now visible")
            assert "now visible" in capsys.readouterr().err
        finally:
            disable_console()
            logging.getLogger("repro").setLevel(logging.NOTSET)
        get_logger("unit-test").info("hidden again")
        assert capsys.readouterr().err == ""

    def test_logger_namespace(self):
        assert get_logger("metampi.launcher").name == "repro.metampi.launcher"
        assert get_logger().name == "repro"
