"""Tests for the discrete-event kernel: environment, events, processes."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 2.5
    assert env.now == 2.5


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc())
    env.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()
    evt = env.event()

    def trigger():
        yield env.timeout(2.0)
        evt.succeed(42)

    env.process(trigger())
    assert env.run(until=evt) == 42
    assert env.now == 2.0


def test_run_until_never_fired_event_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        env.run(until=evt)


def test_events_fire_in_fifo_order_at_same_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError, match="already triggered"):
        evt.succeed(2)
    with pytest.raises(SimulationError, match="already triggered"):
        evt.fail(ValueError("nope"))


def test_event_fail_raises_in_waiter():
    env = Environment()
    evt = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield evt
        return "handled"

    p = env.process(waiter())
    evt.fail(ValueError("boom"))
    env.run()
    assert p.value == "handled"


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_waits_on_other_process():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    p = env.process(parent())
    env.run()
    assert p.value == (3.0, "child-result")


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            return str(exc)

    p = env.process(parent())
    env.run()
    assert p.value == "child failed"


def test_yield_already_fired_event_resumes_immediately():
    env = Environment()
    evt = env.event()
    evt.succeed("early")

    def proc():
        yield env.timeout(1.0)
        got = yield evt  # fired long ago
        return (env.now, got)

    p = env.process(proc())
    env.run()
    assert p.value == (1.0, "early")


def test_interrupt_delivers_cause():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            return ("interrupted", i.cause, env.now)

    def attacker(v):
        yield env.timeout(2.0)
        v.interrupt(cause="stop now")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert v.value == ("interrupted", "stop now", 2.0)


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError, match="finished"):
        p.interrupt()


def test_interrupt_self_rejected():
    env = Environment()

    def proc():
        env.active_process.interrupt()
        yield env.timeout(1.0)

    p = env.process(proc())
    env.run()
    assert isinstance(p.value, SimulationError)


def test_interrupt_detaches_without_disturbing_other_waiters():
    env = Environment()
    evt = env.event()
    order = []

    def waiter(tag):
        try:
            yield evt
            order.append(tag)
        except Interrupt:
            order.append(f"{tag}-interrupted")

    procs = [env.process(waiter(t)) for t in ("a", "b", "c")]

    def attacker():
        yield env.timeout(1.0)
        procs[1].interrupt()
        yield env.timeout(1.0)
        evt.succeed()

    env.process(attacker())
    env.run()
    # The tombstoned slot neither resumes the victim nor shifts the
    # remaining waiters out of FIFO order.
    assert order == ["b-interrupted", "a", "c"]


def test_all_of_collects_values():
    env = Environment()
    evts = [env.timeout(i + 1.0, value=i * 10) for i in range(3)]

    def proc():
        got = yield env.all_of(evts)
        return (env.now, got)

    p = env.process(proc())
    env.run()
    assert p.value == (3.0, {0: 0, 1: 10, 2: 20})


def test_any_of_fires_on_first():
    env = Environment()
    slow = env.timeout(10.0, value="slow")
    fast = env.timeout(1.0, value="fast")

    def proc():
        got = yield env.any_of([slow, fast])
        return (env.now, got)

    p = env.process(proc())
    env.run(until=p)
    assert p.value == (1.0, {1: "fast"})


def test_step_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_run_backwards_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_call_later_runs_with_args():
    env = Environment()
    got = []
    env.call_later(2.0, lambda a, b: got.append((env.now, a, b)), 1, "x")
    env.run()
    assert got == [(2.0, 1, "x")]


def test_call_at_absolute_time():
    env = Environment(initial_time=5.0)
    got = []
    env.call_at(7.5, got.append, "tick")
    env.run()
    assert got == ["tick"]
    assert env.now == 7.5


def test_call_later_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.call_later(-0.1, lambda: None)


def test_call_at_past_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.call_at(9.0, lambda: None)


def test_call_at_after_slots_in_behind_its_entry():
    env = Environment()
    order = []
    anchor = env.call_at(1.0, order.append, "anchor")
    env.call_at(1.0, order.append, "later")
    before = env.scheduled_count
    env.call_at_after(1.0, anchor, order.append, "behind")
    assert env.scheduled_count == before + 1
    env.run()
    assert order == ["anchor", "behind", "later"]


def test_call_at_after_past_rejected():
    env = Environment(initial_time=10.0)
    anchor = env.call_at(12.0, lambda: None)
    with pytest.raises(SimulationError):
        env.call_at_after(9.0, anchor, lambda: None)


NAN = float("nan")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda env: env.call_later(NAN, lambda: None), SimulationError),
        (lambda env: env.call_at(NAN, lambda: None), SimulationError),
        (
            lambda env: env.call_at_after(
                NAN, env.call_at(2.0, lambda: None), lambda: None
            ),
            SimulationError,
        ),
        (lambda env: env.schedule(env.event(), NAN), SimulationError),
        (lambda env: env.timeout(NAN), ValueError),
        (lambda env: env.run(until=NAN), SimulationError),
    ],
    ids=["call_later", "call_at", "call_at_after", "schedule", "timeout", "run"],
)
def test_nan_time_rejected(call, error):
    # NaN compares False against everything: a NaN heap key would
    # break the queue's order, and a NaN horizon would become the clock.
    env = Environment(initial_time=1.0)
    with pytest.raises(error, match="nan"):
        call(env)
    assert env.now == 1.0


def test_cancel_of_a_dispatched_entry_leaves_new_entries_alone():
    env = Environment()
    got = []
    stale = env.call_at(1.0, got.append, "a")
    env.run(until=2.0)
    env.call_at(3.0, got.append, "b")
    env.cancel(stale)
    env.run()
    assert got == ["a", "b"]


def test_callbacks_and_events_share_fifo_order():
    env = Environment()
    order = []

    def event_at_one(tag):
        evt = env.event()
        evt.add_callback(lambda _e, t=tag: order.append(t))
        evt.succeed(delay=1.0)

    # Interleave the two scheduling forms at the same timestamp: firing
    # order must follow scheduling order, not the entry's form.
    event_at_one("event-1")
    env.call_later(1.0, order.append, "callback-1")
    event_at_one("event-2")
    env.call_later(1.0, order.append, "callback-2")
    env.run()
    assert order == ["event-1", "callback-1", "event-2", "callback-2"]


def test_scheduled_count_counts_both_forms():
    env = Environment()
    base = env.scheduled_count
    env.timeout(1.0)
    env.call_later(1.0, lambda: None)
    env.call_at(2.0, lambda: None)
    assert env.scheduled_count == base + 3


def test_run_until_time_executes_due_callbacks():
    env = Environment()
    got = []
    env.call_later(1.0, got.append, "in")
    env.call_later(3.0, got.append, "out")
    env.run(until=2.0)
    assert got == ["in"]
    assert env.now == 2.0


def test_determinism_two_identical_runs():
    def build():
        env = Environment()
        trace = []

        def proc(tag, dt):
            for _ in range(5):
                yield env.timeout(dt)
                trace.append((env.now, tag))

        env.process(proc("x", 0.3))
        env.process(proc("y", 0.5))
        env.run()
        return trace

    assert build() == build()
