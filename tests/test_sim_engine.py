"""Tests for the discrete-event kernel: environment, callbacks, events, lanes."""

import random

import pytest

from repro.sim import Environment, Lane, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    """A timeout is an event triggered with a delay."""
    env = Environment()
    evt = env.event().succeed(delay=2.5)
    env.run()
    assert evt.processed
    assert env.now == 2.5


def test_timeout_value_passthrough():
    env = Environment()
    evt = env.event().succeed("payload", delay=1.0)
    assert env.run(until=evt) == "payload"
    assert env.now == 1.0


def test_negative_timeout_rejected():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        evt.succeed(delay=-1.0)
    # The rejected trigger leaves the event pending and usable.
    assert not evt.triggered
    evt.succeed(delay=1.0)
    env.run()
    assert evt.processed


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def tick():
        env.call_later(1.0, tick)

    env.call_later(1.0, tick)
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()
    evt = env.event()
    env.call_later(2.0, evt.succeed, 42)
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
    for tag in ("a", "b", "c"):
        evt = env.event()
        evt.add_callback(lambda _e, t=tag: order.append(t))
        evt.succeed(delay=1.0)
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
    seen = []
    evt.add_callback(seen.append)
    env.call_later(1.0, evt.fail, ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run(until=evt)
    assert seen == [evt] and evt.failed
    assert env.now == 1.0


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_callback_exception_propagates_out_of_run():
    """A raising callback stops ``run`` with its exception; the clock
    stands at its entry and later entries stay queued."""
    env = Environment()
    got = []

    def boom():
        raise RuntimeError("callback failed")

    env.call_later(1.0, boom)
    env.call_later(2.0, got.append, "after")
    with pytest.raises(RuntimeError, match="callback failed"):
        env.run(until=5.0)
    assert env.now == 1.0 and got == []
    env.run()
    assert got == ["after"]


def test_add_callback_on_fired_event_runs_immediately():
    env = Environment()
    evt = env.event()
    evt.succeed("early")
    got = []

    def later():
        evt.add_callback(lambda e: got.append((env.now, e.value)))

    env.call_later(1.0, later)
    env.run()
    assert got == [(1.0, "early")]


def test_event_fire_is_a_plain_callback_entry():
    """Triggering an event queues its ``_fire`` like any callback, so
    the heap holds one kind of entry."""
    env = Environment()
    evt = env.event()
    evt.succeed(delay=1.0)
    (entry,) = env._queue
    assert entry[2] == evt._fire and entry[3] == ()


def test_all_of_collects_values():
    env = Environment()
    evts = [env.event().succeed(i * 10, delay=i + 1.0) for i in range(3)]
    got = env.run(until=env.all_of(evts))
    assert (env.now, got) == (3.0, {0: 0, 1: 10, 2: 20})


def test_all_of_fails_with_first_failure():
    env = Environment()
    ok, bad = env.event(), env.event()
    ok.succeed(delay=1.0)
    bad.fail(KeyError("lost"), delay=2.0)
    with pytest.raises(KeyError, match="lost"):
        env.run(until=env.all_of([ok, bad]))
    assert env.now == 2.0


def test_all_of_empty_fires_at_once():
    env = Environment(initial_time=3.0)
    assert env.run(until=env.all_of([])) == {}
    assert env.now == 3.0


def test_step_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.call_later(4.0, lambda: None)
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
        (
            lambda env: env.event().fail(RuntimeError("late"), delay=NAN),
            SimulationError,
        ),
        (lambda env: env.event().succeed(delay=NAN), SimulationError),
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


def test_infinite_horizon_rejected():
    # An infinite horizon used to drain the queue and then leave the
    # clock at inf, so a later call_later() was scheduled at inf too.
    env = Environment(initial_time=1.0)
    got = []
    env.call_at(2.0, got.append, "a")
    with pytest.raises(SimulationError, match="not finite"):
        env.run(until=float("inf"))
    assert env.now == 1.0 and got == []
    env.run()
    assert env.now == 2.0 and got == ["a"]


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
    """Event fires and bare callbacks each take one entry."""
    env = Environment()
    base = env.scheduled_count
    env.event().succeed(delay=1.0)
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

        def tick(tag, dt, left):
            trace.append((env.now, tag))
            if left:
                env.call_later(dt, tick, tag, dt, left - 1)

        env.call_later(0.3, tick, "x", 0.3, 4)
        env.call_later(0.5, tick, "y", 0.5, 4)
        env.run()
        return trace

    assert build() == build()


# -- lanes ----------------------------------------------------------------------

def _lane_script(use_lane: bool):
    """A seeded script interleaving lane entries with plain ``call_at``
    entries, all on a half-second grid so same-instant ties abound; each
    dispatched entry may schedule more of both kinds.  With
    ``use_lane=False`` the lane's entries go through ``call_at`` too."""
    env = Environment()
    lane = Lane(env) if use_lane else None
    rng = random.Random(7)
    log = []
    last = [0.0]

    def on_lane(tag):
        last[0] = max(last[0], env.now) + rng.choice((0.0, 0.0, 0.5, 1.0))
        (lane.call_at if lane else env.call_at)(last[0], fire, tag)

    def fire(tag):
        log.append((env.now, tag, env.scheduled_count))
        if len(log) < 400:
            for _ in range(rng.randrange(1, 3)):
                if rng.random() < 0.6:
                    on_lane(f"lane-{len(log)}")
                else:
                    when = env.now + rng.choice((0.0, 0.5, 1.0, 1.5))
                    env.call_at(when, fire, f"plain-{len(log)}")

    for i in range(6):
        on_lane(f"lane-start-{i}")
        env.call_at(rng.choice((0.0, 0.5, 1.0)), fire, f"plain-start-{i}")
    env.run()
    return log


def test_lane_dispatches_like_call_at():
    """Same script, lane or plain ``call_at``: the same entries fire in
    the same order at the same times, with the same serials taken."""
    with_lane = _lane_script(use_lane=True)
    assert len(with_lane) >= 400
    assert with_lane == _lane_script(use_lane=False)


def test_lane_holds_count_as_scheduled_and_pending():
    env = Environment()
    lane = Lane(env)
    got = []
    for t in (1.0, 2.0, 3.0, 4.0):
        lane.call_at(t, got.append, t)
    env.call_at(2.5, got.append, "plain")
    assert env.scheduled_count == 5
    assert env.queue_depth == 5
    assert env.heap_depth == 2  # the lane's head and the plain entry
    env.run(until=2.7)
    assert got == [1.0, 2.0, "plain"]
    assert env.scheduled_count - env.queue_depth == len(got)
    assert env.queue_depth == 2 and env.heap_depth == 1
    env.run()
    assert got == [1.0, 2.0, "plain", 3.0, 4.0]
    assert env.queue_depth == 0


@pytest.mark.parametrize(
    "when, armed",
    [(0.5, False), (NAN, False), (1.5, True), (NAN, True)],
    ids=["past", "nan", "decreasing", "nan_behind_head"],
)
def test_lane_rejects_bad_times_and_stays_usable(when, armed):
    env = Environment(initial_time=1.0)
    lane = Lane(env)
    got = []
    if armed:
        lane.call_at(2.0, got.append, "head")
    before = env.scheduled_count
    with pytest.raises(SimulationError, match=str(when)):
        lane.call_at(when, got.append, "bad")
    assert env.scheduled_count == before
    lane.call_at(2.0, got.append, "next")
    env.run()
    assert got == (["head", "next"] if armed else ["next"])
    assert env.now == 2.0


def test_lane_entry_scheduled_at_its_predecessors_instant_fires():
    env = Environment()
    lane = Lane(env)
    got = []

    def first():
        got.append(("first", env.now))
        lane.call_at(env.now, got.append, ("same instant", env.now))

    lane.call_at(1.0, first)
    env.run()
    assert got == [("first", 1.0), ("same instant", 1.0)]
    assert env.queue_depth == 0


def test_lane_raising_callback_does_not_strand_its_successor():
    env = Environment()
    lane = Lane(env)
    got = []

    def boom():
        raise RuntimeError("boom")

    lane.call_at(1.0, boom)
    lane.call_at(2.0, got.append, "after")
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 1.0 and env.queue_depth == 1
    env.run()
    assert got == ["after"]
