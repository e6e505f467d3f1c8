"""Tests for Store (FIFO mailbox) and Resource (counted slots)."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Environment, Resource, Store


def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put("item")
        got = yield store.get()
        return got

    p = env.process(proc())
    env.run()
    assert p.value == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer():
        got = yield store.get()
        return (env.now, got)

    def producer():
        yield env.timeout(2.0)
        yield store.put("late")

    c = env.process(consumer())
    env.process(producer())
    env.run()
    assert c.value == (2.0, "late")


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            got = yield store.get()
            received.append(got)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    timeline = []

    def producer():
        yield store.put("a")
        timeline.append(("put-a", env.now))
        yield store.put("b")  # blocks until consumer drains
        timeline.append(("put-b", env.now))

    def consumer():
        yield env.timeout(5.0)
        got = yield store.get()
        timeline.append(("got", got, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0.0) in timeline
    assert ("put-b", 5.0) in timeline


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_len_counts_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
def test_store_preserves_order_property(items):
    """Property: a Store is an exact FIFO for any put sequence."""
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for it in items:
            yield store.put(it)

    def consumer():
        for _ in items:
            got = yield store.get()
            out.append(got)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == items


def test_put_nowait_accepts_and_rejects_on_capacity():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.put_nowait("a")
    assert store.put_nowait("b")
    assert not store.put_nowait("c")  # full: caller counts the drop
    assert list(store.items) == ["a", "b"]


def test_put_nowait_hands_off_to_blocked_getter():
    env = Environment()
    store = Store(env)

    def consumer():
        got = yield store.get()
        return (env.now, got)

    def producer():
        yield env.timeout(3.0)
        assert store.put_nowait("direct")

    c = env.process(consumer())
    env.process(producer())
    env.run()
    assert c.value == (3.0, "direct")
    assert len(store) == 0  # handed off, never parked in items


def test_get_completes_inline_when_item_ready():
    env = Environment()
    store = Store(env)
    store.put_nowait("ready")
    evt = store.get()
    # No heap round trip: the event is already processed at creation.
    assert evt.processed
    assert evt.value == "ready"


def test_inline_get_admits_blocked_putter():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer():
        yield store.put("a")
        yield store.put("b")  # blocks: capacity 1
        done.append(env.now)

    def consumer():
        yield env.timeout(1.0)
        got = yield store.get()  # inline fast path frees the slot
        return got

    env.process(producer())
    c = env.process(consumer())
    env.run()
    assert c.value == "a"
    assert done == [1.0]
    assert list(store.items) == ["b"]


def test_resource_mutual_exclusion():
    env = Environment()
    res = Resource(env, capacity=1)
    active = []
    max_active = []

    def worker(tag):
        yield res.request()
        active.append(tag)
        max_active.append(len(active))
        yield env.timeout(1.0)
        active.remove(tag)
        res.release()

    for tag in range(4):
        env.process(worker(tag))
    env.run()
    assert max(max_active) == 1
    assert env.now == 4.0  # fully serialized


def test_resource_capacity_two_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)

    def worker():
        yield res.request()
        yield env.timeout(1.0)
        res.release()

    for _ in range(4):
        env.process(worker())
    env.run()
    assert env.now == 2.0  # two waves of two


def test_resource_release_without_hold_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_available_accounting():
    env = Environment()
    res = Resource(env, capacity=3)

    def proc():
        yield res.request()
        yield res.request()
        return res.available

    p = env.process(proc())
    env.run()
    assert p.value == 1


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def worker(tag):
        yield res.request()
        grants.append(tag)
        yield env.timeout(1.0)
        res.release()

    for tag in ("first", "second", "third"):
        env.process(worker(tag))
    env.run()
    assert grants == ["first", "second", "third"]
