"""Run-to-run determinism and allocation regressions.

The delivery order, timestamps and flow metrics of the scheduling path
are pinned exactly by the goldens in ``tests/test_delivery_goldens.py``;
this module checks that repeated runs in one process agree (no state
leaks between simulations) and that the hot-path classes stay slotted.
"""

import pytest

from repro.harness.runner import SweepRunner
from repro.harness.sweeps import demo_specs
from repro.netsim.core import Packet
from repro.sim import Environment, Event, Lane
from tests import delivery_scenarios as ds


def test_bulk_is_run_to_run_deterministic():
    assert ds.run_bulk() == ds.run_bulk()


def test_contended_is_run_to_run_deterministic():
    assert ds.run_contended() == ds.run_contended()


def test_demo_sweep_metrics_stable_across_runs():
    specs = demo_specs(n=4, duration=0.0)
    a = SweepRunner(processes=1).run(specs, name="demo")
    b = SweepRunner(processes=1).run(specs, name="demo")
    assert a.metrics() == b.metrics()


def test_hot_path_classes_have_no_instance_dict():
    env = Environment()
    hot = [
        env,
        Event(env),
        env.all_of([]),
        Lane(env),
        Packet(flow="f", src="a", dst="b", ip_bytes=1500, payload_bytes=1448),
    ]
    for obj in hot:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1
