"""Burst invalidation: faults, DRR contention and weight changes mid-burst.

The hot path pre-schedules whole bursts: a CBR source emits one kernel
event per frame, and the link transmitter pre-schedules each packet's
arrival at serialization start.  A fault, a competing flow or a DRR
weight change arriving mid-burst must cancel or re-decide exactly the
pre-scheduled work it invalidates.  ``tests/test_delivery_goldens.py``
pins every delivery tuple (endpoint, flow, kind, seq, timestamp) and
summary figure of these inputs exactly; the tests here check that each
input really exercises the invalidation it is meant to, or the goldens
would prove nothing about it.
"""

from tests import delivery_scenarios as ds


def test_fault_scenario_actually_loses_frames():
    """The fault window must actually bite."""
    ref = ds.run_fault_mid_burst()["scalars"]
    assert ref["frames_lost"] > 0
    assert ref["frames_received"] > 0


def test_loss_window_actually_bites():
    """The window must open and close mid-serialization and lose
    packets, or its golden proves nothing about turning loss on and off
    mid-burst."""
    ref = ds.run_fault_mid_burst("random_loss")
    assert ref["scalars"]["edges_mid_serialization"] == [True, True]
    assert ref["scalars"]["wire_loss"] > 0
    assert ref["count"] == 120


def test_contention_scenario_actually_contends():
    ref = ds.run_contention_mid_burst()["scalars"]
    assert ref["frames_received"] > 0
    assert ref["goodput"] > 0


def test_weight_change_actually_reorders():
    """The re-weighting must change the service order, or its golden
    proves nothing about set_flow_weight."""
    unweighted = ds.run_weight_change(None)
    weighted = ds.run_weight_change()
    assert (
        unweighted["scalars"]["frames_received"]
        == weighted["scalars"]["frames_received"]
    )
    assert unweighted["digest"] != weighted["digest"]
