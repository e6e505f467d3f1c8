"""Golden delivery digests: the one scheduling path, pinned exactly.

Every input in :mod:`tests.delivery_scenarios` — the single WAN bulk,
the contended bottlenecks (gateway, lossy WAN, reverse WAN), the heavy
two-site mix, the burst-invalidation inputs (fault, loss window,
contention, DRR weight change), the overloaded drop-accounting run, the
bare-link counter scripts and a 64-seed random traffic-mix corpus — is
compared with ``tests/delivery_goldens.json``: the
:class:`~repro.netsim.tap.DeliveryTap` digest and count of every
``(host, flow, kind, seq, t)`` delivery in dispatch order, plus the
input's scalar results, all exact.

The goldens were recorded on the commit that still carried the
simulator's generator-process reference path, on inputs where that
reference agreed with the scheduling path delivery for delivery, so
every behaviour the reference checked stays checked bit for bit.  On a
mismatch the failure names the first 256-delivery window that differs.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.netsim import BulkTransfer, ClassicalIP, build_testbed
from repro.netsim.ip import TESTBED_MTU
from repro.netsim.tap import CHECKPOINT_EVERY, DeliveryTap, diverging_window
from tests import delivery_scenarios as ds

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "delivery_goldens.json"), encoding="utf-8") as fh:
    GOLDENS = json.load(fh)


def test_goldens_cover_every_input():
    assert sorted(GOLDENS) == sorted(ds.INPUTS)


@pytest.mark.parametrize("name", sorted(ds.INPUTS))
def test_matches_golden(name):
    got = ds.normalize(ds.INPUTS[name]())
    want = GOLDENS[name]
    if "digest" in want:
        w = diverging_window(got, want)
        assert w is None, (
            f"{name}: deliveries first differ among #{w * CHECKPOINT_EVERY}.."
            f"#{(w + 1) * CHECKPOINT_EVERY - 1} "
            f"({got['count']} delivered, golden {want['count']})"
        )
    assert got == want


def test_lossy_wan_crossing_costs_one_arrival_entry():
    """A delivered WAN crossing on a lossy direction costs its
    completion judgement plus one arrival entry."""
    assert ds.run_contended(loss=0.01)["scheduled"] == 1_468


def test_heavy_mix_golden_independent_of_hash_seed():
    """The heavy-mix digest does not depend on the interpreter's hash
    seed (no set or str-hash iteration order leaks into delivery)."""
    code = (
        "import json; from tests import delivery_scenarios as ds; "
        "print(json.dumps(ds.normalize(ds.run_heavy_mix())))"
    )
    root = os.path.dirname(HERE)
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root]),
        }
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert json.loads(out) == GOLDENS["heavy_mix"], f"PYTHONHASHSEED={seed}"


# -- heap depth ---------------------------------------------------------------

def _stepped_bulk(mtu: int, **kw):
    """Drive an SP2 -> T3E-600 bulk with ``env.step()``; return the tap
    and the most entries the heap held between two dispatches."""
    tb = build_testbed()
    tap = DeliveryTap().attach(tb.net)
    bt = BulkTransfer(
        tb.net, "sp2", "t3e-600", 2 * ds.MB, ip=ClassicalIP(mtu), name="bulk", **kw
    )
    env = tb.env
    peak = env.heap_depth
    while not bt.done.processed:
        env.step()
        peak = max(peak, env.heap_depth)
    assert bt.done.ok
    return tap, peak


def test_bulk_golden_with_shallow_heap():
    """The SP2's tandem host stage queues every segment of the window at
    once, but holds their completions on a lane: the heap stays at a
    handful of entries (36 when each completion sat in it) while the
    deliveries match the ``bulk`` golden."""
    tap, peak = _stepped_bulk(TESTBED_MTU)
    golden = GOLDENS["bulk"]
    assert tap.summary() == {k: golden[k] for k in ("count", "digest", "checkpoints")}
    assert peak <= 8


def test_window_limited_bulk_at_atm_mtu_keeps_heap_shallow():
    """A 64 KByte window of 9180-byte segments: at most eight entries
    in the heap at any step (nine when each completion sat in it)."""
    tap, peak = _stepped_bulk(9180, window_bytes=64 * 1024)
    assert tap.count > 0
    assert peak <= 8


# -- the tap itself -----------------------------------------------------------

def test_tap_records_sinks_registered_after_attach():
    """Attached before the flow exists, the tap still sees every
    delivery: the bulk input's golden, bit for bit."""
    tb = build_testbed()
    tap = DeliveryTap().attach(tb.net)
    BulkTransfer(
        tb.net, "sp2", "t3e-600", 2 * ds.MB, ip=ClassicalIP(TESTBED_MTU), name="bulk"
    ).run()
    golden = GOLDENS["bulk"]
    assert tap.count == golden["count"] > 0
    assert tap.summary() == {k: golden[k] for k in ("count", "digest", "checkpoints")}


def test_weight_change_reported_by_first_diverging_window():
    """Two runs differing only by a mid-contention ``set_flow_weight``:
    the checkpoints alone name the 256-delivery window holding the
    first differing delivery."""
    plain = ds.run_weight_change(None, keep=True)
    weighted = ds.run_weight_change(keep=True)
    w = diverging_window(plain, weighted)
    first = next(
        i
        for i, (x, y) in enumerate(zip(plain["tuples"], weighted["tuples"]))
        if x != y
    )
    assert w == 0
    assert w * CHECKPOINT_EVERY <= first < (w + 1) * CHECKPOINT_EVERY
    # Both runs deliver past the first checkpoint, which already differs.
    assert min(len(plain["checkpoints"]), len(weighted["checkpoints"])) > w

