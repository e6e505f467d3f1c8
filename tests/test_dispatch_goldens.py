"""Golden dispatch digests: every heap entry, in dispatch order.

The delivery goldens (``tests/test_delivery_goldens.py``) pin what
reaches each host.  This pins the kernel work underneath on seven of
their inputs: the number of entries scheduled (``scheduled_count``) and
the SHA-256 of every dispatched entry's ``(time, serial)`` in the order
the loop popped them.  A change that schedules the same entries with
the same serials at the same times, and so keeps every same-instant
tie, keeps these digests; one that adds, drops, re-times or re-numbers
an entry does not.

Dispatch is recorded by wrapping ``repro.sim.engine._heappop``, which
:meth:`~repro.sim.Environment.run` binds afresh on every call.
"""

import hashlib

import pytest

import repro.sim.engine as engine
from tests import delivery_scenarios as ds

#: input -> (scheduled_count, sha256 of the dispatched (time, serial) rows)
GOLDENS = {
    "bulk": (
        670,
        "fa16bf51ad47f2fdcfbfb817d391f24545219dd610b9d70320ce4df5f105a3eb",
    ),
    "counters_background_load": (
        17,
        "3e2cea0e566292f20a7c62fab8a1b65831cbb35e8bf75e401497e3b6f73fcf68",
    ),
    "counters_flap_at_service_boundary": (
        6,
        "5c5421924ac01336955f9f856e479bb63fbc9d35807263f6ed4e2b8454e7a0d5",
    ),
    "fault_link_down": (
        1074,
        "fdac72042d6019f1097c50d85e1f8cb6b9b81f689341445c2b93b220fc50abe2",
    ),
    "fault_loss_window": (
        1500,
        "682d31911c1d8c5e20b6cc0f3621f6782c8ab52ea5e22fbbbb7675ef2c9d9cca",
    ),
    "heavy_mix": (
        23426,
        "de117d512eaba2f1e588adf22b74cdbd3dce2d5e8ad1556a46ff1ff2cece7b7d",
    ),
    "overloaded": (
        1072,
        "b1980ee99b07db268b2f101cd19dbde99f11d2adcf75d2e14f954220b668b34d",
    ),
}


def dispatch_digest(monkeypatch, run) -> tuple[int, str]:
    """Run ``run()`` with every heap pop recorded; return the entries
    scheduled by the environments it built and the dispatch digest."""
    digest = hashlib.sha256()
    pop = engine._heappop

    def recording_pop(queue):
        entry = pop(queue)
        digest.update(f"{float(entry[0]).hex()} {entry[1]!r}\n".encode())
        return entry

    envs = []
    init = engine.Environment.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        envs.append(self)

    monkeypatch.setattr(engine, "_heappop", recording_pop)
    monkeypatch.setattr(engine.Environment, "__init__", recording_init)
    run()
    return sum(env.scheduled_count for env in envs), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_dispatch_matches_golden(monkeypatch, name):
    assert dispatch_digest(monkeypatch, ds.INPUTS[name]) == GOLDENS[name]
