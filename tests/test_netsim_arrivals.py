"""Every arrival arm of the link transmitter, pinned bit for bit.

A packet reaches the far node of a link in one of several ways: a host's
``receive``, a plain switch's forward at arrival + latency (with or
without latency), or a ``Switch`` subclass's own ``receive``.  On a
lossy direction the arrival follows a completion-time judgement, which
hands the packet over inline when the hop has no propagation and no
switch latency.  Each case is run on a lossless and on a seeded lossy
direction, with and without propagation, and the delivery instants
(``float.hex``) and heap entries are pinned.
"""

import random

import pytest

from repro.netsim.core import Host, Network, Packet, PlainFraming, Switch
from repro.sim import Environment


class TallySwitch(Switch):
    """A ``Switch`` subclass with its own ``receive``."""

    def __init__(self, env, name, latency):
        super().__init__(env, name, latency)
        self.calls = 0

    def receive(self, packet):
        self.calls += 1
        super().receive(packet)


FAR = {
    "host": None,
    "switch": lambda env: Switch(env, "x", latency=2.7e-5),
    "switch0": lambda env: Switch(env, "x", latency=0.0),
    "subclass": lambda env: TallySwitch(env, "x", latency=2.7e-5),
}

#: delivery instants of seqs 0-5 per (far node latency, propagation); a
#: subclass with the plain switch's latency delivers at the same instants
TIMES = {
    ("host", 0.0): [
        "0x1.a36e2eb1c432dp-11",
        "0x1.a36e2eb1c432dp-10",
        "0x1.3a92a30553262p-9",
        "0x1.a36e2eb1c432dp-9",
        "0x1.a027525460aa7p-5",
        "0x1.a6b50b0f27bb4p-5",
    ],
    ("host", 3.3e-4): [
        "0x1.2839042d8c2a4p-10",
        "0x1.f9f01b866e43bp-10",
        "0x1.65d3996fa82e9p-9",
        "0x1.ceaf251c193b4p-9",
        "0x1.a2db61bb05fafp-5",
        "0x1.a9691a75cd0bcp-5",
    ],
    ("switch", 0.0): [
        "0x1.c75818c5c9a35p-10",
        "0x1.4c87980f55de5p-9",
        "0x1.b56323bbc6eb1p-9",
        "0x1.0f1f57b41bfbep-8",
        "0x1.a7d45a5fc7e6cp-5",
        "0x1.ae62131a8ef79p-5",
    ],
    ("switch", 3.3e-4): [
        "0x1.0eed02cd39da1p-9",
        "0x1.77c88e79aae6cp-9",
        "0x1.e0a41a261bf38p-9",
        "0x1.24bfd2e946802p-8",
        "0x1.aa8869c66d374p-5",
        "0x1.b116228134481p-5",
    ],
    ("switch0", 0.0): [
        "0x1.c044284dfce32p-10",
        "0x1.48fd9fd36f7e4p-9",
        "0x1.b1d92b7fe08afp-9",
        "0x1.0d5a5b9628cbdp-8",
        "0x1.a79bbadc0980cp-5",
        "0x1.ae297396d0919p-5",
    ],
    ("switch0", 3.3e-4): [
        "0x1.0b630a915379fp-9",
        "0x1.743e963dc486bp-9",
        "0x1.dd1a21ea35936p-9",
        "0x1.22fad6cb53501p-8",
        "0x1.aa4fca42aed14p-5",
        "0x1.b0dd82fd75e21p-5",
    ],
}

#: the seeded lossy direction loses seqs 0 (idle-lane start) and 5
#: (queued start)
LOSSY_SEQS = [1, 2, 3, 4]

#: env.scheduled_count per (far node, propagation, lossy)
ENTRIES = {
    ("host", 0.0, False): 11,
    ("host", 0.0, True): 11,
    ("host", 3.3e-4, False): 11,
    ("host", 3.3e-4, True): 15,
    ("switch", 0.0, False): 17,
    ("switch", 0.0, True): 19,
    ("switch", 3.3e-4, False): 17,
    ("switch", 3.3e-4, True): 19,
    ("switch0", 0.0, False): 17,
    ("switch0", 0.0, True): 15,
    ("switch0", 3.3e-4, False): 17,
    ("switch0", 3.3e-4, True): 19,
    ("subclass", 0.0, False): 23,
    ("subclass", 0.0, True): 19,
    ("subclass", 3.3e-4, False): 23,
    ("subclass", 3.3e-4, True): 23,
}


def run(far: str, propagation: float, lossy: bool):
    """Hosts ``a`` and ``b``; the measured hop is ``a`` to the far node
    (``b`` itself, or switch ``x`` one lossless hop before ``b``).  Four
    packets leave at t=0 and two at t=0.05, so both the idle-lane start
    and the queued start are taken."""
    env = Environment()
    net = Network(env)
    a = net.add(Host(env, "a"))
    b = net.add(Host(env, "b"))
    x = b
    if FAR[far] is not None:
        x = net.add(FAR[far](env))
        net.link("x", "b", rate=1e7, propagation=1.1e-4, framing=PlainFraming(0))
    hop = net.link(
        "a", x.name, rate=1e7, propagation=propagation, framing=PlainFraming(0)
    )
    if lossy:
        hop.set_loss(0.3, "a", rng=random.Random(3))
    got = []
    b.register_sink("f", lambda p, t: got.append((p.seq, t.hex())))

    def burst(first, n):
        for seq in range(first, first + n):
            a.send(Packet("f", "a", "b", 1000, 960, seq=seq))

    burst(0, 4)
    env.call_at(0.05, burst, 4, 2)
    env.run()
    return env, x, got


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("propagation", [0.0, 3.3e-4], ids=["prop0", "prop"])
@pytest.mark.parametrize("far", list(FAR))
def test_arrival_arms_pinned(far, propagation, lossy):
    env, x, got = run(far, propagation, lossy)
    times = TIMES["switch" if far == "subclass" else far, propagation]
    seqs = LOSSY_SEQS if lossy else range(6)
    assert got == [(seq, times[seq]) for seq in seqs]
    assert env.scheduled_count == ENTRIES[far, propagation, lossy]
    if far == "subclass":
        # The subclass's own receive ran once per packet that crossed.
        assert x.calls == len(got)
