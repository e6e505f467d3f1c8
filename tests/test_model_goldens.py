"""Golden timing digests for the FIRE pipeline, the cell-exact ATM link
and the telemetry sampler.

Every input in :mod:`tests.model_scenarios` is compared with
``tests/model_goldens.json``.  The goldens were recorded while these
models still ran as generator processes, so each timestamp the callback
chains produce matches the process form bit for bit.
"""

import json
import os

import pytest

from tests import model_scenarios as ms

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "model_goldens.json"), encoding="utf-8") as fh:
    GOLDENS = json.load(fh)


def test_goldens_cover_every_input():
    assert sorted(GOLDENS) == sorted(ms.INPUTS)


@pytest.mark.parametrize("name", sorted(ms.INPUTS))
def test_matches_golden(name):
    assert ms.INPUTS[name]() == GOLDENS[name]
