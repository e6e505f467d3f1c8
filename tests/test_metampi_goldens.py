"""Exact metampi results on the 1 + 1 and 1 + 3 rank layouts.

Every input in :mod:`tests.metampi_scenarios` is compared with
``tests/metampi_goldens.json``: each rank's clock, the elapsed time and
the traffic tallies bit for bit, and every rank's results.
"""

import json
import os

import pytest

from tests import metampi_scenarios as ms

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "metampi_goldens.json"), encoding="utf-8") as fh:
    GOLDENS = json.load(fh)


def test_goldens_cover_every_input():
    assert sorted(GOLDENS) == sorted(ms.INPUTS)


@pytest.mark.parametrize("name", sorted(ms.INPUTS))
def test_matches_golden(name):
    assert ms.INPUTS[name]() == GOLDENS[name]
