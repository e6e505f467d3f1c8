"""The simulator stack imports without scipy; the calibration fit loads it.

scipy costs about 44 MB of resident memory and 0.7 s per process, and only
the T3E calibration fit (FIRE and the ``table1_t3e`` sweep) uses it.  The
check runs in a fresh interpreter, since this test process may already
have scipy loaded by other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages that must not import scipy at module level.
STACK = (
    "repro.sim",
    "repro.netsim",
    "repro.fluid",
    "repro.machines",
    "repro.metampi",
    "repro.harness",
    "repro.trace",
    "repro.telemetry",
)

#: ``repr((a, b, c))`` of each module's fit, as recorded before the scipy
#: import moved into the fit.
FITS = {
    "filter": "(0.16123182553758214, 3.0939164912470024e-16, 0.003746255061944008)",
    "motion": "(1.4058794513767943, 0.17090439945360597, 0.025160987471181954)",
    "rvo": "(109.14927891601725, 0.04591609443006177, 0.01470954796047108)",
}

PROBE = f"""
import importlib, json, sys
scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
for name in {STACK!r}:
    importlib.import_module(name)
before = scipy()
from repro.machines.t3e_model import default_model
model = default_model()
fits = {{m.name: repr((m.fit.a, m.fit.b, m.fit.c))
        for m in (model.filter, model.motion, model.rvo)}}
print(json.dumps({{"before": before, "after": bool(scipy()), "fits": fits}}))
"""


def probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_stack_imports_without_scipy_and_fit_is_unchanged():
    got = probe()
    assert got["before"] == [], f"scipy loaded at import: {got['before'][:5]}"
    assert got["after"], "the calibration fit no longer loads scipy"
    assert got["fits"] == FITS
