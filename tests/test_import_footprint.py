"""What importing the package loads: numpy only, never scipy.

scipy is a test-time oracle (``tests/test_ar.py``), not a runtime
dependency, so importing every ``repro`` subpackage and the CLI must leave
no ``scipy`` module in ``sys.modules``.  ``numpy.random`` must be loaded at
import time, so its import cost is paid at start-up, not during the first
system build.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
import repro
names = ["repro"] + sorted(
    "repro." + info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
) + ["repro.cli"]
for name in names:
    importlib.import_module(name)
print(json.dumps({
    "imported": names,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy_random": "numpy.random" in sys.modules,
}))
"""


def probe_imports():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_every_subpackage_is_imported():
    subpackages = {info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg}
    imported = set(probe_imports()["imported"])
    assert {"repro", "repro.cli"} <= imported
    assert {f"repro.{name}" for name in subpackages} <= imported
    assert "repro.timeseries" in imported


def test_scipy_is_not_imported_and_numpy_random_is():
    footprint = probe_imports()
    assert footprint["scipy"] == []
    assert footprint["numpy_random"] is True
