"""The benchmark's own checks: tracing must not change what is simulated.

Run with ``python -m pytest perfbench -q`` from the repository root.  Each
repetition runs in a fresh interpreter, as in the benchmark itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import spawn  # noqa: E402
from tracer import HARNESS, LAYERS, LayerTracer, QueryTimer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.system import PrestoCell  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_runs_share_a_fingerprint(workload):
    plain = spawn(workload, 5, traced=False, scale="tiny")
    traced = spawn(workload, 5, traced=True, scale="tiny")
    assert plain["violations"] == [] and traced["violations"] == []
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["modelled"] == plain["modelled"]
    spans = traced["layers"]
    assert spans["calls"]["sensor.on_sample"] == plain["sensor_epochs"]
    assert spans["events"] > 0
    # self times, harness included, partition the traced span
    assert all(seconds >= 0 for seconds in spans["self_s"].values())
    assert spans["self_s"][HARNESS] < spans["total_s"]
    assert sum(spans["self_s"].values()) == pytest.approx(spans["total_s"])


def test_wrappers_are_removed_on_exit():
    originals = {
        (owner, name): getattr(owner, name)
        for entries in LAYERS.values()
        for owner, names in entries
        for name in names
    }
    with LayerTracer():
        wrapped = [key for key, fn in originals.items() if getattr(*key) is not fn]
    assert len(wrapped) == len(originals)
    run_query = PrestoCell.run_query
    with QueryTimer((PrestoCell, "run_query")):
        assert PrestoCell.run_query is not run_query
    assert PrestoCell.run_query is run_query
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name
