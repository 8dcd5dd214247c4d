"""Per-layer spans measured from outside the program.

:class:`LayerTracer` wraps the public entry points of each module at run
time, in the traced process only, and removes the wrappers on exit.  Every
wrapped call is a span; a layer's self time is its spans' duration minus
the part covered by nested spans (of any layer).  Time not inside any span
is charged to ``harness`` (query generation replay, report assembly).

:class:`QueryTimer` is the one wrapper the untraced run installs: it times
only the top-level query call, so nested layers add nothing to it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable

from repro.coding import fragments as coding_fragments
from repro.coding import rs as coding_rs
from repro.core.cache import SummaryCache
from repro.core.federation import FederatedSystem
from repro.core.prediction import PredictionEngine
from repro.core.proxy import PrestoProxy
from repro.core.push import ProxyModelTracker, SensorModelChecker
from repro.core.sensor import PrestoSensor
from repro.core.system import PrestoCell
from repro.radio.mac import LplMac
from repro.radio.network import Network
from repro.serving.frontend import ServingFrontend
from repro.simulation.kernel import Simulator
from repro.storage.aging import AgingPolicy
from repro.storage.archive import SensorArchive
from repro.storage.offload import OffloadCoordinator
from repro.sync.protocol import TimeSyncProtocol

#: layer -> (owner, attribute names); owner is a class or a module.  A
#: layer may split into sub-buckets (``cache.write`` / ``cache.read``).
LAYERS: dict[str, list[tuple[object, tuple[str, ...]]]] = {
    "simulation": [(Simulator, ("run_until",))],
    "sensor": [
        (PrestoCell, ("sample_all",)),
        (PrestoSensor, ("on_sample", "on_missed_sample")),
    ],
    "push": [
        (SensorModelChecker, ("process", "advance_silent")),
        (ProxyModelTracker, ("advance_silent", "apply_push")),
    ],
    "sync": [(TimeSyncProtocol, ("record_exchange", "estimate_for", "correct", "project"))],
    "proxy.receive": [(PrestoProxy, ("on_receive",))],
    "cache.write": [(SummaryCache, ("insert", "insert_batch"))],
    "cache.read": [
        (
            SummaryCache,
            (
                "entry_at",
                "arrays_in",
                "actual_value_at",
                "coverage_fraction",
                "values_on_grid",
                "tail_snapshot",
            ),
        )
    ],
    "proxy.query": [(PrestoProxy, ("process_query",))],
    "prediction": [(PredictionEngine, ("best_estimate", "refit", "fit_spatial"))],
    "radio": [
        (Network, ("send", "account_idle_all")),
        (LplMac, ("send_uplink", "send_downlink")),
    ],
    "storage": [
        (SensorArchive, ("append", "flush", "read_range")),
        (AgingPolicy, ("make_room",)),
        (OffloadCoordinator, ("make_room",)),
    ],
    "federation.route": [(FederatedSystem, ("route_query",))],
    "federation.sync": [
        (PrestoProxy, ("export_replica_state",)),
        (coding_fragments, ("serialize_payload",)),
    ],
    "coding": [
        (coding_fragments.FragmentStore, ("sync", "reconstruct")),
        (coding_rs, ("rs_encode", "rs_decode")),
    ],
    "serving": [(ServingFrontend, ("run",))],
}

HARNESS = "harness"


def _defining_owner(owner: object, name: str) -> object:
    """The class in *owner*'s MRO that defines *name* (modules: *owner*)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in vars(klass):
                return klass
        raise AttributeError(f"{owner.__name__} has no attribute {name!r}")
    if not hasattr(owner, name):
        raise AttributeError(f"{owner!r} has no attribute {name!r}")
    return owner


def _function_aliases(module: object, name: str) -> list[object]:
    """Every loaded ``repro`` module binding the same function object."""
    target = getattr(module, name)
    return [
        mod
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name.startswith("repro") and getattr(mod, name, None) is target
    ]


class _Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make: Callable[[object], object]) -> None:
        defining = _defining_owner(owner, name)
        if isinstance(defining, type):
            owners = [defining]
            original = vars(defining)[name]
        else:
            owners = _function_aliases(defining, name)
            original = getattr(defining, name)
        wrapped = make(original)
        for target in owners:
            self._saved.append((target, name, vars(target)[name]))
            setattr(target, name, wrapped)

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


class LayerTracer:
    """Context manager: wrap every entry point in :data:`LAYERS`, then unwrap.

    Build the system inside the context (bound methods captured at
    construction must already be the wrappers), then call :meth:`start`.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: simulator events fired inside ``Simulator.run_until`` spans
        self.events = 0
        #: ``PredictionEngine.best_estimate`` calls that returned an estimate
        self.estimates_returned = 0
        self._stack: list[float] = []
        self._patches = _Patches()
        self._started = 0.0
        self.total_s = 0.0

    def _wrap(self, layer: str, label: str, original: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = stack.pop()
                self_s[layer] += duration - nested
                calls[label] += 1
                if stack:
                    stack[-1] += duration
            return result

        if label == "simulation.run_until":

            @functools.wraps(original)
            def run_until(sim, horizon):
                before = sim.events_fired
                try:
                    return span(sim, horizon)
                finally:
                    tracer.events += sim.events_fired - before

            return run_until
        if label == "prediction.best_estimate":

            @functools.wraps(original)
            def best_estimate(*args, **kwargs):
                estimate = span(*args, **kwargs)
                if estimate is not None:
                    tracer.estimates_returned += 1
                return estimate

            return best_estimate
        return span

    def __enter__(self) -> LayerTracer:
        for layer, entries in LAYERS.items():
            for owner, names in entries:
                for name in names:
                    label = f"{layer.split('.')[0]}.{name}"
                    self._patches.replace(
                        owner, name, lambda fn, ly=layer, lb=label: self._wrap(ly, lb, fn)
                    )
        self.start()
        return self

    def start(self) -> None:
        """Discard spans so far (the wrapped set-up) and restart the clock."""
        self.self_s.clear()
        self.calls.clear()
        self.events = 0
        self.estimates_returned = 0
        self._started = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.total_s = time.perf_counter() - self._started
        self._patches.restore()
        self.self_s[HARNESS] = self.total_s - sum(
            v for k, v in self.self_s.items() if k != HARNESS
        )


class QueryTimer:
    """Context manager timing each top-level call of one query entry point."""

    def __init__(self, entry: tuple[type, str]) -> None:
        self.entry = entry
        self.samples_s: list[float] = []
        self._patches = _Patches()

    def __enter__(self) -> QueryTimer:
        samples = self.samples_s
        clock = time.perf_counter

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    samples.append(clock() - start)

            return timed

        self._patches.replace(*self.entry, make)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()
