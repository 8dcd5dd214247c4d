"""Named, seeded random streams.

Every stochastic component in the repository (trace noise, link loss, query
arrivals, clock drift...) draws from its own named stream derived from a
single experiment seed via :class:`numpy.random.SeedSequence`.  Components
therefore stay independent — adding a new consumer of randomness never
perturbs the draws seen by existing ones — and whole experiments replay
exactly from one integer.
"""

from __future__ import annotations

import numpy as np

# numpy 2.x loads ``numpy.random`` lazily on first attribute access.  Load it
# with the module that owns the streams, so its import cost lands at start-up
# rather than inside the first system build.
import numpy.random  # noqa: F401


class RandomStreams:
    """Registry of independent :class:`numpy.random.Generator` streams.

    Streams are created lazily and keyed by name::

        streams = RandomStreams(seed=42)
        loss_rng = streams.get("radio.loss")
        noise_rng = streams.get("trace.noise")

    Requesting the same name twice returns the same generator object, and the
    same ``(seed, name)`` pair always produces the same draw sequence across
    runs and platforms.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The experiment-level master seed."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it deterministically."""
        if name not in self._streams:
            # Stable derivation: hash the name into spawn-key material so the
            # stream depends only on (seed, name), not creation order.
            name_key = [ord(ch) for ch in name]
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=tuple(name_key))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def fork(self, sub_seed: int) -> "RandomStreams":
        """Derive an independent registry, e.g. one per sweep point."""
        return RandomStreams(seed=(self._seed * 1_000_003 + int(sub_seed)) & 0x7FFFFFFF)


def seeded_rng(seed: int = 0) -> np.random.Generator:
    """The sanctioned construction site for a standalone seeded generator.

    Components that accept an optional ``rng`` parameter need a
    deterministic default when the caller passes ``None``; a bare
    ``np.random.default_rng(0)`` at each such site hides that decision from
    review, so the ``no-global-rng`` lint rule (see
    :mod:`repro.analysis.rules`) flags raw construction everywhere outside
    this module and the CLI entry points.  Calling ``seeded_rng()`` instead
    makes the fallback explicit and keeps every generator in the repository
    traceable to either a :class:`RandomStreams` stream or this function.

    The returned generator is ``default_rng``-compatible (PCG64) and
    depends only on *seed* — never on process state, hash seeds or call
    order.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
