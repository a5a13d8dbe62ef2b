"""Named, reproducible random streams.

Every stochastic element of an experiment (client arrivals, trace
popularity, fault arrival sampling, per-node service jitter) draws from
its own named stream, so adding a new random consumer never perturbs the
draws seen by existing ones.  Stream seeds are derived from the master
seed and the stream name with a stable cryptographic hash — Python's
builtin ``hash`` is salted per interpreter and must not be used here.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterator

import numpy as np

#: draws per block of :func:`blocks`
BLOCK = 256


def derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for stream ``name`` under ``master_seed``."""
    digest = hashlib.blake2b(
        name.encode("utf-8"),
        digest_size=8,
        key=int(master_seed).to_bytes(16, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


class RngRegistry:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    __slots__ = ("master_seed", "_streams")

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return float(self.stream(name).exponential(mean))

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def blocks(draw: Callable[[int], np.ndarray]) -> Iterator[Any]:
    """The values of ``draw(BLOCK)``, ``draw(BLOCK)``, ..., one at a time.

    For a consumer that made one scalar draw per event: numpy draws a
    block element by element exactly as it draws scalars, so the values
    are the scalar sequence at a fraction of the per-call cost.  The
    stream runs up to ``BLOCK`` draws ahead, so nothing else may draw
    from it.
    """
    while True:
        yield from draw(BLOCK).tolist()
