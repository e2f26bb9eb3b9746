"""Counter-based random number streams.

Every stochastic entry point takes either an integer seed or a ready
``numpy.random.Generator``.  Seeds are turned into Philox streams, so a
sweep can derive independent per-sample streams as ``seed ^ index`` and stay
bit-reproducible regardless of execution order.
"""

from __future__ import annotations

import numpy as np


def generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.Philox(key=int(seed_or_rng)))


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Stream for sample ``index`` of a sweep seeded with ``seed``."""
    return generator(int(seed) ^ int(index))
