"""Deterministic stream-splitting RNG helpers.

Philox is a counter-based 64-bit generator; keying it with
SeedSequence([seed, *stream]) yields independent streams addressed by the
key alone.  Replication r of an experiment therefore draws the same numbers
no matter in which order (or on how many workers) the other replications
run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the key (seed, *stream); same key, same draws."""
    key = [int(seed), *(int(s) for s in stream)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Pass a Generator through, or build one from an integer seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(int(seed_or_rng))
