"""Deterministic random-number helpers.

Every stochastic component (workload generators, randomized eviction)
derives its generator from an explicit seed so that a cached and an
uncached run of the same experiment see *identical* access patterns —
a precondition for the paper's ``100(Z-W)/Z`` comparisons and for our
functional-equivalence tests.
"""

from __future__ import annotations

import numpy as np

#: Fixed application-level salt so that unrelated components which pass
#: the same small integer seed still decorrelate.
_SALT = 0x5B_D1_E9_95


def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for ``(seed, *streams)``.

    ``streams`` identifies a substream (e.g. per-thread, per-repetition)
    so callers never share a generator across simulated threads.
    """
    ss = np.random.SeedSequence([_SALT, seed, *streams])
    return np.random.default_rng(ss)


def split_seed(seed: int, index: int) -> int:
    """Derive a stable 63-bit child seed for substream ``index``."""
    ss = np.random.SeedSequence([_SALT, seed, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def bounded_geometric(rng: np.random.Generator, mean: float,
                      lo: int, hi: int) -> int:
    """A geometric-ish draw clamped to ``[lo, hi]``.

    Size-like quantities (span lengths, op counts) want short draws to
    dominate with a heavy tail of large ones — a plain uniform draw
    buries the small-transfer behaviour the protocols specialize for.
    """
    if hi <= lo:
        return lo
    draw = lo + int(rng.geometric(min(1.0, 1.0 / max(mean, 1.0)))) - 1
    return min(max(draw, lo), hi)
