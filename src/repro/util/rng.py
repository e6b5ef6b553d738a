"""Deterministic random-number management.

Every stochastic component (fault arrival Monte Carlo, trace generation,
reliability simulation) takes an explicit seed so experiments are exactly
reproducible. ``split_rng`` derives independent child streams from a parent
seed, which keeps parallel channel simulations decorrelated without
requiring a global generator; ``derive_seed`` gives the integer seed of
one child from the parent seed and the child's index alone.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed."""
    return np.random.Generator(np.random.PCG64(seed))


def split_rng(seed: int, count: int) -> list:
    """Derive ``count`` independent generators from ``seed``.

    Uses NumPy's ``SeedSequence.spawn`` so child streams are statistically
    independent regardless of ``count``.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def derive_seed(seed: int, index: int) -> int:
    """The integer seed of child ``index`` of ``seed``.

    A pure function of ``(seed, index)``: child ``index`` of
    ``SeedSequence(seed).spawn(n)`` for every ``n > index``, derived
    without spawning its siblings. A job that carries the parent seed
    and its index derives its own stream, so planning one draws nothing.
    The integer form travels across process boundaries (pickled into
    :class:`repro.runner.Job` configs) and hashes into cache keys, unlike
    a live ``Generator``.

    >>> derive_seed(7, 2) == derive_seeds(7, 5)[2]
    True
    """
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(child.generate_state(2, np.uint64)[0])


def derive_seeds(seed: int, count: int) -> list:
    """``[derive_seed(seed, i) for i in range(count)]``.

    Prefix-stable: the first ``k`` seeds are the same no matter how many
    are derived, so growing a population extends rather than reshuffles
    its random streams.
    """
    return [derive_seed(seed, index) for index in range(count)]
