"""Small statistics helpers for experiment reporting."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence, Tuple

import numpy as np


def confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> Tuple[float, float]:
    """Normal-approximation confidence interval (mean, half-width).

    NumPy arrays take a vectorized path (population statistics over
    10^5-10^6 Monte-Carlo channels would be too slow in pure Python);
    both paths compute the same unbiased-variance interval. A
    multi-dimensional array is treated as the flat sample vector its
    ``.mean()``/``.var()`` already imply, so ``n`` is ``values.size``,
    never the leading-axis length.
    """
    if isinstance(values, np.ndarray):
        n = int(values.size)
        if n == 0:
            raise ValueError("confidence_interval of empty sequence")
        mean = float(values.mean())
        if n == 1:
            return mean, 0.0
        var = float(values.var(ddof=1))
        return mean, z * math.sqrt(var / n)
    n = len(values)
    if n == 0:
        raise ValueError("confidence_interval of empty sequence")
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = z * math.sqrt(var / n)
    return mean, half


def confidence_interval_from_moments(
    count: int, total: float, total_sq: float, z: float = 1.96
) -> Tuple[float, float]:
    """:func:`confidence_interval` from pre-reduced first/second moments.

    Parallel block jobs ship ``(n, sum, sum of squares)`` instead of raw
    per-channel samples; merging moments and calling this is equivalent
    to concatenating the samples and calling
    :func:`confidence_interval`, up to floating point.
    """
    if count <= 0:
        raise ValueError("confidence_interval of empty sequence")
    mean = total / count
    if count == 1:
        return mean, 0.0
    var = max(total_sq - total * total / count, 0.0) / (count - 1)
    return mean, z * math.sqrt(var / count)


@dataclass
class Moments:
    """Mergeable first/second moments of one per-sample statistic.

    Blocks of a population reduce their samples to ``(n, sum, sum of
    squares)``; adding them here in block order, from ``0.0``, and
    calling :meth:`interval` gives :func:`confidence_interval_from_moments`
    of the merged population.
    """

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, count: int, total: float, total_sq: float) -> None:
        """Merge one block's ``(n, sum, sum of squares)``."""
        self.count += count
        self.total += total
        self.total_sq += total_sq

    def interval(self) -> Tuple[float, float]:
        """(mean, 95% half-width) of the merged samples; empty raises."""
        return confidence_interval_from_moments(
            self.count, self.total, self.total_sq
        )


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, from ``0.0``.

    Not ``sum()``: from Python 3.12 it compensates float rounding, so
    its result depends on the interpreter. A NumPy array is read as
    Python floats first.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return reduce(operator.add, values, 0.0)


def binomial_confidence_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Confidence interval of a proportion (mean, half-width).

    Equivalent to :func:`confidence_interval` over the implied 0/1
    sample vector (unbiased-variance normal approximation), without
    materializing it — the Monte-Carlo cross-check populations are
    10^4-10^6 channels.
    """
    if trials <= 0:
        raise ValueError("binomial_confidence_interval needs trials > 0")
    # An indicator's square is itself, so the implied moments are
    # (trials, successes, successes).
    return confidence_interval_from_moments(trials, successes, successes, z)
