"""Welford's online algorithm for running moments.

Used wherever the library needs a mean/variance over a stream without
keeping the stream: simulator metric accounting, SLA calibration, and the
experiment harness.  Welford's update is numerically stable even for
millions of nearly-equal observations, unlike the naive
``sum of squares - square of sum`` formula.
"""

from __future__ import annotations

import math
from typing import Iterable


class OnlineMoments:
    """Running count, mean and variance of a stream of numbers.

    Examples
    --------
    >>> m = OnlineMoments()
    >>> for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
    ...     m.push(x)
    >>> m.mean
    5.0
    >>> m.population_variance
    4.0
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, value: float) -> None:
        """Fold one observation into the moments."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations: :meth:`push`'s update, operation for
        operation, in one loop over locals (no call per value)."""
        count, mean, m2 = self.count, self.mean, self._m2
        minimum, maximum = self.minimum, self.maximum
        for value in values:
            value = float(value)
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count, self.mean, self._m2 = count, mean, m2
        self.minimum, self.maximum = minimum, maximum

    @property
    def variance(self) -> float:
        """Unbiased (n-1) sample variance; 0.0 when fewer than 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def population_variance(self) -> float:
        """Biased (n) variance; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineMoments") -> "OnlineMoments":
        """Combine two streams' moments (Chan et al. parallel update)."""
        merged = OnlineMoments()
        total = self.count + other.count
        if total == 0:
            return merged
        delta = other.mean - self.mean
        merged.count = total
        merged.mean = self.mean + delta * other.count / total
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / total
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )
