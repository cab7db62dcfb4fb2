"""Arrival processes for the e-commerce model.

The paper drives its simulation with a Poisson process (step 1 of the
Section-3 model).  Because the whole point of the multi-bucket design is
to *distinguish bursts of arrivals from software aging*, this module also
provides bursty (Markov-modulated Poisson) and periodic (sinusoidally
modulated Poisson, the telecom traffic of [3]) processes, plus trace
replay, so that burst tolerance can actually be exercised.
"""

from __future__ import annotations

import abc
import math
from functools import partial
from typing import Callable, Sequence

import numpy as np


class ArrivalProcess(abc.ABC):
    """A stateful source of inter-arrival times.

    A subclass implements :meth:`interarrival` and :meth:`mean_rate`;
    :meth:`sampler` and :meth:`reset` have working defaults.
    """

    @abc.abstractmethod
    def interarrival(self, rng: np.random.Generator) -> float:
        """Draw the time until the next arrival (seconds, ``>= 0``)."""

    def sampler(self, rng: np.random.Generator) -> Callable[[], float]:
        """A zero-argument callable drawing successive inter-arrivals.

        Each call must return exactly what :meth:`interarrival` would
        return on ``rng`` at that point, with the same draws, so a
        system may bind the sampler once and call it per arrival.  The
        default binds :meth:`interarrival`; a process may return
        something cheaper with the same draws.
        """
        return partial(self.interarrival, rng)

    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Long-run average arrival rate (transactions/second)."""

    def reset(self) -> None:
        """Return to the initial state (default: stateless no-op)."""


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals -- the paper's workload.

    Parameters
    ----------
    rate:
        Arrival rate ``lambda`` in transactions/second.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = float(rate)

    def interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def sampler(self, rng: np.random.Generator) -> Callable[[], float]:
        # The very draw interarrival() makes, with no frame around it.
        return partial(rng.exponential, 1.0 / self.rate)

    def mean_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PoissonArrivals(rate={self.rate:g})"


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates between a *quiet* state with rate
    ``base_rate`` and a *burst* state with rate ``burst_rate``; sojourn
    times in each state are exponential.  Used to check that multi-bucket
    configurations tolerate bursts without rejuvenating (Section 5.1's
    design intent).

    Parameters
    ----------
    base_rate, burst_rate:
        Arrival rates in the two states.
    mean_quiet_s, mean_burst_s:
        Mean sojourn times of the quiet and burst states.
    """

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        mean_quiet_s: float,
        mean_burst_s: float,
    ) -> None:
        if min(base_rate, burst_rate) <= 0:
            raise ValueError("both arrival rates must be positive")
        if min(mean_quiet_s, mean_burst_s) <= 0:
            raise ValueError("both sojourn means must be positive")
        self.base_rate = float(base_rate)
        self.burst_rate = float(burst_rate)
        self.mean_quiet_s = float(mean_quiet_s)
        self.mean_burst_s = float(mean_burst_s)
        self._in_burst = False
        self._sojourn_left = 0.0

    def reset(self) -> None:
        self._in_burst = False
        self._sojourn_left = 0.0

    def _current_rate(self) -> float:
        return self.burst_rate if self._in_burst else self.base_rate

    def _mean_sojourn(self) -> float:
        return self.mean_burst_s if self._in_burst else self.mean_quiet_s

    def interarrival(self, rng: np.random.Generator) -> float:
        """Race the next arrival against state switches.

        In each state, the candidate arrival is exponential at the state
        rate; if the residual sojourn expires first, the process switches
        state and keeps accumulating elapsed time (the memorylessness of
        the exponential makes re-drawing after a switch exact).
        """
        elapsed = 0.0
        while True:
            if self._sojourn_left <= 0.0:
                self._sojourn_left = float(
                    rng.exponential(self._mean_sojourn())
                )
            candidate = float(rng.exponential(1.0 / self._current_rate()))
            if candidate < self._sojourn_left:
                self._sojourn_left -= candidate
                return elapsed + candidate
            elapsed += self._sojourn_left
            self._in_burst = not self._in_burst
            self._sojourn_left = 0.0

    def mean_rate(self) -> float:
        """Time-weighted average of the two state rates."""
        total = self.mean_quiet_s + self.mean_burst_s
        return (
            self.base_rate * self.mean_quiet_s
            + self.burst_rate * self.mean_burst_s
        ) / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MMPPArrivals(base={self.base_rate:g}, burst={self.burst_rate:g})"
        )


class PeriodicArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (telecom daily cycle).

    Rate at clock time ``t`` is
    ``base_rate * (1 + amplitude * sin(2 pi t / period))``, realised by
    Lewis-Shedler thinning against the peak rate, which is exact.

    Parameters
    ----------
    base_rate:
        Mean arrival rate.
    amplitude:
        Relative modulation depth in ``[0, 1)``.
    period_s:
        Cycle length in seconds.
    """

    def __init__(self, base_rate: float, amplitude: float, period_s: float):
        if base_rate <= 0:
            raise ValueError("base rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must lie in [0, 1)")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self._clock = 0.0

    def reset(self) -> None:
        self._clock = 0.0

    def _rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.period_s
        return self.base_rate * (1.0 + self.amplitude * math.sin(phase))

    def interarrival(self, rng: np.random.Generator) -> float:
        peak = self.base_rate * (1.0 + self.amplitude)
        start = self._clock
        t = start
        while True:
            t += float(rng.exponential(1.0 / peak))
            if rng.random() * peak <= self._rate_at(t):
                self._clock = t
                return t - start

    def mean_rate(self) -> float:
        """The sinusoid averages out: the mean rate is ``base_rate``."""
        return self.base_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeriodicArrivals(base={self.base_rate:g}, "
            f"amplitude={self.amplitude:g})"
        )


class ScaledArrivals(ArrivalProcess):
    """Rate-scales another arrival process by a constant factor.

    Every inter-arrival drawn from ``inner`` is divided by ``factor``,
    which multiplies the instantaneous rate by ``factor`` -- exact for
    Poisson arrivals, and a time-compression for modulated processes.
    Used by the traffic-surge fault injector, which wraps the live
    process at surge start (preserving its state) and unwraps it at
    surge end.
    """

    def __init__(self, inner: ArrivalProcess, factor: float) -> None:
        if factor <= 0:
            raise ValueError("rate factor must be positive")
        self.inner = inner
        self.factor = float(factor)

    def reset(self) -> None:
        self.inner.reset()

    def interarrival(self, rng: np.random.Generator) -> float:
        return self.inner.interarrival(rng) / self.factor

    def mean_rate(self) -> float:
        return self.inner.mean_rate() * self.factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScaledArrivals({self.inner!r} x {self.factor:g})"


class TraceArrivals(ArrivalProcess):
    """Replays a recorded sequence of inter-arrival times.

    Raises ``IndexError`` when the trace is exhausted -- run the
    simulation for at most ``len(trace)`` transactions.
    """

    def __init__(self, interarrivals: Sequence[float]) -> None:
        trace = [float(x) for x in interarrivals]
        if not trace:
            raise ValueError("trace must not be empty")
        if any(x < 0 for x in trace):
            raise ValueError("inter-arrival times must be non-negative")
        self.trace = trace
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def interarrival(self, rng: np.random.Generator) -> float:
        if self._cursor >= len(self.trace):
            raise IndexError("arrival trace exhausted")
        value = self.trace[self._cursor]
        self._cursor += 1
        return value

    def mean_rate(self) -> float:
        total = sum(self.trace)
        if total <= 0:
            raise ValueError("trace has zero total duration")
        return len(self.trace) / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceArrivals(n={len(self.trace)})"
