"""Recording and replaying workload/metric traces.

The paper's motivation is a *field* failure: operators have recorded
traffic and response times, and want to evaluate rejuvenation policies
against them before deploying anything.  This module supports that
workflow:

* :class:`RecordingArrivals` wraps any arrival process and records the
  inter-arrival times it produced, so a stochastic workload can be
  frozen into a deterministic, replayable trace
  (:class:`~repro.ecommerce.workload.TraceArrivals`);
* :func:`save_trace` / :func:`load_trace` persist traces (one float per
  line -- trivially interoperable).

A recorded response-time stream is replayed through a policy offline
with ``policy.reset()`` followed by
:meth:`~repro.core.base.RejuvenationPolicy.observe_many`, which returns
the trigger indices.  Offline replay cannot capture the feedback loop
(a real rejuvenation would change subsequent response times), so it
answers "when would this policy have fired on what we saw?" -- exactly
the question an operator asks before turning a detector on.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ecommerce.workload import ArrivalProcess, TraceArrivals


class RecordingArrivals(ArrivalProcess):
    """Wraps an arrival process, recording every inter-arrival time."""

    def __init__(self, inner: ArrivalProcess) -> None:
        self.inner = inner
        self.recorded: List[float] = []

    def interarrival(self, rng: np.random.Generator) -> float:
        gap = self.inner.interarrival(rng)
        self.recorded.append(gap)
        return gap

    def mean_rate(self) -> float:
        return self.inner.mean_rate()

    def reset(self) -> None:
        """Resets the wrapped process; the recording keeps accumulating."""
        self.inner.reset()

    def to_trace(self) -> TraceArrivals:
        """Freeze the recording into a replayable trace."""
        if not self.recorded:
            raise ValueError("nothing recorded yet")
        return TraceArrivals(list(self.recorded))


def save_trace(values: Sequence[float], path: str) -> None:
    """Write a trace as one float per line."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("refusing to write an empty trace")
    with open(path, "w") as handle:
        for value in data:
            handle.write(f"{value!r}\n")


def load_trace(path: str) -> List[float]:
    """Read a trace written by :func:`save_trace`."""
    values: List[float] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(
                    f"{path}:{line_number}: not a number: {text!r}"
                ) from None
    if not values:
        raise ValueError(f"{path} contains no values")
    return values
