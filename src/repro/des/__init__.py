"""Discrete-event simulation engine.

A small, deterministic, from-scratch discrete-event kernel used as the
substrate for the e-commerce system model of the paper (Section 3).  It
provides:

* :class:`~repro.des.events.Event` and :class:`~repro.des.events.EventQueue`
  -- a time-ordered event heap with O(log n) scheduling and lazy
  cancellation, with FIFO tie-breaking for simultaneous events.
* :class:`~repro.des.engine.Simulator` -- the simulation clock and run loop.
* :class:`~repro.des.random_streams.RandomStreams` -- named, independent
  random-number substreams derived from a single seed, so that e.g. the
  arrival process and the service process draw from decoupled streams and
  experiments are reproducible.
* :class:`~repro.des.random_streams.BlockDrawnGenerator` -- a generator
  proxy serving scalar exponentials from pre-drawn blocks, bit-identical
  to scalar draws.
"""

from repro.des.engine import Simulator, StopSimulation
from repro.des.events import Event, EventQueue
from repro.des.random_streams import BlockDrawnGenerator, RandomStreams

__all__ = [
    "BlockDrawnGenerator",
    "Event",
    "EventQueue",
    "RandomStreams",
    "Simulator",
    "StopSimulation",
]
