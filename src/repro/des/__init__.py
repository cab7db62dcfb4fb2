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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Simulator": ".engine",
    "StopSimulation": ".engine",
    "Event": ".events",
    "EventQueue": ".events",
    "BlockDrawnGenerator": ".random_streams",
    "RandomStreams": ".random_streams",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
