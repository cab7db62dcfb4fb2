"""Analytical queueing theory used by the paper.

The paper abstracts the e-commerce system (minus garbage collection and
kernel overhead) into an FCFS ``M/M/c`` queue with ``c = 16`` servers and
derives the steady-state response-time distribution, its mean and variance
(equations 1-3), and a phase-type representation (Fig. 2/3) that feeds the
CTMC analysis of the sample mean.

This package implements:

* :class:`~repro.queueing.distributions.PhaseType` -- general (acyclic)
  phase-type distributions with exact moments, cdf/pdf and sampling, plus
  convenience constructors (exponential, Erlang, hypo- and
  hyper-exponential).
* :class:`~repro.queueing.mmc.MMcModel` -- the M/M/c model: Erlang-C,
  ``W_c`` (probability that fewer than ``c`` jobs are present), the
  response-time law of Gross & Harris, and the paper's equations (2) and
  (3) for the mean and variance of the response time.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PhaseType": ".distributions",
    "erlang": ".distributions",
    "exponential": ".distributions",
    "hyperexponential": ".distributions",
    "hypoexponential": ".distributions",
    "MMcModel": ".mmc",
    "MMcKModel": ".mmck",
    "erlang_b": ".mmck",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
