"""Continuous-time Markov chain analysis (the SHARPE substitute).

The paper uses the SHARPE tool to obtain the exact distribution of the
average response time ``X̄n`` as a time to absorption in the concatenated
CTMC of Fig. 4, and from it the exact density (eq. 4) and the exact
false-alarm probabilities of the CLT-based decision rule (3.69 % for
``n = 15`` and 3.37 % for ``n = 30`` at the 97.5 % normal quantile).

This package re-implements the needed machinery from scratch:

* :class:`~repro.ctmc.chain.CTMC` -- generator-matrix representation with
  validation, steady-state solution and transient solution.
* :mod:`~repro.ctmc.transient` -- Jensen's uniformization (the algorithm
  SHARPE itself uses) and a ``scipy.linalg.expm`` cross-check.
* :class:`~repro.ctmc.absorption.AbsorbingCTMC` -- time-to-absorption
  cdf/pdf and expected absorption times.
* :class:`~repro.ctmc.sample_mean.SampleMeanChain` -- builds the
  ``2n + 1``-state chain of Fig. 4 for the mean of ``n`` response times
  and exposes the exact density of eq. (4), its cdf, tail probabilities
  and the normal approximation used by CLTA.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AbsorbingCTMC": ".absorption",
    "MMcQueueLengthProcess": ".birth_death",
    "birth_death_generator": ".birth_death",
    "CTMC": ".chain",
    "SampleMeanChain": ".sample_mean",
    "clt_false_alarm_probability": ".sample_mean",
    "transient_expm": ".transient",
    "transient_uniformization": ".transient",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
