"""Analytical availability models of software rejuvenation.

The paper's reference [9] (Huang, Kintala, Kolettis & Fulton, FTCS
1995) introduced the continuous-time Markov model that started the
rejuvenation literature: a process moves from a *robust* state into a
*failure-probable* (aged) state, from which it either crashes (long
repair) or is proactively rejuvenated (short, scheduled outage).  The
model answers the planning question the simulation-based policies of
this paper refine: *at what rate should one rejuvenate at all, and when
is rejuvenation worth it?*

:class:`~repro.availability.huang.HuangRejuvenationModel` implements
the model on :class:`repro.ctmc.CTMC`, with steady-state availability,
expected downtime cost, and the optimal rejuvenation rate.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HuangRejuvenationModel": ".huang",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
