"""Huang et al.'s four-state rejuvenation model (FTCS 1995, ref. [9]).

States and transitions::

      robust ──aging_rate──> failure-probable ──failure_rate──> failed
        ^                      │                                  │
        │                      └──rejuvenation_rate──> rejuvenating
        │                                                  │
        ├───────── rejuvenation_completion_rate ───────────┘
        └───────── repair_rate (from failed) ──────────────┘

The process ages out of the robust state; once failure-probable it
either crashes (long unscheduled repair) or is proactively rejuvenated
(short scheduled outage).  The operator's control variable is the
*rejuvenation rate* from the aged state; this class exposes the two
classical planning quantities as functions of it -- steady-state
availability and expected downtime cost -- plus the cost-optimal rate.

All quantities are computed from the CTMC steady state and cross-checked
in the tests against the renewal-reward closed form

    A(rho) = up-time per cycle / cycle length,

with cycle = robust (1/r) + aged (1/(lambda+rho)) + the outcome branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ctmc.chain import CTMC

#: State order used throughout.
STATES: Tuple[str, str, str, str] = (
    "robust",
    "failure_probable",
    "failed",
    "rejuvenating",
)


@dataclass(frozen=True)
class HuangRejuvenationModel:
    """The four-state availability model.

    Parameters
    ----------
    aging_rate:
        ``r``: robust -> failure-probable (1 / mean time to aging).
    failure_rate:
        ``lambda``: failure-probable -> failed.
    repair_rate:
        ``mu_f``: failed -> robust (1 / mean unscheduled repair).
    rejuvenation_completion_rate:
        ``mu_r``: rejuvenating -> robust (1 / mean scheduled outage);
        rejuvenation is normally much faster than repair.

    Examples
    --------
    Aging over ~10 days, failure after ~3 aged days, 2 h repair,
    10 min rejuvenation (rates per hour):

    >>> model = HuangRejuvenationModel(
    ...     aging_rate=1 / 240, failure_rate=1 / 72,
    ...     repair_rate=1 / 2, rejuvenation_completion_rate=6.0,
    ... )
    >>> no_rejuvenation = model.availability(0.0)
    >>> hourly = model.availability(1.0)
    >>> hourly > no_rejuvenation
    True
    """

    aging_rate: float
    failure_rate: float
    repair_rate: float
    rejuvenation_completion_rate: float

    def __post_init__(self) -> None:
        for name in (
            "aging_rate",
            "failure_rate",
            "repair_rate",
            "rejuvenation_completion_rate",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------
    def chain(self, rejuvenation_rate: float) -> CTMC:
        """The CTMC for a given rejuvenation rate ``rho >= 0``."""
        if rejuvenation_rate < 0:
            raise ValueError("rejuvenation rate must be non-negative")
        rates = [
            (0, 1, self.aging_rate),
            (1, 2, self.failure_rate),
            (2, 0, self.repair_rate),
            (3, 0, self.rejuvenation_completion_rate),
        ]
        if rejuvenation_rate > 0:
            rates.append((1, 3, rejuvenation_rate))
        if rejuvenation_rate == 0:
            # State 3 is never entered; keep the chain irreducible by
            # omitting it.
            return CTMC.from_rates(3, rates[:3], state_names=STATES[:3])
        return CTMC.from_rates(4, rates, state_names=STATES)

    def steady_state(self, rejuvenation_rate: float) -> np.ndarray:
        """``(pi_robust, pi_aged, pi_failed, pi_rejuvenating)``."""
        chain = self.chain(rejuvenation_rate)
        pi = chain.steady_state()
        if pi.size == 3:
            pi = np.append(pi, 0.0)
        return pi

    # ------------------------------------------------------------------
    def availability(self, rejuvenation_rate: float) -> float:
        """Steady-state probability of being operational.

        Both the robust and the failure-probable states serve traffic
        (the aged system is degraded, not down).
        """
        pi = self.steady_state(rejuvenation_rate)
        return float(pi[0] + pi[1])

    def downtime_fraction(self, rejuvenation_rate: float) -> float:
        """1 - availability."""
        return 1.0 - self.availability(rejuvenation_rate)

    def downtime_hours_per_year(self, rejuvenation_rate: float) -> float:
        """Expected yearly downtime (8,760-hour year)."""
        return 8_760.0 * self.downtime_fraction(rejuvenation_rate)

    def downtime_cost_rate(
        self,
        rejuvenation_rate: float,
        cost_failure: float,
        cost_rejuvenation: float,
    ) -> float:
        """Expected cost per unit time.

        ``cost_failure`` and ``cost_rejuvenation`` price one unit of
        time spent in the failed and rejuvenating states (unscheduled
        downtime is typically far more expensive than a planned
        night-time restart).
        """
        if cost_failure < 0 or cost_rejuvenation < 0:
            raise ValueError("costs must be non-negative")
        pi = self.steady_state(rejuvenation_rate)
        return float(cost_failure * pi[2] + cost_rejuvenation * pi[3])

    def optimal_rejuvenation_rate(
        self,
        cost_failure: float,
        cost_rejuvenation: float,
        max_rate: float = 1e3,
    ) -> float:
        """Rejuvenation rate minimising the downtime cost rate.

        Returns 0.0 when never rejuvenating is (weakly) optimal --
        which happens exactly when scheduled outages are priced high
        relative to crashes.
        """
        if max_rate <= 0:
            raise ValueError("max rate must be positive")
        from scipy.optimize import minimize_scalar

        def objective(rate: float) -> float:
            return self.downtime_cost_rate(
                rate, cost_failure, cost_rejuvenation
            )

        result = minimize_scalar(
            objective, bounds=(0.0, max_rate), method="bounded",
            options={"xatol": 1e-9},
        )
        best_rate = float(result.x)
        # The boundary rate 0 is a candidate the bounded search can miss.
        if objective(0.0) <= objective(best_rate) + 1e-15:
            return 0.0
        return best_rate

    def rejuvenation_worthwhile(
        self, cost_failure: float, cost_rejuvenation: float
    ) -> bool:
        """Whether any positive rejuvenation rate beats doing nothing."""
        return (
            self.optimal_rejuvenation_rate(cost_failure, cost_rejuvenation)
            > 0.0
        )
