"""Diagnostics for the quality of the normal approximation (Fig. 5).

The paper argues visually (Fig. 5) that the density of the sample mean of
``n`` response times is "reasonably approximated" by a normal for
``n >= 15`` and quantifies the remaining error through the exact tail
probability beyond the 97.5 % normal quantile (3.69 % at n=15, 3.37 % at
n=30).  :class:`CLTDiagnostics` computes those quantities plus standard
distances between the exact and the approximating law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ctmc.sample_mean import SampleMeanChain
from repro.queueing.mmc import MMcModel


@dataclass(frozen=True)
class CLTReport:
    """Summary of how close the law of ``X̄n`` is to its normal limit."""

    n: int
    mean: float
    std: float
    skewness: float
    sup_density_distance: float
    kolmogorov_distance: float
    tail_beyond_975: float
    nominal_tail: float = 0.025

    @property
    def tail_inflation(self) -> float:
        """Exact tail over nominal tail (1.0 means the CLT rule is exact)."""
        return self.tail_beyond_975 / self.nominal_tail


class CLTDiagnostics:
    """Convergence diagnostics for the sample mean of M/M/c response times.

    Parameters
    ----------
    model:
        The underlying (healthy) M/M/c model.
    grid_points:
        Resolution for the density/cdf comparisons.
    span_sigmas:
        Half-width of the comparison window in sample-mean standard
        deviations around the mean.
    """

    def __init__(
        self,
        model: MMcModel,
        grid_points: int = 201,
        span_sigmas: float = 6.0,
    ) -> None:
        if grid_points < 11:
            raise ValueError("grid must have at least 11 points")
        if span_sigmas <= 0:
            raise ValueError("span must be positive")
        self.model = model
        self.grid_points = grid_points
        self.span_sigmas = span_sigmas

    def report(self, n: int) -> CLTReport:
        """Compare the exact law of ``X̄n`` with ``N(mu_X, sigma_X^2/n)``."""
        from scipy.stats import norm

        chain = SampleMeanChain(self.model, n)
        mu, sigma = chain.normal_parameters()
        low = max(0.0, mu - self.span_sigmas * sigma)
        high = mu + self.span_sigmas * sigma
        xs = np.linspace(low, high, self.grid_points)
        exact_pdf = chain.pdf_grid(xs)
        normal_pdf = norm.pdf(xs, loc=mu, scale=sigma)
        exact_cdf = np.array([chain.cdf(float(x)) for x in xs])
        normal_cdf = norm.cdf(xs, loc=mu, scale=sigma)
        # Skewness of the mean of n iid PH variables decays as 1/sqrt(n).
        base_skew = self.model.response_time_phase_type().skewness()
        return CLTReport(
            n=n,
            mean=mu,
            std=sigma,
            skewness=base_skew / math.sqrt(n),
            sup_density_distance=float(np.max(np.abs(exact_pdf - normal_pdf))),
            kolmogorov_distance=float(np.max(np.abs(exact_cdf - normal_cdf))),
            tail_beyond_975=chain.false_alarm_probability(0.975),
        )

    def convergence_table(self, sizes=(1, 5, 15, 30)) -> list[CLTReport]:
        """Reports for a family of sample sizes (the Fig. 5 panels)."""
        return [self.report(n) for n in sizes]
