"""The distribution of the average of ``n`` response times (Fig. 3/4, eq. 4).

The response time of an FCFS M/M/c job is the time to absorption in the
three-state chain of the paper's Fig. 3.  Multiplying every rate by ``n``
turns it into the law of ``X_i / n``; concatenating ``n`` such sub-chains
(fusing the absorbing state of sub-chain ``k`` with the entry state of
sub-chain ``k + 1``) yields a ``2n + 1``-state chain whose absorption time
is distributed exactly like the sample mean ``X̄n`` (Fig. 4).  The density
is the probability flux into the absorbing state (eq. 4):

    f(x) = p_{2n-1}(x) * n mu W_c + p_{2n}(x) * n (c mu - lambda)

This module builds the chain, evaluates its exact density/cdf via the CTMC
transient solvers, and compares against the normal approximation
``N(mu_X, sigma_X^2 / n)`` that underlies the CLTA algorithm -- in
particular the exact false-alarm probabilities the paper reports (3.69 %
for n = 15 and 3.37 % for n = 30 at the 97.5 % normal quantile).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.ctmc.absorption import AbsorbingCTMC
from repro.ctmc.chain import CTMC
from repro.queueing.mmc import MMcModel


def build_sample_mean_generator(model: MMcModel, n: int) -> np.ndarray:
    """Generator matrix of the Fig. 4 chain for the mean of ``n`` RTs.

    States are 0-indexed: for sub-chain ``k`` (``0 <= k < n``), state
    ``2k`` is the service-like phase and ``2k + 1`` the drain phase; state
    ``2n`` is absorbing.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if not model.is_stable:
        raise ValueError("the sample-mean chain requires a stable queue")
    mu = model.service_rate
    lam = model.arrival_rate
    c = model.servers
    wc = model.wc()
    drain = c * mu - lam
    size = 2 * n + 1
    Q = np.zeros((size, size))
    for k in range(n):
        phase_a = 2 * k
        phase_b = 2 * k + 1
        next_entry = 2 * (k + 1)  # entry of sub-chain k+1, or the absorber
        Q[phase_a, next_entry] = n * mu * wc
        Q[phase_a, phase_b] = n * mu * (1.0 - wc)
        Q[phase_a, phase_a] = -n * mu
        Q[phase_b, next_entry] = n * drain
        Q[phase_b, phase_b] = -n * drain
    return Q


class SampleMeanChain:
    """Exact law of ``X̄n``, the mean of ``n`` M/M/c response times.

    Parameters
    ----------
    model:
        The M/M/c model whose response times are being averaged.
    n:
        Sample size.

    Examples
    --------
    >>> model = MMcModel(arrival_rate=1.6, service_rate=0.2, servers=16)
    >>> chain = SampleMeanChain(model, n=30)
    >>> abs(chain.mean() - model.response_time_mean()) < 1e-9
    True
    >>> abs(chain.var() - model.response_time_var() / 30) < 1e-9
    True
    """

    def __init__(self, model: MMcModel, n: int) -> None:
        self.model = model
        self.n = int(n)
        generator = build_sample_mean_generator(model, self.n)
        names = []
        for k in range(self.n):
            names.extend([f"sub{k}.service", f"sub{k}.drain"])
        names.append("absorbed")
        self.chain = CTMC(generator, state_names=names)
        p0 = np.zeros(2 * self.n + 1)
        p0[0] = 1.0
        self.absorbing = AbsorbingCTMC(self.chain, initial=p0)

    # ------------------------------------------------------------------
    # Exact law
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """``E[X̄n] = mu_X`` (eq. 2 of the paper)."""
        return self.absorbing.mean_time_to_absorption()

    def var(self) -> float:
        """``Var(X̄n) = sigma_X^2 / n`` (eq. 3 over n)."""
        return self.absorbing.var()

    def std(self) -> float:
        """Standard deviation ``sigma_X / sqrt(n)``."""
        return math.sqrt(self.var())

    def pdf(self, x: float) -> float:
        """Exact density of ``X̄n`` (the paper's eq. 4)."""
        return self.absorbing.pdf(x)

    def cdf(self, x: float) -> float:
        """Exact cdf ``P(X̄n <= x)`` -- the transient mass in state 2n+1."""
        return self.absorbing.cdf(x)

    def sf(self, x: float) -> float:
        """Exact tail ``P(X̄n > x)``."""
        return self.absorbing.sf(x)

    def pdf_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`pdf` over a grid (used to draw Fig. 5)."""
        return np.array([self.pdf(float(x)) for x in np.asarray(xs)])

    # ------------------------------------------------------------------
    # Normal approximation (what CLTA assumes)
    # ------------------------------------------------------------------
    def normal_parameters(self) -> Tuple[float, float]:
        """``(mu, sigma)`` of the approximating normal in Fig. 5."""
        mu = self.model.response_time_mean()
        sigma = self.model.response_time_std() / math.sqrt(self.n)
        return mu, sigma

    def normal_pdf(self, x: float) -> float:
        """Density of the approximating normal at ``x``."""
        from scipy.stats import norm

        mu, sigma = self.normal_parameters()
        return float(norm.pdf(x, loc=mu, scale=sigma))

    def normal_quantile(self, q: float) -> float:
        """``mu_X + z_q sigma_X / sqrt(n)`` -- the CLTA decision threshold."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        from scipy.stats import norm

        mu, sigma = self.normal_parameters()
        return float(norm.ppf(q, loc=mu, scale=sigma))

    def false_alarm_probability(self, q: float = 0.975) -> float:
        """Exact probability that ``X̄n`` exceeds the normal ``q``-quantile.

        Under a perfect normal approximation this would be ``1 - q``; the
        paper reports the exact values 3.69 % (n=15) and 3.37 % (n=30)
        against the nominal 2.5 %.
        """
        return self.sf(self.normal_quantile(q))


def clt_false_alarm_probability(
    model: MMcModel, n: int, quantile: float = 0.975
) -> float:
    """Convenience wrapper: exact CLTA false-alarm probability.

    ``P(X̄n > mu_X + z_quantile * sigma_X / sqrt(n))`` for a healthy
    M/M/c system, evaluated from the exact Fig. 4 chain.
    """
    return SampleMeanChain(model, n).false_alarm_probability(quantile)
