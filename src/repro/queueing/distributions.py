"""Phase-type distributions.

A phase-type (PH) distribution is the law of the time to absorption in a
finite continuous-time Markov chain with one absorbing state (Neuts 1981).
The paper represents the M/M/c response time as the PH distribution of
Fig. 2/3 -- a probabilistic mixture of an exponential and a two-stage
hypoexponential -- and builds the distribution of the *sample mean* of ``n``
response times by concatenating ``n`` copies of that chain (Fig. 4).

The representation used here is the standard ``(alpha, T)`` pair:

* ``alpha`` -- row vector of initial probabilities over the transient
  states (its entries may sum to less than one, the remainder being an
  atom at zero);
* ``T`` -- the subgenerator: the restriction of the CTMC generator to the
  transient states.  The absorption-rate vector is ``t0 = -T @ 1``.

Closed-form facts used below (see e.g. Trivedi 2001, ch. 5):

* survival  ``S(x)  = alpha @ expm(T x) @ 1``
* density   ``f(x)  = alpha @ expm(T x) @ t0``
* moments   ``E[X^k] = (-1)^k k! alpha @ T^{-k} @ 1``
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _as_probability_vector(alpha: Sequence[float]) -> np.ndarray:
    vec = np.asarray(alpha, dtype=float).reshape(-1)
    if np.any(vec < -1e-12):
        raise ValueError("initial vector has negative entries")
    total = float(vec.sum())
    if total > 1.0 + 1e-9:
        raise ValueError(f"initial probabilities sum to {total} > 1")
    return np.clip(vec, 0.0, None)


def _validate_subgenerator(T: np.ndarray) -> np.ndarray:
    mat = np.asarray(T, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("subgenerator must be a square matrix")
    diagonal = np.diag(mat)
    if np.any(diagonal > 1e-12):
        raise ValueError("subgenerator diagonal must be non-positive")
    off = mat - np.diag(diagonal)
    if np.any(off < -1e-12):
        raise ValueError("subgenerator off-diagonal must be non-negative")
    row_sums = mat.sum(axis=1)
    if np.any(row_sums > 1e-9):
        raise ValueError("subgenerator rows must sum to <= 0")
    return mat


class PhaseType:
    """A continuous phase-type distribution ``PH(alpha, T)``.

    Parameters
    ----------
    alpha:
        Initial probability (row) vector over the transient states.  If it
        sums to ``p < 1``, the distribution has an atom of mass ``1 - p``
        at zero.
    T:
        Subgenerator matrix over the transient states.

    Examples
    --------
    An exponential with rate 0.2 (the paper's service time law):

    >>> dist = exponential(0.2)
    >>> round(dist.mean(), 10)
    5.0
    >>> round(dist.var(), 10)
    25.0
    """

    def __init__(self, alpha: Sequence[float], T: Sequence[Sequence[float]]):
        self.alpha = _as_probability_vector(alpha)
        self.T = _validate_subgenerator(np.asarray(T, dtype=float))
        if self.alpha.shape[0] != self.T.shape[0]:
            raise ValueError("alpha and T dimensions disagree")
        self.t0 = -self.T @ np.ones(self.T.shape[0])

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of transient phases."""
        return self.T.shape[0]

    @property
    def atom_at_zero(self) -> float:
        """Probability mass at exactly zero."""
        return max(0.0, 1.0 - float(self.alpha.sum()))

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def moment(self, k: int) -> float:
        """The ``k``-th raw moment ``E[X^k]``."""
        if k < 0:
            raise ValueError("moment order must be non-negative")
        if k == 0:
            return 1.0
        # E[X^k] = (-1)^k k! alpha T^{-k} 1, computed by repeated solves to
        # avoid forming the inverse explicitly.
        from scipy.linalg import solve

        vec = np.ones(self.order)
        for _ in range(k):
            vec = solve(self.T, vec)
        sign = 1.0 if k % 2 == 0 else -1.0
        return float(sign * math.factorial(k) * self.alpha @ vec)

    def mean(self) -> float:
        """Expected value."""
        return self.moment(1)

    def var(self) -> float:
        """Variance."""
        first = self.moment(1)
        return self.moment(2) - first * first

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.var()))

    def skewness(self) -> float:
        """Standardised third central moment.

        Used by the CLT diagnostics: the skewness of the mean of ``n``
        iid copies decays as ``1/sqrt(n)``, which is the leading error term
        of the normal approximation in the paper's Fig. 5.
        """
        m1, m2, m3 = self.moment(1), self.moment(2), self.moment(3)
        variance = m2 - m1 * m1
        central3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        return float(central3 / variance**1.5)

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------
    def sf(self, x: float) -> float:
        """Survival function ``P(X > x)``."""
        if x < 0:
            return 1.0
        from scipy.linalg import expm

        return float(self.alpha @ expm(self.T * x) @ np.ones(self.order))

    def cdf(self, x: float) -> float:
        """Cumulative distribution function ``P(X <= x)``."""
        return 1.0 - self.sf(x)

    def pdf(self, x: float) -> float:
        """Density of the absolutely continuous part at ``x >= 0``."""
        if x < 0:
            return 0.0
        from scipy.linalg import expm

        return float(self.alpha @ expm(self.T * x) @ self.t0)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` variates by simulating the underlying chain."""
        if size < 0:
            raise ValueError("size must be non-negative")
        n_states = self.order
        exit_rates = -np.diag(self.T)
        # Jump probabilities from each transient state: to other transient
        # states or to absorption.
        jump = np.zeros((n_states, n_states + 1))
        for i in range(n_states):
            if exit_rates[i] <= 0.0:
                raise ValueError(f"state {i} has no outgoing rate")
            jump[i, :n_states] = self.T[i] / exit_rates[i]
            jump[i, i] = 0.0
            jump[i, n_states] = self.t0[i] / exit_rates[i]
        start_probs = np.append(self.alpha, self.atom_at_zero)
        out = np.empty(size)
        for j in range(size):
            state = int(rng.choice(n_states + 1, p=start_probs))
            total = 0.0
            while state != n_states:
                total += rng.exponential(1.0 / exit_rates[state])
                state = int(rng.choice(n_states + 1, p=jump[state]))
            out[j] = total
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseType(order={self.order}, mean={self.mean():.6g})"


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def exponential(rate: float) -> PhaseType:
    """Exponential distribution with hazard ``rate``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return PhaseType([1.0], [[-rate]])


def erlang(stages: int, rate: float) -> PhaseType:
    """Erlang distribution: ``stages`` sequential exponentials of ``rate``."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    return hypoexponential([rate] * stages)


def hypoexponential(rates: Sequence[float]) -> PhaseType:
    """Series combination of exponentials with the given rates.

    The second branch of the paper's Fig. 2 is the two-stage case with
    rates ``(mu, c*mu - lambda)``.
    """
    rate_list = [float(r) for r in rates]
    if not rate_list:
        raise ValueError("at least one stage is required")
    if any(r <= 0 for r in rate_list):
        raise ValueError("all rates must be positive")
    n = len(rate_list)
    T = np.zeros((n, n))
    for i, r in enumerate(rate_list):
        T[i, i] = -r
        if i + 1 < n:
            T[i, i + 1] = r
    alpha = np.zeros(n)
    alpha[0] = 1.0
    return PhaseType(alpha, T)


def hyperexponential(probs: Sequence[float], rates: Sequence[float]) -> PhaseType:
    """Probabilistic mixture of exponentials (parallel combination)."""
    p = np.asarray(probs, dtype=float)
    r = np.asarray(rates, dtype=float)
    if p.shape != r.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("probs and rates must be equal-length vectors")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("mixture probabilities must sum to 1")
    if np.any(r <= 0):
        raise ValueError("all rates must be positive")
    return PhaseType(p, np.diag(-r))
