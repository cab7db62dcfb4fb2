"""Time-to-absorption analysis of a CTMC.

The paper's response time (Fig. 3) and the average of ``n`` response times
(Fig. 4) are both times to absorption in small CTMCs; SHARPE was used to
evaluate them.  :class:`AbsorbingCTMC` provides the same analysis: the
cdf of the absorption time is the transient probability of the absorbing
set, the pdf is the probability flux into it, and expected absorption
times come from one linear solve against the transient subgenerator.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ctmc.chain import CTMC


class AbsorbingCTMC:
    """A CTMC with at least one absorbing state.

    Parameters
    ----------
    chain:
        The underlying chain; must contain at least one absorbing state.
    initial:
        Initial distribution (defaults to mass 1 on state 0).
    """

    def __init__(
        self, chain: CTMC, initial: Optional[Sequence[float]] = None
    ) -> None:
        self.chain = chain
        absorbing = chain.absorbing_states()
        if not absorbing:
            raise ValueError("chain has no absorbing state")
        self.absorbing: Tuple[int, ...] = absorbing
        self.transient_states: Tuple[int, ...] = tuple(
            i for i in range(chain.n_states) if i not in set(absorbing)
        )
        if not self.transient_states:
            raise ValueError("chain has no transient state")
        if initial is None:
            p0 = np.zeros(chain.n_states)
            p0[0] = 1.0
        else:
            p0 = np.asarray(initial, dtype=float)
            if p0.shape != (chain.n_states,):
                raise ValueError("initial distribution has the wrong length")
            if abs(float(p0.sum()) - 1.0) > 1e-9 or np.any(p0 < -1e-12):
                raise ValueError("initial vector must be a distribution")
        if any(p0[i] > 0 for i in self.absorbing):
            raise ValueError("initial mass on an absorbing state")
        self.p0 = np.clip(p0, 0.0, None)
        idx = np.asarray(self.transient_states)
        self._T = chain.Q[np.ix_(idx, idx)]
        self._alpha = self.p0[idx]
        # Flux into the absorbing set from each transient state.
        abs_idx = np.asarray(self.absorbing)
        self._t0 = chain.Q[np.ix_(idx, abs_idx)].sum(axis=1)

    # ------------------------------------------------------------------
    def cdf(self, t: float, method: str = "uniformization") -> float:
        """``P(absorbed by time t)``."""
        if t < 0:
            return 0.0
        p_t = self.chain.transient(self.p0, t, method=method)
        return float(sum(p_t[i] for i in self.absorbing))

    def sf(self, t: float, method: str = "uniformization") -> float:
        """``P(still transient at time t)``."""
        return 1.0 - self.cdf(t, method=method)

    def pdf(self, t: float, method: str = "uniformization") -> float:
        """Density of the absorption time: probability flux into absorption.

        This is the paper's equation (4) specialised to its Fig. 4 chain:
        ``f(t) = sum_i p_i(t) * (rate from i into the absorbing set)``.
        """
        if t < 0:
            return 0.0
        p_t = self.chain.transient(self.p0, t, method=method)
        idx = np.asarray(self.transient_states)
        return float(p_t[idx] @ self._t0)

    def mean_time_to_absorption(self) -> float:
        """Expected absorption time: ``-alpha T^{-1} 1``."""
        from scipy.linalg import solve

        ones = np.ones(len(self.transient_states))
        return float(-self._alpha @ solve(self._T, ones))

    def moment(self, k: int) -> float:
        """``k``-th raw moment of the absorption time."""
        if k < 0:
            raise ValueError("moment order must be non-negative")
        if k == 0:
            return 1.0
        from scipy.linalg import solve

        vec = np.ones(len(self.transient_states))
        factorial = 1.0
        for j in range(1, k + 1):
            vec = solve(self._T, vec)
            factorial *= j
        sign = 1.0 if k % 2 == 0 else -1.0
        return float(sign * factorial * self._alpha @ vec)

    def var(self) -> float:
        """Variance of the absorption time."""
        mean = self.moment(1)
        return self.moment(2) - mean * mean

    def quantile(self, q: float, method: str = "uniformization") -> float:
        """Inverse of :meth:`cdf` by bracketing bisection."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must lie in (0, 1)")
        low, high = 0.0, max(self.mean_time_to_absorption(), 1e-12)
        while self.cdf(high, method=method) < q:
            high *= 2.0
            if high > 1e12:  # pragma: no cover - defensive
                raise ArithmeticError("quantile search failed to bracket")
        for _ in range(100):
            mid = 0.5 * (low + high)
            if self.cdf(mid, method=method) < q:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)
