"""Exact run-length analysis of the bucket chain (beyond the paper).

The paper evaluates SRAA/SARAA purely by simulation.  But the bucket
chain driven by i.i.d. batch means *is* an absorbing discrete-time
Markov chain on the states ``(N, d)``: each completed batch exceeds the
current bucket's target with some probability ``p_N``, and the Fig. 6
update rules are deterministic given that outcome.  This module solves
that chain exactly, giving the two numbers that explain all of
Figures 9-16:

* the **in-control ARL** -- expected batches between *false* triggers
  when the system is healthy (times ``n``, the expected transactions
  lost budget period: this is Fig. 10's low-load loss axis);
* the **out-of-control ARL** -- expected batches to detection once the
  metric has shifted (times ``n``, the detection latency behind
  Fig. 9's response-time axis).

This is the classical average-run-length machinery of the control-chart
literature (CUSUM/EWMA), applied to the paper's detector.  The
exceedance probabilities come from the exact sample-mean law
(:class:`repro.ctmc.sample_mean.SampleMeanChain`) for a healthy M/M/c
system, or from any caller-supplied law for shifted scenarios.

The i.i.d. assumption is the same one the paper's Section-4.1
autocorrelation study licenses; the Monte-Carlo cross-check lives in
the tests.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

ExceedProbs = Union[float, Sequence[float]]


class BucketChainARL:
    """Exact run lengths of a ``(K, D)`` bucket chain.

    Parameters
    ----------
    n_buckets, depth:
        ``K`` and ``D`` exactly as in
        :class:`~repro.core.buckets.BucketChain`.

    Examples
    --------
    A one-bucket, depth-one chain triggered by certain exceedances
    fires after exactly ``(D+1)K = 2`` batches:

    >>> BucketChainARL(1, 1).mean_batches_to_trigger(1.0)
    2.0

    CLTA is the ``K = 1, D = 0`` chain: it fires on the first exceedance,
    so its run length is geometric with mean ``1 / p``:

    >>> BucketChainARL(1, 0).mean_batches_to_trigger(0.25)
    4.0
    """

    def __init__(self, n_buckets: int, depth: int) -> None:
        if n_buckets < 1:
            raise ValueError("need at least one bucket (K >= 1)")
        if depth < 0:
            raise ValueError("bucket depth must be >= 0 (D >= 0)")
        self.n_buckets = int(n_buckets)
        self.depth = int(depth)

    # ------------------------------------------------------------------
    def _state_index(self, level: int, fill: int) -> int:
        return level * (self.depth + 1) + fill

    @property
    def n_states(self) -> int:
        """Transient states: K levels x (D+1) fill values."""
        return self.n_buckets * (self.depth + 1)

    def _normalise_probs(self, exceed_probs: ExceedProbs) -> np.ndarray:
        if np.isscalar(exceed_probs):
            probs = np.full(self.n_buckets, float(exceed_probs))
        else:
            probs = np.asarray(exceed_probs, dtype=float)
            if probs.shape != (self.n_buckets,):
                raise ValueError(
                    f"need one exceedance probability per bucket "
                    f"({self.n_buckets}), got shape {probs.shape}"
                )
        if np.any((probs < 0.0) | (probs > 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        return probs

    def transition_matrix(
        self, exceed_probs: ExceedProbs
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(Q, t)``: transient-to-transient matrix and trigger vector.

        Row ``(N, d)`` encodes one batch decision under the Fig. 6
        rules with per-level exceedance probabilities ``p_N``.
        """
        probs = self._normalise_probs(exceed_probs)
        size = self.n_states
        Q = np.zeros((size, size))
        trigger = np.zeros(size)
        for level in range(self.n_buckets):
            p = probs[level]
            for fill in range(self.depth + 1):
                row = self._state_index(level, fill)
                # Exceedance: d + 1, possibly overflowing.
                if fill + 1 > self.depth:
                    if level + 1 == self.n_buckets:
                        trigger[row] += p
                    else:
                        Q[row, self._state_index(level + 1, 0)] += p
                else:
                    Q[row, self._state_index(level, fill + 1)] += p
                # Non-exceedance: d - 1, possibly underflowing.
                if fill - 1 < 0:
                    if level > 0:
                        Q[row, self._state_index(level - 1, self.depth)] += (
                            1.0 - p
                        )
                    else:
                        Q[row, self._state_index(0, 0)] += 1.0 - p
                else:
                    Q[row, self._state_index(level, fill - 1)] += 1.0 - p
        return Q, trigger

    # ------------------------------------------------------------------
    def mean_batches_to_trigger(self, exceed_probs: ExceedProbs) -> float:
        """Expected batches until the chain triggers, from a fresh start.

        Solves ``(I - Q) m = 1``; returns ``inf`` when triggering is
        impossible (some required exceedance probability is 0).
        """
        probs = self._normalise_probs(exceed_probs)
        if np.any(probs == 0.0):
            # Every level must be climbed; one with p = 0 blocks the way.
            return float("inf")
        Q, _ = self.transition_matrix(probs)
        try:
            m = np.linalg.solve(
                np.eye(self.n_states) - Q, np.ones(self.n_states)
            )
        except np.linalg.LinAlgError:  # pragma: no cover - p=0 handled above
            return float("inf")
        result = float(m[self._state_index(0, 0)])
        # With near-zero climb probabilities the true ARL exceeds what
        # double precision can resolve and the solve degrades; any
        # result below the provable minimum delay is numerical noise.
        minimum = (self.depth + 1) * self.n_buckets
        if not np.isfinite(result) or result < minimum or result > 1e15:
            return float("inf")
        return result

    def mean_observations_to_trigger(
        self, exceed_probs: ExceedProbs, sample_size: int
    ) -> float:
        """Expected raw observations until trigger (batches x n)."""
        if sample_size < 1:
            raise ValueError("sample size must be >= 1")
        return self.mean_batches_to_trigger(exceed_probs) * sample_size

    def mean_cost_to_trigger(
        self,
        exceed_probs: ExceedProbs,
        cost_per_level: Sequence[float],
    ) -> float:
        """Expected accumulated cost until trigger, with per-level costs.

        Each batch decided while the chain sits at level ``N`` costs
        ``cost_per_level[N]``.  With the cost set to the level's batch
        size this gives the expected *observations* to trigger for
        SARAA, whose acceleration schedule shrinks ``n`` as the level
        rises; with a constant cost it reduces to
        ``mean_batches_to_trigger x cost``.
        """
        probs = self._normalise_probs(exceed_probs)
        costs = np.asarray(cost_per_level, dtype=float)
        if costs.shape != (self.n_buckets,):
            raise ValueError(
                f"need one cost per bucket ({self.n_buckets}), got "
                f"shape {costs.shape}"
            )
        if np.any(costs < 0):
            raise ValueError("costs must be non-negative")
        if np.any(probs == 0.0):
            return float("inf")
        Q, _ = self.transition_matrix(probs)
        cost_vector = np.repeat(costs, self.depth + 1)
        try:
            m = np.linalg.solve(np.eye(self.n_states) - Q, cost_vector)
        except np.linalg.LinAlgError:  # pragma: no cover - p=0 handled above
            return float("inf")
        result = float(m[self._state_index(0, 0)])
        minimum = float((self.depth + 1) * costs.min()) * self.n_buckets
        if not np.isfinite(result) or result < minimum or result > 1e15:
            return float("inf")
        return result

    def trigger_probability_within(
        self, batches: int, exceed_probs: ExceedProbs
    ) -> float:
        """``P(trigger within the first `batches` batch decisions)``."""
        if batches < 0:
            raise ValueError("batch count must be non-negative")
        Q, trigger = self.transition_matrix(exceed_probs)
        state = np.zeros(self.n_states)
        state[self._state_index(0, 0)] = 1.0
        absorbed = 0.0
        for _ in range(batches):
            absorbed += float(state @ trigger)
            state = state @ Q
        return absorbed


def sraa_exceedance_probabilities(
    sf: Callable[[float], float],
    mean: float,
    std: float,
    n_buckets: int,
) -> np.ndarray:
    """Per-level exceedance probabilities for SRAA targets.

    Parameters
    ----------
    sf:
        Survival function of the *batch mean* under the scenario of
        interest (healthy: ``SampleMeanChain(model, n).sf``; shifted:
        any caller-supplied law).
    mean, std:
        The SLO's ``mu_X`` and ``sigma_X`` defining the targets
        ``mu_X + N sigma_X``.
    """
    return np.array(
        [sf(mean + level * std) for level in range(n_buckets)]
    )
