"""Transient solution of a CTMC: ``p(t) = p(0) expm(Q t)``.

Two interchangeable solvers:

* :func:`transient_uniformization` -- Jensen's uniformization.  The CTMC is
  embedded in a discrete-time chain ``P = I + Q / Lambda`` subordinated to a
  Poisson process of rate ``Lambda >= max_i |q_ii|``; the transient law is a
  Poisson-weighted average of DTMC powers.  All terms are non-negative, so
  the method is numerically benign, and truncating when the accumulated
  Poisson mass reaches ``1 - tol`` gives a rigorous L1 error bound of
  ``tol``.  This is the algorithm used by SHARPE, the tool the paper
  relies on.
* :func:`transient_expm` -- dense matrix exponential via SciPy, used as an
  independent cross-check in the tests.
"""

from __future__ import annotations

import math

import numpy as np

#: Natural log of the smallest positive normal double; weights below this
#: underflow to zero and are skipped (their mass is still tracked in log
#: space by the recurrence, so termination is unaffected).
_LOG_TINY = -745.0


def transient_expm(Q: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """Transient distribution via the dense matrix exponential."""
    if t < 0:
        raise ValueError("time must be non-negative")
    from scipy.linalg import expm

    return np.asarray(p0, dtype=float) @ expm(np.asarray(Q, dtype=float) * t)


def transient_uniformization(
    Q: np.ndarray,
    p0: np.ndarray,
    t: float,
    tol: float = 1e-12,
    max_terms: int = 2_000_000,
) -> np.ndarray:
    """Transient distribution via uniformization.

    Parameters
    ----------
    Q:
        Generator matrix (rows sum to zero; all-zero absorbing rows are
        allowed).
    p0:
        Initial distribution.
    t:
        Time horizon, ``t >= 0``.
    tol:
        L1 truncation error bound.
    max_terms:
        Safety cap on the number of Poisson terms.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    if t == 0.0:
        return p
    rates = -np.diag(Q)
    lam = float(rates.max())
    if lam <= 0.0:
        # Every state is absorbing: nothing moves.
        return p
    P = Q / lam + np.eye(Q.shape[0])
    a = lam * t
    # v_k = p0 P^k; Poisson(a) weights via the stable log-space recurrence
    # log w_k = log w_{k-1} + log(a / k), starting from log w_0 = -a.
    log_weight = -a
    accumulated = 0.0
    result = np.zeros_like(p)
    v = p
    k = 0
    while accumulated < 1.0 - tol:
        if log_weight > _LOG_TINY:
            weight = math.exp(log_weight)
            result += weight * v
            accumulated += weight
        k += 1
        if k > max_terms:
            raise ArithmeticError(
                "uniformization did not converge in "
                f"{max_terms} terms (Lambda*t = {a:.3g})"
            )
        v = v @ P
        log_weight += math.log(a / k)
    return result
