"""Service-time distributions for the processing nodes.

The paper's model is exponential (step 3), and all of Section 4.1's
analytics depend on that.  The simulator nevertheless accepts other
laws with the same mean, for one specific scientific purpose: probing
the divergence D1 of EXPERIMENTS.md.  With exponential service, killing
an in-flight transaction and restarting a fresh one loses nothing in
distribution (memorylessness), which is why aggressive triggering
(CLTA) is response-time-free in this substrate.  Non-memoryless laws
-- deterministic, Erlang, or high-variance lognormal/hyperexponential
-- make killed work a real loss and let the ablation measure how much
of the paper's CLTA penalty that mechanism could explain.

All samplers are parameterised by the mean ``1/mu`` and, where
meaningful, a coefficient of variation; all are exact-mean.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

Sampler = Callable[[], float]

#: Distribution names accepted by :func:`make_service_sampler`.
SERVICE_DISTRIBUTIONS = (
    "exponential",
    "deterministic",
    "erlang2",
    "lognormal",
    "hyperexponential",
)


def make_service_sampler(
    distribution: str,
    mean: float,
    cv: float = 1.0,
    rng: np.random.Generator | None = None,
) -> Sampler:
    """A zero-argument sampler of service times with the given mean.

    Parameters
    ----------
    distribution:
        One of :data:`SERVICE_DISTRIBUTIONS`.
    mean:
        Expected service time (``1/mu``).
    cv:
        Coefficient of variation, used by ``lognormal`` (any ``cv > 0``)
        and ``hyperexponential`` (requires ``cv > 1``); the others have
        fixed shape (exponential: 1, deterministic: 0, erlang2:
        ``1/sqrt(2)``).
    rng:
        Random generator (unused by ``deterministic``).
    """
    if mean <= 0:
        raise ValueError("mean service time must be positive")
    if distribution == "deterministic":
        return lambda: mean
    if rng is None:
        raise ValueError(f"{distribution!r} service times need an rng")
    if distribution == "exponential":
        # A scalar draw is already a Python float: bind, don't wrap.
        return partial(rng.exponential, mean)
    if distribution == "erlang2":
        # Two stages of rate 2/mean: mean preserved, cv = 1/sqrt(2).
        return lambda: float(rng.gamma(2.0, mean / 2.0))
    if distribution == "lognormal":
        if cv <= 0:
            raise ValueError("lognormal needs cv > 0")
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        sigma = math.sqrt(sigma2)
        return lambda: float(rng.lognormal(mu, sigma))
    if distribution == "hyperexponential":
        if cv <= 1.0:
            raise ValueError("hyperexponential needs cv > 1")
        # Balanced-means two-phase fit (Allen): p1/mu1 = p2/mu2.
        cv2 = cv * cv
        p1 = 0.5 * (1.0 + math.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
        p2 = 1.0 - p1
        mean1 = mean / (2.0 * p1)
        mean2 = mean / (2.0 * p2)

        def sample() -> float:
            if rng.random() < p1:
                return float(rng.exponential(mean1))
            return float(rng.exponential(mean2))

        return sample
    raise ValueError(
        f"unknown service distribution {distribution!r}; "
        f"expected one of {SERVICE_DISTRIBUTIONS}"
    )
