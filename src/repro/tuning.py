"""Parameter selection for the bucket algorithms (the paper's future work).

The conclusions state: "we plan to consider statistical estimation
techniques to determine optimal algorithm parameters in real-time" and
observe that good configurations "use small values of each of the
parameters" rather than investing in one dimension.  This module
provides the offline half of that programme: score a grid of
``(n, K, D)`` configurations against the paper's two assessment axes --
average response time at a high load and transaction loss at a low load
-- and recommend the best trade-off.

The scoring objective is a scalarisation::

    score = avg_RT(high_load) + loss_penalty * loss_fraction(low_load)

with ``loss_penalty`` expressed in seconds of response time per unit of
low-load loss fraction (default 1000: losing 1 % of healthy-load
transactions is as bad as 10 s of high-load response time).  Lower is
better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.sla import ServiceLevelObjective
from repro.core.spec import PolicySpec
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.metrics import ReplicatedResult
from repro.ecommerce.runner import poisson_jobs
from repro.exec.jobs import run_cells


@dataclass(frozen=True)
class ParameterScore:
    """Assessment of one ``(n, K, D)`` configuration."""

    n: int
    K: int
    D: int
    algorithm: str
    high_load_rt: float
    low_load_loss: float
    score: float

    @property
    def label(self) -> str:
        """The paper-style curve label."""
        return f"{self.algorithm}(n={self.n}, K={self.K}, D={self.D})"


def default_grid(product: int = 30) -> List[Tuple[int, int, int]]:
    """All ``(n, K, D)`` with ``n * K * D == product`` (the paper's frame)."""
    if product < 1:
        raise ValueError("product must be >= 1")
    configs = []
    for n in range(1, product + 1):
        if product % n:
            continue
        rest = product // n
        for K in range(1, rest + 1):
            if rest % K:
                continue
            configs.append((n, K, rest // K))
    return configs


class ParameterAdvisor:
    """Grid scoring of bucket-algorithm configurations by simulation.

    Parameters
    ----------
    system_config, slo:
        The system under management and its healthy-behaviour SLO.
    low_load, high_load:
        The paper's two assessment points, in offered-load CPUs
        (defaults 0.5 and 9.0).
    transactions, replications, seed:
        Simulation budget per (configuration, load) cell.
    loss_penalty:
        Seconds of high-load RT one unit of low-load loss is worth.
    """

    def __init__(
        self,
        system_config: SystemConfig,
        slo: ServiceLevelObjective,
        low_load: float = 0.5,
        high_load: float = 9.0,
        transactions: int = 8_000,
        replications: int = 2,
        seed: int = 0,
        loss_penalty: float = 1_000.0,
    ) -> None:
        if transactions < 100:
            raise ValueError("need at least 100 transactions per cell")
        if replications < 1:
            raise ValueError("need at least one replication")
        if loss_penalty < 0:
            raise ValueError("loss penalty must be non-negative")
        self.system_config = system_config
        self.slo = slo
        self.low_load = low_load
        self.high_load = high_load
        self.transactions = transactions
        self.replications = replications
        self.seed = seed
        self.loss_penalty = loss_penalty

    # ------------------------------------------------------------------
    def score(
        self, n: int, K: int, D: int, algorithm: str = "sraa"
    ) -> ParameterScore:
        """Assess one configuration."""
        return self.score_grid([(n, K, D)], algorithm)[0]

    def score_grid(
        self,
        configs: Iterable[Tuple[int, int, int]],
        algorithm: str = "sraa",
    ) -> List[ParameterScore]:
        """Assess a grid in one map; returns scores sorted best-first."""
        if algorithm not in ("sraa", "saraa"):
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected 'sraa' or 'saraa'"
            )
        configs = list(configs)
        cells = run_cells(
            [
                poisson_jobs(
                    self.system_config,
                    load,
                    PolicySpec(algorithm, {"n": n, "K": K, "D": D}, self.slo),
                    self.transactions,
                    self.replications,
                    self.seed,
                )
                for n, K, D in configs
                for load in (self.high_load, self.low_load)
            ]
        )
        scores = []
        for (n, K, D), high, low in zip(configs, cells[::2], cells[1::2]):
            high_rt = ReplicatedResult(runs=high).avg_response_time
            low_loss = ReplicatedResult(runs=low).loss_fraction
            scores.append(
                ParameterScore(
                    n=n,
                    K=K,
                    D=D,
                    algorithm=algorithm,
                    high_load_rt=high_rt,
                    low_load_loss=low_loss,
                    score=high_rt + self.loss_penalty * low_loss,
                )
            )
        return sorted(scores, key=lambda s: s.score)

    def recommend(
        self,
        configs: Sequence[Tuple[int, int, int]] = (),
        algorithm: str = "sraa",
    ) -> ParameterScore:
        """The best configuration on the grid (default: n*K*D = 30)."""
        grid = list(configs) if configs else default_grid(30)
        return self.score_grid(grid, algorithm)[0]
