"""Run-length table for the paper's SRAA configurations (beyond the paper).

For each Section-5.1/5.2 configuration, compute exactly (no simulation):

* the **healthy ARL** -- expected observations between false triggers
  when the system is a healthy M/M/16 at the maximum load of interest
  (the analytical counterpart of Fig. 10's low-load loss ordering);
* the **detection delay** -- expected observations to trigger after the
  response-time distribution right-shifts by 1, 2 or 4 sigma (the
  analytical counterpart of Fig. 9's response-time ordering).

The exceedance probabilities per bucket come from the exact eq.-4 law
of the batch mean; shifted scenarios translate that law.  Together the
two columns quantify the burst-tolerance / detection-latency trade-off
the paper explores empirically.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.arl import BucketChainARL, sraa_exceedance_probabilities
from repro.core.buckets import linear_acceleration
from repro.ctmc.sample_mean import SampleMeanChain
from repro.experiments.scale import Scale
from repro.experiments.sraa_figs import CONFIGS_NKD15, CONFIGS_SAMPLE_DOUBLED
from repro.experiments.tables import ExperimentResult, Series, Table
from repro.queueing.mmc import MMcModel

#: Healthy reference: M/M/16 at the maximum load of interest.
HEALTHY_MODEL = MMcModel(arrival_rate=1.6, service_rate=0.2, servers=16)
SHIFTS_SIGMA: Tuple[float, ...] = (1.0, 2.0, 4.0)
MU_X = 5.0
SIGMA_X = 5.0


def _config_run_lengths(n: int, K: int, D: int) -> Tuple[float, ...]:
    """(healthy ARL, delay@1sigma, delay@2sigma, delay@4sigma) in observations."""
    chain = SampleMeanChain(HEALTHY_MODEL, n)
    arl = BucketChainARL(K, D)
    healthy_probs = sraa_exceedance_probabilities(
        chain.sf, MU_X, SIGMA_X, K
    )
    values = [arl.mean_observations_to_trigger(healthy_probs, n)]
    for shift in SHIFTS_SIGMA:
        # A right-shift of the RT law by shift*sigma translates the
        # batch-mean law by the same amount.
        shifted_sf = lambda x, s=shift: chain.sf(x - s * SIGMA_X)  # noqa: E731
        probs = sraa_exceedance_probabilities(shifted_sf, MU_X, SIGMA_X, K)
        values.append(arl.mean_observations_to_trigger(probs, n))
    return tuple(values)


def saraa_run_length(
    n_orig: int, K: int, D: int, shift_sigma: float = 0.0
) -> float:
    """Expected observations for SARAA to trigger, exactly.

    Per level ``N``: batch size from the paper's linear schedule, target
    ``mu + N sigma / sqrt(n_N)``, exceedance probability from the exact
    law of the mean of ``n_N`` response times (right-shifted by
    ``shift_sigma`` standard deviations for degraded scenarios).  The
    level-dependent batch sizes enter as per-level costs.
    """
    batch_sizes = [linear_acceleration(n_orig, level, K) for level in range(K)]
    chains = {n: SampleMeanChain(HEALTHY_MODEL, n) for n in set(batch_sizes)}
    probs = []
    for level in range(K):
        n_level = batch_sizes[level]
        target = MU_X + level * SIGMA_X / np.sqrt(n_level)
        probs.append(chains[n_level].sf(target - shift_sigma * SIGMA_X))
    arl = BucketChainARL(K, D)
    return arl.mean_cost_to_trigger(np.array(probs), batch_sizes)


def run_arl(scale: Scale, seed: int = 0) -> ExperimentResult:
    """Exact run lengths for the n*K*D = 15 and 30 configurations."""
    configs: Sequence[Tuple[int, int, int]] = tuple(CONFIGS_NKD15) + tuple(
        CONFIGS_SAMPLE_DOUBLED
    )
    table = Table(
        title=(
            "Exact SRAA run lengths (observations), healthy M/M/16 at "
            "lambda=1.6 and right-shifted alternatives"
        ),
        x_label="config_index",
        y_label="observations",
    )
    labels = Series(label="n*K*D")
    healthy = Series(label="healthy ARL")
    delay_series = [
        Series(label=f"delay @ +{shift:g} sigma") for shift in SHIFTS_SIGMA
    ]
    notes = []
    cap = 1e12  # 'effectively never' -- keeps the table printable
    for index, (n, K, D) in enumerate(configs):
        run_lengths = _config_run_lengths(n, K, D)
        labels.add(index, n * K * D)
        healthy.add(index, min(run_lengths[0], cap))
        for series, value in zip(delay_series, run_lengths[1:]):
            series.add(index, min(value, cap))
        notes.append(f"index {index}: (n={n}, K={K}, D={D})")
    notes.append(f"values capped at {cap:g} ('effectively never')")
    table.add_series(labels)
    table.add_series(healthy)
    for series in delay_series:
        table.add_series(series)
    table.notes.extend(notes)

    # SARAA vs SRAA: the acceleration advantage, exactly.
    saraa_table = Table(
        title=(
            "SARAA vs SRAA expected detection delay (observations), "
            "Fig. 15 configurations"
        ),
        x_label="config_index",
        y_label="observations",
    )
    saraa_healthy = Series(label="SARAA healthy ARL")
    saraa_delay = Series(label="SARAA delay @ +4 sigma")
    sraa_delay = Series(label="SRAA delay @ +4 sigma")
    saraa_notes = []
    fig15_configs = ((2, 3, 5), (2, 5, 3), (6, 5, 1), (10, 3, 1))
    for index, (n, K, D) in enumerate(fig15_configs):
        saraa_healthy.add(index, min(saraa_run_length(n, K, D), cap))
        saraa_delay.add(
            index, min(saraa_run_length(n, K, D, shift_sigma=4.0), cap)
        )
        sraa_delay.add(index, min(_config_run_lengths(n, K, D)[3], cap))
        saraa_notes.append(f"index {index}: (n={n}, K={K}, D={D})")
    saraa_table.add_series(saraa_healthy)
    saraa_table.add_series(saraa_delay)
    saraa_table.add_series(sraa_delay)
    saraa_table.notes.extend(saraa_notes)

    return ExperimentResult(
        experiment_id="arl",
        description=(
            "Exact false-trigger intervals and detection delays of the "
            "SRAA configurations (run-length analysis; beyond the paper)"
        ),
        tables=[table, saraa_table],
        paper_expectations=[
            "SARAA's standard-error targets and shrinking batches give "
            "shorter severe-shift delays than SRAA at the same (n,K,D) "
            "-- the exact mechanism behind Fig. 15",
            "analytical counterpart of Figs. 9-11: K=1 configurations "
            "have short healthy ARLs (frequent false triggers -> low-"
            "load loss) but short detection delays (good high-load RT); "
            "multi-bucket configurations have astronomically long "
            "healthy ARLs and longer delays",
            "doubling n roughly doubles every delay (Fig. 11's "
            "mechanism)",
        ],
    )
