"""Pick a rejuvenation policy from recorded field data, offline.

An operator rarely gets to A/B-test restart policies in production.
The workflow this example shows instead:

1. "Record" two response-time traces -- one from a healthy period, one
   spanning a degradation episode (here both come from the simulator,
   standing in for production monitoring).
2. Replay every candidate policy over both traces offline
   (``policy.reset()`` then ``policy.observe_many(trace)``, which
   returns the trigger indices):
   * triggers on the healthy trace  = false alarms (pure cost);
   * first trigger on the degraded trace = detection delay.
3. Read the trade-off table and pick.

Run:  python examples/offline_policy_selection.py
"""

import numpy as np

from repro import (
    CLTA,
    PAPER_SLO,
    SARAA,
    SRAA,
    DeterministicThreshold,
    TrendPolicy,
    simulate_mmc_response_times,
)


def record_traces():
    """Healthy M/M/16 traffic, and the same with a degradation onset."""
    healthy = simulate_mmc_response_times(1.6, 30_000, seed=101)
    rng = np.random.default_rng(102)
    onset = 5_000
    degraded = np.concatenate(
        [
            simulate_mmc_response_times(1.6, onset, seed=103),
            # Aged system: a severe (6-sigma) degradation episode, the
            # magnitude a GC backlog produces in the Section-3 model.
            rng.exponential(35.0, size=5_000),
        ]
    )
    return healthy, degraded, onset


def candidates():
    return [
        ("SRAA(2,5,3)", SRAA(PAPER_SLO, 2, 5, 3)),
        ("SARAA(2,5,3)", SARAA(PAPER_SLO, 2, 5, 3)),
        ("CLTA(30)", CLTA(PAPER_SLO, 30, 1.96)),
        ("threshold > 20s", DeterministicThreshold(20.0)),
        ("trend(5,12)", TrendPolicy(sample_size=5, window=12)),
    ]


def replay(policy, trace):
    """Trigger indices of a fresh ``policy`` over a recorded trace."""
    policy.reset()
    return policy.observe_many(trace)


def main() -> None:
    healthy, degraded, onset = record_traces()
    print(
        f"Traces: {healthy.size} healthy observations, "
        f"{degraded.size} spanning a degradation at index {onset}\n"
    )
    header = (
        f"{'policy':<18} {'false alarms':>13} {'healthy gap':>12} "
        f"{'detection delay':>16}"
    )
    print(header)
    print("-" * len(header))
    for name, policy in candidates():
        false_alarms = replay(policy, healthy)
        after_onset = [i for i in replay(policy, degraded) if i >= onset]
        delay = after_onset[0] - onset if after_onset else None
        gap_text = (
            f"{np.diff(false_alarms).mean():.0f}"
            if len(false_alarms) >= 2
            else "-"
        )
        delay_text = f"{delay} obs" if delay is not None else "missed"
        print(
            f"{name:<18} {len(false_alarms):>13} {gap_text:>12} "
            f"{delay_text:>16}"
        )
    print(
        "\nReading: the naive threshold detects instantly but pays "
        "hundreds of false alarms on\nhealthy traffic; the bucket "
        "algorithms detect within tens of observations with none.\n"
        "Offline replay ranks detectors before anything touches "
        "production (the feedback\nloop -- rejuvenation changing "
        "subsequent traffic -- needs the simulator, see\n"
        "examples/ecommerce_comparison.py)."
    )


if __name__ == "__main__":
    main()
