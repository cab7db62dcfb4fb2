"""Slow capacity erosion under periodic telecom traffic (ref. [3]).

The lineage behind the paper: Avritzer & Weyuker's 1997 study of
telecommunication systems whose capacity degrades smoothly (leaked
resources claim worker capacity one unit at a time) under predictably
periodic traffic.  This example runs that model -- the Section-3 node
reduced to an M/M/c queue, with a ``CapacityErosion`` fault taking its
CPUs one at a time -- and asks which detector family suits *slow
drift*, as opposed to the e-commerce model's abrupt GC stalls:

* the bucket algorithms (SRAA) -- built for shift-by-K-sigma evidence;
* trend detection (Mann-Kendall) -- needs no SLO at all;
* CUSUM -- the control-chart classic for sustained small shifts.

Run:  python examples/telecom_degradation.py
"""

from repro import (
    SRAA,
    CUSUMPolicy,
    ECommerceSystem,
    ServiceLevelObjective,
    SystemConfig,
    TrendPolicy,
)
from repro.ecommerce.workload import PeriodicArrivals
from repro.faults import CapacityErosion

# An 8-worker exchange, mean service 2 s, daily-cycle traffic around
# 2 calls/s, capacity eroding roughly every 3 minutes of operation.
CONFIG = SystemConfig(cpus=8, service_rate=0.5).without_degradation()
EROSION = CapacityErosion(rate_per_s=1 / 180.0, floor=2)
SLO = ServiceLevelObjective(mean=2.0, std=2.0)
TRANSACTIONS = 12_000


def arrivals() -> PeriodicArrivals:
    return PeriodicArrivals(base_rate=2.0, amplitude=0.6, period_s=3_600.0)


def run(label, policy):
    system = ECommerceSystem(
        CONFIG, arrivals(), policy=policy, seed=17, faults=(EROSION,)
    )
    result = system.run(TRANSACTIONS)
    print(
        f"{label:<26} {result.avg_response_time:>7.2f} "
        f"{result.loss_fraction:>8.4f} {result.rejuvenations:>6d}"
    )


def main() -> None:
    print(
        f"Degradable exchange: {CONFIG.cpus} workers, erosion every "
        f"{1 / EROSION.rate_per_s:.0f} s, sinusoidal traffic\n"
    )
    header = f"{'policy':<26} {'avg RT':>7} {'loss':>8} {'rejuv':>6}"
    print(header)
    print("-" * len(header))
    run("no rejuvenation", None)
    run("SRAA (2,3,3)", SRAA(SLO, sample_size=2, n_buckets=3, depth=3))
    run("trend (n=10, w=10)", TrendPolicy(sample_size=10, window=10))
    run("CUSUM (k=0.5, h=5)", CUSUMPolicy(SLO))
    print(
        "\nReading: with smooth drift every detector family works -- the "
        "difference is the\nevidence each requires.  CUSUM and the "
        "buckets use the SLO and fire on sustained\nexceedance; the "
        "trend detector needs no baseline at all, which is exactly what "
        "the\n1997 telecom setting (no calibrated SLA, strong daily "
        "periodicity) wanted."
    )


if __name__ == "__main__":
    main()
