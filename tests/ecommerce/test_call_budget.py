"""A ceiling on the Python work the Section-3 node spends per transaction.

Wall-clock throughput on a shared machine wanders by tens of percent,
so this counts something that does not: Python function calls (the
``"call"`` events of :func:`sys.setprofile`; C calls are not counted)
per transaction at load 9 under SRAA(2,5,3).  The count is a property
of the code path alone, and every frame on it costs time.

At seed 2006 over 20k transactions, the node measured 23.5 calls per
transaction before the hot path dropped its forwarding frames (the
``_fire`` wrapper, ``Event.__init__``, the completion lambda, the
submit -> dispatch round trip and the sampling wrappers) and 13.4
after; the ceiling of 15 leaves room for a frame or so of drift while
catching any return of the old path.

The ADAPTIVE detector recomputes its rolling baseline's spread on
every batch.  With one ``OnlineMoments.push`` frame per window value
that cost 48.2 calls per transaction; folding the window in one loop
brought it to 19.9, under a ceiling of 22.
"""

import sys

from repro.core.spec import PolicySpec
from repro.detect import DETECTOR_POLICIES
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.system import ECommerceSystem
from repro.ecommerce.workload import PoissonArrivals

#: Python-level calls per transaction the node may spend.
CEILING = 15.0
ADAPTIVE_CEILING = 22.0
TRANSACTIONS = 20_000


def calls_per_transaction(system: ECommerceSystem, n: int) -> float:
    """Python calls per transaction of ``system.run(n)``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        system.run(n)
    finally:
        sys.setprofile(previous)
    return calls / n


def assert_under_ceiling(policy: PolicySpec, ceiling: float) -> None:
    system = ECommerceSystem(
        PAPER_CONFIG,
        PoissonArrivals(PAPER_CONFIG.arrival_rate_for_load(9.0)),
        policy=policy.build(),
        seed=2006,
    )
    system.run(2_000)  # warm-up: first-call imports and caches
    per_transaction = calls_per_transaction(system, TRANSACTIONS)
    assert per_transaction <= ceiling, (
        f"{per_transaction:.2f} Python calls per transaction "
        f"(ceiling {ceiling})"
    )


def test_node_stays_under_the_call_ceiling():
    assert_under_ceiling(PolicySpec.sraa(2, 5, 3), CEILING)


def test_adaptive_node_stays_under_its_call_ceiling():
    assert_under_ceiling(DETECTOR_POLICIES["ADAPTIVE"], ADAPTIVE_CEILING)


def test_profile_function_is_restored():
    def marker(frame, event, arg):
        pass

    system = ECommerceSystem(
        PAPER_CONFIG, PoissonArrivals(1.0), seed=1
    )
    previous = sys.getprofile()
    sys.setprofile(marker)
    try:
        calls_per_transaction(system, 10)
        assert sys.getprofile() is marker
    finally:
        sys.setprofile(previous)
