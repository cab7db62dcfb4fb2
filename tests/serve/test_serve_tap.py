"""ServeTap: tracer-protocol compliance, publishing, pure observation.

The acceptance pin lives here: a simulation with a ``ServeTap``
publishing into a broker (with a subscriber attached) produces
bit-identical results to the same simulation with no tap at all.
"""

import pickle

import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import SerialBackend
from repro.faults.campaign import run_campaign
from repro.faults.zoo import get_scenario
from repro.obs.live import LiveSpec, RecorderSpec
from repro.serve import EventBroker, ServeSpec, ServeTap


def make_tap(**kwargs):
    return ServeSpec(**kwargs).build()


class TestProtocol:
    def test_is_a_live_tap(self):
        tap = make_tap()
        assert tap.spans and tap.decisions
        assert not tap.engine and not tap.lifecycle
        assert len(tap.payload()) == 0

    def test_build_without_broker_degrades_gracefully(self):
        tap = make_tap()
        tap.emit(1.0, "fault.injected", "campaign", kind="surge")
        assert tap.aggregator.snapshot()["faults"] == 1

    def test_spec_with_broker_is_unpicklable_on_purpose(self):
        spec = ServeSpec(broker=EventBroker())
        with pytest.raises(Exception):
            pickle.dumps(spec)  # keeps serve jobs in the parent process


class TestPublishing:
    def test_incident_types_forwarded_in_order(self):
        broker = EventBroker()
        subscription = broker.subscribe()
        tap = make_tap(broker=broker, run_tag="r1")
        tap.emit(1.0, "fault.injected", "campaign", kind="surge")
        tap.emit(2.0, "request.complete", "system", response_time=0.5)
        tap.emit(3.0, "policy.trigger", "policy:sraa", level=2)
        tap.emit(4.0, "system.rejuvenation", "node0", lost=1)
        tap.emit(5.0, "fault.cleared", "campaign", kind="surge")
        kinds = [subscription.get(timeout=1.0)["event"] for _ in range(4)]
        assert kinds == [
            "fault.injected",
            "policy.trigger",
            "system.rejuvenation",
            "fault.cleared",
        ]

    def test_payload_carries_ts_source_data_and_run_tag(self):
        broker = EventBroker()
        subscription = broker.subscribe()
        tap = make_tap(broker=broker, run_tag="job-0007")
        tap.emit(4.5, "fault.injected", "campaign", kind="surge", x=2)
        data = subscription.get(timeout=1.0)["data"]
        assert data["ts"] == 4.5
        assert data["source"] == "campaign"
        assert data["kind"] == "surge"
        assert data["x"] == 2
        assert data["run"] == "job-0007"

    def test_request_traffic_not_forwarded_as_incidents(self):
        broker = EventBroker()
        subscription = broker.subscribe()
        tap = make_tap(broker=broker)
        for i in range(10):
            tap.emit(float(i), "request.complete", "system",
                     response_time=0.1)
        import queue

        with pytest.raises(queue.Empty):
            subscription.get(timeout=0.01)

    def test_snapshot_published_every_n_completions(self):
        broker = EventBroker()
        subscription = broker.subscribe()
        tap = make_tap(broker=broker, snapshot_every=5)
        for i in range(12):
            tap.emit(float(i), "request.complete", "system",
                     response_time=0.1)
        first = subscription.get(timeout=1.0)
        second = subscription.get(timeout=1.0)
        assert first["event"] == second["event"] == "live.snapshot"
        assert first["data"]["completed"] == 5
        assert second["data"]["completed"] == 10
        assert broker.latest_snapshot["completed"] == 10

    def test_flight_dump_notices(self):
        broker = EventBroker()
        subscription = broker.subscribe()
        tap = make_tap(
            broker=broker, recorder=RecorderSpec(cooldown_s=0.0)
        )
        tap.emit(1.0, "request.complete", "system", response_time=1.0)
        tap.emit(2.0, "system.rejuvenation", "node0", lost=0)
        rejuvenation = subscription.get(timeout=1.0)
        dump = subscription.get(timeout=1.0)
        assert rejuvenation["event"] == "system.rejuvenation"
        assert dump["event"] == "flight.dump"
        assert dump["data"]["reason"] == "system.rejuvenation"
        assert dump["data"]["records"] >= 1

    def test_freeze_publishes_final_snapshot(self):
        broker = EventBroker()
        tap = make_tap(broker=broker, snapshot_every=10 ** 9)
        tap.emit(1.0, "request.complete", "system", response_time=0.5)
        assert broker.latest_snapshot is None
        tap.freeze()
        assert broker.latest_snapshot["completed"] == 1

    def test_snapshot_payload_slo_fields(self):
        tap = make_tap(recorder=RecorderSpec(slo_s=0.2, cooldown_s=0.0))
        tap.emit(1.0, "request.complete", "system", response_time=0.5)
        payload = tap.snapshot_payload()
        assert payload["slo_s"] == 0.2
        assert payload["slo_breaches"] == 1
        assert payload["flight_dumps"] == 1

    def test_clear_resets_publish_counters(self):
        broker = EventBroker()
        tap = make_tap(broker=broker, snapshot_every=2)
        tap.emit(1.0, "request.complete", "system", response_time=0.1)
        tap.clear()
        tap.emit(2.0, "request.complete", "system", response_time=0.1)
        assert broker.latest_snapshot is None  # counter restarted


def _result_key(run):
    return (
        run.arrivals,
        run.completed,
        run.lost,
        run.avg_response_time,
        run.rt_std,
        run.max_response_time,
        run.loss_fraction,
        run.gc_count,
        run.rejuvenations,
        run.sim_duration_s,
        run.rejuvenation_times,
    )


def _replicate(live):
    return run_replications(
        PAPER_CONFIG,
        arrival=ArrivalSpec.poisson(
            PAPER_CONFIG.arrival_rate_for_load(9.0)
        ),
        policy=PolicySpec.sraa(2, 5, 3),
        n_transactions=400,
        replications=2,
        seed=20,
        backend=SerialBackend(),
        live=live,
    )


class TestPureObserver:
    """ISSUE acceptance: serving must never perturb the simulation."""

    def test_replications_bit_identical_with_and_without_tap(self):
        broker = EventBroker()
        broker.subscribe()  # a live subscriber, never drained
        unserved = _replicate(live=None)
        served = _replicate(
            live=ServeSpec(
                broker=broker,
                run_tag="pin",
                snapshot_every=50,
                recorder=RecorderSpec(slo_s=30.0, cooldown_s=0.0),
            )
        )
        assert [_result_key(r) for r in unserved.runs] == [
            _result_key(r) for r in served.runs
        ]
        assert broker.published > 0  # the tap really was publishing

    def test_served_tap_matches_plain_live_tap_state(self):
        base = _replicate(live=LiveSpec())
        served = _replicate(live=ServeSpec(broker=EventBroker()))
        a, b = base.merged_live(), served.merged_live()
        assert a.snapshot() == b.snapshot()

    def test_campaign_scores_bit_identical_under_serving(self):
        scenario = get_scenario("aging_onset", 300.0)
        policies = {"SRAA": PolicySpec.sraa(2, 5, 3)}
        broker = EventBroker()
        broker.subscribe()
        unserved = run_campaign(
            scenarios=[scenario], policies=policies, replications=2,
            seed=3, backend=SerialBackend(),
        )
        served = run_campaign(
            scenarios=[scenario], policies=policies, replications=2,
            seed=3, backend=SerialBackend(),
            live=ServeSpec(broker=broker, run_tag="c"),
        )
        assert unserved.scores == served.scores
