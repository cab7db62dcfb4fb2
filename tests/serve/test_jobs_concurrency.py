"""Job manager concurrency: serialisation, cancellation, overlap ticks.

The run lock must keep two submitted campaigns from ever simulating at
the same time; cancellation must be honoured both while queued (the
job never starts) and mid-campaign (the progress hook aborts between
replication jobs, and nothing is ledger-recorded).

Tests that need a job still active when they act on it hold it there
with :class:`BoundaryGate` instead of racing the simulation.
"""

import threading
import time

import pytest

import repro.faults.campaign as campaigns
from repro.obs.ledger import Ledger
from repro.obs.sentinel import ScheduleSpec, Scheduler
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    JobManager,
)

#: Fast single-cell campaign.
QUICK = {
    "scenarios": "aging_onset",
    "policies": "SRAA",
    "replications": 1,
    "seed": 3,
    "horizon": 300,
}

#: Several replications, so cancellation has job boundaries to land on.
LONG = dict(QUICK, replications=6, horizon=900)


class BoundaryGate:
    """Holds every campaign at its first job boundary until released.

    The boundary is where the manager's progress hook checks for a
    cancel, so a job held there is ``RUNNING`` and a cancel issued
    before :meth:`release` is certain to land.
    """

    def __init__(self):
        self.reached = threading.Event()
        self.released = threading.Event()

    def hold(self, progress):
        def held(event):
            self.reached.set()
            assert self.released.wait(timeout=180.0), "gate never released"
            progress(event)

        return held

    def release(self):
        self.released.set()


@pytest.fixture
def gate(monkeypatch):
    gate = BoundaryGate()
    run_request = campaigns.run_request

    def gated(request, *, progress, **kwargs):
        return run_request(request, progress=gate.hold(progress), **kwargs)

    monkeypatch.setattr(campaigns, "run_request", gated)
    yield gate
    gate.release()  # never leave a runner thread parked


class TestSerialisation:
    def test_only_one_job_runs_at_a_time(self):
        manager = JobManager()
        first = manager.submit_campaign(dict(QUICK))
        second = manager.submit_campaign(dict(QUICK, seed=4))
        saw_running = False
        while True:
            statuses = [j["status"] for j in manager.jobs()]
            assert statuses.count(RUNNING) <= 1
            if RUNNING in statuses:
                saw_running = True
            if all(s == DONE for s in statuses):
                break
            time.sleep(0.005)
        assert saw_running
        done_first = manager.get(first["id"])
        done_second = manager.get(second["id"])
        assert done_first["status"] == done_second["status"] == DONE
        assert done_first["entry_id"] != done_second["entry_id"]

    def test_overlapping_launches_all_complete(self):
        manager = JobManager()
        jobs = [
            manager.submit_campaign(dict(QUICK, seed=seed))
            for seed in range(3)
        ]
        finals = [manager.wait(j["id"], timeout_s=180.0) for j in jobs]
        assert [f["status"] for f in finals] == [DONE] * 3
        # Serialised execution keeps ledger entries sequential.
        entries = Ledger().entries()
        assert len(entries) == 3


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, gate):
        manager = JobManager()
        blocker = manager.submit_campaign(dict(LONG))
        queued = manager.submit_campaign(dict(QUICK, seed=9))
        assert queued["status"] == QUEUED
        assert gate.reached.wait(timeout=60.0)
        snapshot = manager.cancel(queued["id"])
        assert snapshot["status"] in (QUEUED, CANCELLED)
        gate.release()
        final = manager.wait(queued["id"], timeout_s=180.0)
        assert final["status"] == CANCELLED
        assert final["entry_id"] is None
        assert final["started_utc"] is None  # never simulated
        manager.cancel(blocker["id"])
        manager.wait(blocker["id"], timeout_s=180.0)

    def test_cancel_running_campaign_discards_results(self, gate):
        manager = JobManager()
        job = manager.submit_campaign(dict(LONG))
        assert gate.reached.wait(timeout=60.0)
        assert manager.get(job["id"])["status"] == RUNNING
        manager.cancel(job["id"])
        gate.release()
        final = manager.wait(job["id"], timeout_s=180.0)
        assert final["status"] == CANCELLED
        assert final["entry_id"] is None
        assert final["summary"] is None
        # Cancelled campaigns are never ledger-recorded.
        assert Ledger().entries() == []

    def test_cancel_unknown_job_raises(self):
        with pytest.raises(LookupError):
            JobManager().cancel("job-9999")

    def test_cancel_finished_job_is_a_no_op(self):
        manager = JobManager()
        job = manager.submit_campaign(dict(QUICK))
        final = manager.wait(job["id"], timeout_s=180.0)
        assert final["status"] == DONE
        snapshot = manager.cancel(job["id"])
        assert snapshot["status"] == DONE  # terminal states stay put

    def test_job_finished_event_for_cancelled_job_has_no_entry(self, gate):
        from repro.serve.broker import EventBroker

        broker = EventBroker()
        subscription = broker.subscribe()
        manager = JobManager(broker=broker)
        blocker = manager.submit_campaign(dict(LONG))
        victim = manager.submit_campaign(dict(QUICK, seed=9))
        assert gate.reached.wait(timeout=60.0)
        manager.cancel(victim["id"])
        manager.cancel(blocker["id"])
        gate.release()
        manager.wait(victim["id"], timeout_s=180.0)
        manager.wait(blocker["id"], timeout_s=180.0)
        finished = []
        while True:
            try:
                event = subscription.get(timeout=1.0)
            except Exception:
                break
            if event["event"] == "job.finished":
                finished.append(event["data"])
            if len(finished) >= 2:
                break
        assert {f["status"] for f in finished} == {CANCELLED}
        assert all(f["entry_id"] is None for f in finished)
        subscription.close()


class TestTicksDuringRunningJobs:
    def schedule(self, on_overlap):
        return ScheduleSpec(
            name="recurring",
            campaign=dict(LONG),
            every_s=10.0,
            on_overlap=on_overlap,
        )

    def test_skip_policy_skips_while_previous_job_is_active(self, gate):
        manager = JobManager()
        scheduler = Scheduler(manager)
        scheduler.add(self.schedule("skip"), now=0.0)
        launched = scheduler.tick(10.0)
        assert len(launched) == 1
        # The campaign is held at a job boundary; the next two due
        # ticks skip.
        assert gate.reached.wait(timeout=60.0)
        assert scheduler.tick(20.0) == []
        assert scheduler.tick(30.0) == []
        state = scheduler.get("recurring")
        assert state["skipped"] == 2
        assert state["runs"] == 1
        manager.cancel(launched[0]["id"])
        gate.release()
        manager.wait(launched[0]["id"], timeout_s=180.0)

    def test_queue_policy_lets_the_run_lock_serialise(self, gate):
        manager = JobManager()
        scheduler = Scheduler(manager)
        scheduler.add(self.schedule("queue"), now=0.0)
        first = scheduler.tick(10.0)
        second = scheduler.tick(20.0)
        assert len(first) == len(second) == 1
        # The second launch waits on the run lock rather than overlap.
        assert second[0]["status"] in (QUEUED, RUNNING)
        state = scheduler.get("recurring")
        assert state["runs"] == 2
        assert state["skipped"] == 0
        assert gate.reached.wait(timeout=60.0)
        for job in first + second:
            manager.cancel(job["id"])
        gate.release()
        for job in first + second:
            assert manager.wait(job["id"], timeout_s=180.0)["status"] == (
                CANCELLED
            )
