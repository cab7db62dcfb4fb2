"""Background campaign jobs behind the serve API.

``POST /api/campaigns`` lands here: the request parameters become a
:class:`Job`, and a daemon thread runs the fault campaign over the
**serial** backend -- determinism first; the serving thread pool is
for HTTP, not simulation fan-out -- with a
:class:`~repro.serve.tap.ServeSpec` attached so subscribers watch it
live.  Validation and the run itself are ``repro faults run``'s own
code (:func:`~repro.faults.campaign.validate_campaign` and
:func:`~repro.faults.campaign.run_request`), so the manager keeps only
the job lifecycle: queue, run lock, cancel and summary.  That module is
imported on first use, so ``repro serve`` starts without the simulation
code behind it.  Same seed, same parameters -> same manifest hash and
the same outcome block as the CLI, byte for byte; pinned by
``tests/serve/test_serve_jobs.py``.

Execution is serialised through one manager-wide lock: jobs queue up
rather than interleave, so ledger entry ids stay sequential and two
submitted campaigns cannot contend for cores.  Status polling
(``GET /api/campaigns/<id>``) reads plain snapshots under the same
lock discipline -- the HTTP layer never touches live simulation state.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.faults.campaign import CampaignRequest

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: The :class:`~repro.faults.score.PolicyScore` fields a job summary
#: reports per (scenario, policy) cell.
SUMMARY_SCORE_KEYS = (
    "scenario", "policy", "detected", "missed", "false_alarms",
    "mean_loss_fraction", "mean_response_time_s",
)


class JobCancelled(Exception):
    """Raised inside a job body when :meth:`JobManager.cancel` hit it."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class Job:
    """One background run: parameters in, status + ledger entry out."""

    id: str
    kind: str
    params: Dict[str, Any]
    #: Who asked for this job: ``"api"`` or ``"schedule:<name>"``.
    source: str = "api"
    #: Virtual-clock fire time for scheduler-launched jobs.
    scheduled_for: Optional[float] = None
    status: str = QUEUED
    submitted_utc: str = field(default_factory=_utc_now)
    started_utc: Optional[str] = None
    finished_utc: Optional[str] = None
    error: Optional[str] = None
    #: Small result digest (score rows / intervals), JSON-safe.
    summary: Optional[Dict[str, Any]] = None
    entry_id: Optional[str] = None
    manifest_hash: Optional[str] = None
    cancel_requested: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe snapshot (a copy: the job keeps changing)."""
        snapshot = asdict(self)
        del snapshot["cancel_requested"]
        return snapshot


class JobManager:
    """Submission, execution and status of background serve jobs."""

    def __init__(self, broker: Any = None, ledger: Any = None):
        self.broker = broker
        #: Run ledger jobs record into (``repro serve`` shares its
        #: own); ``None`` opens the default ledger at record time.
        self.ledger = ledger
        self._lock = threading.Lock()
        #: Serialises actual simulation work across job threads.
        self._run_lock = threading.Lock()
        self._jobs: List[Job] = []
        self._counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [job.to_dict() for job in self._jobs]

    def get(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            for job in self._jobs:
                if job.id == job_id:
                    return job.to_dict()
        raise LookupError(f"no job {job_id!r}")

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Block until the job leaves the queued/running states."""
        import time

        deadline = time.monotonic() + timeout_s
        while True:
            snapshot = self.get(job_id)
            if snapshot["status"] in TERMINAL_STATES:
                return snapshot
            if time.monotonic() >= deadline:
                return snapshot
            time.sleep(0.02)

    def has_active(self, source: Optional[str] = None) -> bool:
        """True while any (matching) job is queued or running."""
        with self._lock:
            return any(
                job.status in (QUEUED, RUNNING)
                and (source is None or job.source == source)
                for job in self._jobs
            )

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; returns the job's current snapshot.

        A queued job flips to ``cancelled`` the moment its thread wins
        the run lock (it never starts simulating).  A running campaign
        aborts between replication jobs via the progress hook -- partial
        results are discarded and nothing is ledger-recorded.  Jobs
        already terminal are left untouched.
        """
        with self._lock:
            for job in self._jobs:
                if job.id == job_id:
                    if job.status not in TERMINAL_STATES:
                        job.cancel_requested = True
                    break
            else:
                raise LookupError(f"no job {job_id!r}")
        return self.get(job_id)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_campaign(
        self,
        params: Dict[str, Any],
        source: str = "api",
        scheduled_for: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Validate and launch a fault campaign; returns the job dict.

        ``params`` is a ``POST /api/campaigns`` body (fields and
        defaults: :class:`~repro.faults.campaign.CampaignRequest`).
        The validator's ``ValueError`` propagates -- the HTTP layer
        maps it to a 400 *before* a job is created.
        """
        request = self.validate_campaign(params)
        with self._lock:
            self._counter += 1
            job = Job(
                f"job-{self._counter:04d}",
                "campaign",
                request._asdict(),
                source=source,
                scheduled_for=scheduled_for,
            )
            self._jobs.append(job)
        threading.Thread(
            target=self._execute,
            args=(job, request),
            name=f"serve-job-{job.id}",
            daemon=True,
        ).start()
        return job.to_dict()

    @staticmethod
    def validate_campaign(params: Dict[str, Any]) -> CampaignRequest:
        """:func:`~repro.faults.campaign.validate_campaign`.

        The scheduler validates specs at add time so a bad schedule is
        a 400 at POST, not a failed job at tick time.
        """
        from repro.faults.campaign import validate_campaign

        return validate_campaign(params)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, job: Job, request: CampaignRequest) -> None:
        with self._run_lock:
            with self._lock:
                if job.cancel_requested:
                    # Cancelled while queued: never starts simulating.
                    job.status = CANCELLED
                    job.finished_utc = _utc_now()
                    cancelled_in_queue = True
                else:
                    job.status = RUNNING
                    job.started_utc = _utc_now()
                    cancelled_in_queue = False
            if cancelled_in_queue:
                if self.broker is not None:
                    self.broker.publish(
                        "job.finished",
                        {"job": job.id, "status": CANCELLED, "entry_id": None},
                    )
                return
            if self.broker is not None:
                self.broker.publish("job.started", {"job": job.id})
            try:
                self._run_campaign(job, request)
            except JobCancelled:
                with self._lock:
                    job.status = CANCELLED
                    job.finished_utc = _utc_now()
            except Exception as error:  # noqa: BLE001 - reported via API
                with self._lock:
                    job.status = FAILED
                    job.error = f"{type(error).__name__}: {error}"
                    job.finished_utc = _utc_now()
                traceback.print_exc()
            else:
                with self._lock:
                    job.status = DONE
                    job.finished_utc = _utc_now()
            if self.broker is not None:
                snapshot = self.get(job.id)
                self.broker.publish(
                    "job.finished",
                    {
                        "job": job.id,
                        "status": snapshot["status"],
                        "entry_id": snapshot["entry_id"],
                    },
                )

    def _run_campaign(self, job: Job, request: CampaignRequest) -> None:
        import repro.faults.campaign as campaigns
        from repro.exec.backends import SerialBackend
        from repro.obs.ledger import Ledger
        from repro.obs.live import RecorderSpec
        from repro.serve.tap import ServeSpec

        def _abort_on_cancel(event: Any) -> None:
            # Runs between replication jobs on the serial backend; a
            # cancel lands at the next job boundary, never mid-run.
            if job.cancel_requested:
                raise JobCancelled(job.id)

        campaign, parts = campaigns.run_request(
            request,
            backend=SerialBackend(),
            progress=_abort_on_cancel,
            live=ServeSpec(
                recorder=RecorderSpec(slo_s=request.slo),
                broker=self.broker,
                run_tag=job.id,
            ),
        )
        ledger = self.ledger if self.ledger is not None else Ledger()
        entry = ledger.append(*parts)
        with self._lock:
            job.entry_id = entry["id"]
            job.manifest_hash = entry["manifest"]["manifest_hash"]
            job.summary = {
                "table": campaign.format_table(),
                "scores": [
                    {key: getattr(score, key) for key in SUMMARY_SCORE_KEYS}
                    for score in campaign.scores
                ],
            }
