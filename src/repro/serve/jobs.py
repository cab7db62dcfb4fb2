"""Background campaign/simulation jobs behind the serve API.

``POST /api/campaigns`` lands here: the request parameters become a
:class:`Job`, a daemon thread runs the fault campaign (or one-off
simulation) over the **serial** backend -- determinism first; the
serving thread pool is for HTTP, not simulation fan-out -- with a
:class:`~repro.serve.tap.ServeSpec` attached so subscribers watch it
live, and the finished result is recorded into the run ledger exactly
the way the CLI records it (same manifest builders, same outcome
blocks).  Same seed, same parameters -> same manifest hash and the
same outcome block, byte for byte; pinned by
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
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class JobCancelled(Exception):
    """Raised inside a job body when :meth:`JobManager.cancel` hit it."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Job:
    """One background run: parameters in, status + ledger entry out."""

    __slots__ = (
        "id",
        "kind",
        "params",
        "status",
        "source",
        "scheduled_for",
        "submitted_utc",
        "started_utc",
        "finished_utc",
        "error",
        "summary",
        "entry_id",
        "manifest_hash",
        "cancel_requested",
    )

    def __init__(
        self,
        job_id: str,
        kind: str,
        params: Dict[str, Any],
        source: str = "api",
        scheduled_for: Optional[float] = None,
    ):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.status = QUEUED
        #: Who asked for this job: ``"api"`` or ``"schedule:<name>"``.
        self.source = source
        #: Virtual-clock fire time for scheduler-launched jobs.
        self.scheduled_for = scheduled_for
        self.submitted_utc = _utc_now()
        self.started_utc: Optional[str] = None
        self.finished_utc: Optional[str] = None
        self.error: Optional[str] = None
        #: Small result digest (score rows / intervals), JSON-safe.
        self.summary: Optional[Dict[str, Any]] = None
        self.entry_id: Optional[str] = None
        self.manifest_hash: Optional[str] = None
        self.cancel_requested = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "source": self.source,
            "scheduled_for": self.scheduled_for,
            "submitted_utc": self.submitted_utc,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
            "error": self.error,
            "summary": self.summary,
            "entry_id": self.entry_id,
            "manifest_hash": self.manifest_hash,
        }


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

        Accepted parameters (all optional except none):

        ``scenarios``  "all", a CSV string, or a list of zoo names
        ``policies``   CSV string or list (default "SRAA,SARAA,CLTA")
        ``replications``  per-cell replications (default 2)
        ``seed``       campaign master seed (default 0)
        ``horizon``    scenario horizon in simulated seconds (default 900)
        ``slo``        response-time SLO in seconds (flight-dump trigger)

        Raises ``ValueError`` on anything unresolvable -- the HTTP
        layer maps that to a 400 *before* a job is created.
        """
        normalised = self._validate_campaign(params)
        job = self._new_job(
            "campaign", normalised, source=source, scheduled_for=scheduled_for
        )
        thread = threading.Thread(
            target=self._execute,
            args=(job, self._run_campaign),
            name=f"serve-job-{job.id}",
            daemon=True,
        )
        thread.start()
        return job.to_dict()

    def _new_job(
        self,
        kind: str,
        params: Dict[str, Any],
        source: str = "api",
        scheduled_for: Optional[float] = None,
    ) -> Job:
        with self._lock:
            self._counter += 1
            job = Job(
                f"job-{self._counter:04d}",
                kind,
                params,
                source=source,
                scheduled_for=scheduled_for,
            )
            self._jobs.append(job)
        return job

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_campaign(params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.faults.campaign import resolve_policies
        from repro.faults.zoo import scenario_names

        if not isinstance(params, dict):
            raise ValueError("campaign parameters must be a JSON object")
        known = {
            "scenarios", "policies", "replications", "seed", "horizon",
            "slo",
        }
        unknown = set(params) - known
        if unknown:
            raise ValueError(
                f"unknown campaign parameter(s): {sorted(unknown)}"
            )
        scenarios = params.get("scenarios", "all")
        if isinstance(scenarios, str):
            scenarios = (
                list(scenario_names())
                if scenarios == "all"
                else [s.strip() for s in scenarios.split(",") if s.strip()]
            )
        if not isinstance(scenarios, list) or not scenarios:
            raise ValueError("scenarios must be 'all', a CSV, or a list")
        valid = set(scenario_names())
        for name in scenarios:
            if name not in valid:
                raise ValueError(
                    f"unknown scenario {name!r}; "
                    f"known: {', '.join(sorted(valid))}"
                )
        policies = params.get("policies", "SRAA,SARAA,CLTA")
        if isinstance(policies, list):
            policies = ",".join(policies)
        resolve_policies(policies)  # raises ValueError on bad names
        replications = int(params.get("replications", 2))
        if replications < 1:
            raise ValueError("replications must be >= 1")
        horizon = float(params.get("horizon", 900.0))
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        slo = params.get("slo")
        return {
            "scenarios": scenarios,
            "policies": policies,
            "replications": replications,
            "seed": int(params.get("seed", 0)),
            "horizon": horizon,
            "slo": None if slo is None else float(slo),
        }

    #: Public alias -- the scheduler validates specs at add time so a
    #: bad schedule is a 400 at POST, not a failed job at tick time.
    validate_campaign = _validate_campaign

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, job: Job, body) -> None:
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
                body(job)
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

    def _run_campaign(self, job: Job) -> None:
        from repro.exec.backends import SerialBackend
        from repro.faults.campaign import resolve_policies, run_campaign
        from repro.faults.zoo import get_scenario
        from repro.obs.ledger import (
            Ledger,
            campaign_manifest,
            campaign_outcomes,
        )
        from repro.obs.live import RecorderSpec
        from repro.serve.tap import ServeSpec

        params = job.params
        scenarios = [
            get_scenario(name, params["horizon"])
            for name in params["scenarios"]
        ]
        policies = resolve_policies(params["policies"])
        live = ServeSpec(
            recorder=RecorderSpec(slo_s=params["slo"]),
            broker=self.broker,
            run_tag=job.id,
        )
        import time

        def _abort_on_cancel(event: Any) -> None:
            # Runs between replication jobs on the serial backend; a
            # cancel lands at the next job boundary, never mid-run.
            if job.cancel_requested:
                raise JobCancelled(job.id)

        started = time.perf_counter()
        campaign = run_campaign(
            scenarios=scenarios,
            policies=policies,
            replications=params["replications"],
            seed=params["seed"],
            backend=SerialBackend(),
            live=live,
            progress=_abort_on_cancel,
        )
        wall_clock_s = time.perf_counter() - started
        manifest = campaign_manifest(
            scenarios,
            policies,
            params["replications"],
            params["seed"],
            backend=SerialBackend(),
        )
        ledger = self.ledger if self.ledger is not None else Ledger()
        entry = ledger.append(
            manifest,
            campaign_outcomes(campaign),
            {"wall_clock_s": wall_clock_s},
        )
        with self._lock:
            job.entry_id = entry["id"]
            job.manifest_hash = entry["manifest"]["manifest_hash"]
            job.summary = {
                "table": campaign.format_table(),
                "scores": [
                    {
                        "scenario": score.scenario,
                        "policy": score.policy,
                        "detected": score.detected,
                        "missed": score.missed,
                        "false_alarms": score.false_alarms,
                        "mean_loss_fraction": score.mean_loss_fraction,
                        "mean_response_time_s": score.mean_response_time_s,
                    }
                    for score in campaign.scores
                ],
            }
