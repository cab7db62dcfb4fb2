"""Pluggable parallel execution of simulation jobs.

The Section-5 evaluation is embarrassingly parallel: every figure is
``configurations x loads x replications`` independent runs.  This
package turns that grid into declarative, picklable
:class:`~repro.exec.jobs.ReplicationJob`\\ s and fans them out through
an :class:`~repro.exec.backends.ExecutionBackend`:

* :class:`~repro.exec.backends.SerialBackend` -- in-process reference.
* :class:`~repro.exec.backends.ProcessPoolBackend` -- process pool via
  ``concurrent.futures``; bit-identical to serial for the same seeds.

Select explicitly (``backend=...``), by name, or via the
``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment variables.  Progress
and wall-clock hooks live in :mod:`repro.exec.progress`.
"""

from repro.exec.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    current_backend,
    make_backend,
    resolve_backend,
    use_backend,
    workers_from_env,
)
from repro.exec.jobs import (
    ArrivalSource,
    PolicySource,
    ReplicationJob,
    build_arrival,
    build_policy,
    execute_job,
    run_jobs,
)
from repro.exec.progress import (
    JobEvent,
    ProgressHook,
    ProgressPrinter,
    StageTimer,
)

__all__ = [
    "ArrivalSource",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "JobEvent",
    "PolicySource",
    "ProcessPoolBackend",
    "ProgressHook",
    "ProgressPrinter",
    "ReplicationJob",
    "SerialBackend",
    "StageTimer",
    "build_arrival",
    "build_policy",
    "current_backend",
    "execute_job",
    "make_backend",
    "resolve_backend",
    "run_jobs",
    "use_backend",
    "workers_from_env",
]
