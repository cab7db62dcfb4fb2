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

from repro._lazy import lazy_exports

_EXPORTS = {
    "BACKEND_NAMES": ".backends",
    "ExecutionBackend": ".backends",
    "ProcessPoolBackend": ".backends",
    "SerialBackend": ".backends",
    "current_backend": ".backends",
    "make_backend": ".backends",
    "resolve_backend": ".backends",
    "use_backend": ".backends",
    "workers_from_env": ".backends",
    "ArrivalSource": ".jobs",
    "PolicySource": ".jobs",
    "ReplicationJob": ".jobs",
    "build_arrival": ".jobs",
    "build_policy": ".jobs",
    "execute_job": ".jobs",
    "run_jobs": ".jobs",
    "JobEvent": ".progress",
    "ProgressHook": ".progress",
    "ProgressPrinter": ".progress",
    "StageTimer": ".progress",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
