"""``repro.obs.sentinel``: the continuous assurance plane.

The paper's loop -- monitor, filter, act -- runs *inside* a single
simulation.  This package closes the same loop one level up, over the
system of runs itself:

* :mod:`~repro.obs.sentinel.schedule` launches recurring campaigns from
  declarative specs (interval or cron) through the serve
  :class:`~repro.serve.jobs.JobManager`, on a jitter-free virtual clock
  so tests (and CI) drive time explicitly.
* :mod:`~repro.obs.sentinel.rules` evaluates two alert families: SLO
  burn-rate over live GK-sketch/EWMA snapshots while runs execute, and
  cross-run regression re-applying the paper's SRAA-style persistence
  filter to the Welch z-test ``repro runs check`` machinery.
* :mod:`~repro.obs.sentinel.engine` turns rule signals into incidents
  with an open/close lifecycle and full provenance.
* :mod:`~repro.obs.sentinel.alerts` is the append-only alert ledger;
  :mod:`~repro.obs.sentinel.sinks` fans incidents out to files, stdout,
  or webhooks.
* :mod:`~repro.obs.sentinel.watch` backs ``repro watch`` (one-shot
  ``--tick`` evaluation and ``--follow`` SSE tailing).

Everything is deterministic on fixed inputs: scheduler ticks are
explicit, burn-rate state is driven by simulated-time snapshots, and
incident ids/order are pinned by ``tests/obs/sentinel/``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AlertLedger": ".alerts",
    "AlertEngine": ".engine",
    "Incident": ".engine",
    "replay_trace": ".engine",
    "BurnRateRule": ".rules",
    "RegressionRule": ".rules",
    "rules_from_dict": ".rules",
    "CronExpr": ".schedule",
    "ScheduleSpec": ".schedule",
    "Scheduler": ".schedule",
    "parse_cron": ".schedule",
    "FileSink": ".sinks",
    "StdoutSink": ".sinks",
    "WebhookSink": ".sinks",
    "sinks_from_specs": ".sinks",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
