"""Cross-run observability: run ledger, provenance, regression tracking.

Every CLI invocation that produces results (``simulate``, ``run``,
``faults run``) appends a ledger entry -- a deterministic
:class:`RunManifest` identity plus outcome and timing blocks -- to an
append-only JSONL store (:class:`Ledger`).  ``repro runs`` then
lists, shows, diffs, pins and statistically checks entries against each
other, and :mod:`~repro.obs.ledger.bench` keeps benchmark trajectories
in the same spirit.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "list_trajectories": ".bench",
    "load_trajectory": ".bench",
    "record_bench_point": ".bench",
    "trajectory_files": ".bench",
    "trajectory_path": ".bench",
    "trajectory_summaries": ".bench",
    "validate_trajectory": ".bench",
    "canonical_hash": ".canonical",
    "canonical_json": ".canonical",
    "to_plain": ".canonical",
    "diff_entries": ".diff",
    "flatten": ".diff",
    "format_diff": ".diff",
    "RunManifest": ".manifest",
    "campaign_manifest": ".manifest",
    "experiment_manifest": ".manifest",
    "manifest_from_jobs": ".manifest",
    "simulate_manifest": ".manifest",
    "campaign_outcomes": ".outcome",
    "experiment_outcomes": ".outcome",
    "replicated_outcomes": ".outcome",
    "timing_block": ".outcome",
    "environment_info": ".provenance",
    "git_revision": ".provenance",
    "package_version": ".provenance",
    "version_string": ".provenance",
    "CheckReport": ".regress",
    "MetricCheck": ".regress",
    "compare_outcomes": ".regress",
    "relative_check": ".regress",
    "run_check": ".regress",
    "welch_check": ".regress",
    "Ledger": ".store",
    "ledger_enabled": ".store",
    "record_run": ".store",
    "LIST_SCHEMA_VERSION": ".summary",
    "entry_summary": ".summary",
    "runs_payload": ".summary",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
