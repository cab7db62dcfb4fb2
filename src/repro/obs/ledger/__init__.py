"""Cross-run observability: run ledger, provenance, regression tracking.

Every CLI invocation that produces results (``simulate``, ``run``,
``faults run``) appends a ledger entry -- a deterministic
:class:`RunManifest` identity plus outcome and timing blocks -- to an
append-only JSONL store (:class:`Ledger`).  ``repro runs`` then
lists, shows, diffs, pins and statistically checks entries against each
other, and :mod:`~repro.obs.ledger.bench` keeps benchmark trajectories
in the same spirit.
"""

from repro.obs.ledger.bench import (
    list_trajectories,
    load_trajectory,
    record_bench_point,
    trajectory_files,
    trajectory_path,
    trajectory_summaries,
    validate_trajectory,
)
from repro.obs.ledger.canonical import canonical_hash, canonical_json, to_plain
from repro.obs.ledger.diff import diff_entries, flatten, format_diff
from repro.obs.ledger.manifest import (
    RunManifest,
    campaign_manifest,
    experiment_manifest,
    manifest_from_jobs,
    simulate_manifest,
)
from repro.obs.ledger.outcome import (
    campaign_outcomes,
    experiment_outcomes,
    replicated_outcomes,
    timing_block,
)
from repro.obs.ledger.provenance import (
    environment_info,
    git_revision,
    package_version,
    version_string,
)
from repro.obs.ledger.regress import (
    CheckReport,
    MetricCheck,
    compare_outcomes,
    relative_check,
    run_check,
    welch_check,
)
from repro.obs.ledger.store import Ledger, ledger_enabled, record_run
from repro.obs.ledger.summary import (
    LIST_SCHEMA_VERSION,
    entry_summary,
    runs_payload,
)

__all__ = [
    "CheckReport",
    "LIST_SCHEMA_VERSION",
    "Ledger",
    "MetricCheck",
    "RunManifest",
    "campaign_manifest",
    "campaign_outcomes",
    "canonical_hash",
    "canonical_json",
    "compare_outcomes",
    "diff_entries",
    "entry_summary",
    "environment_info",
    "experiment_manifest",
    "experiment_outcomes",
    "flatten",
    "format_diff",
    "git_revision",
    "ledger_enabled",
    "list_trajectories",
    "load_trajectory",
    "manifest_from_jobs",
    "package_version",
    "record_bench_point",
    "record_run",
    "relative_check",
    "replicated_outcomes",
    "run_check",
    "runs_payload",
    "simulate_manifest",
    "timing_block",
    "to_plain",
    "trajectory_files",
    "trajectory_path",
    "trajectory_summaries",
    "validate_trajectory",
    "version_string",
    "welch_check",
]
