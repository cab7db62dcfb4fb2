"""Name -> experiment lookup used by the CLI and the benchmarks.

Each id maps to its description and the ``"module:function"`` of its
runner, relative to :mod:`repro.experiments`.  The runner's module is
imported when the experiment runs, so listing or describing
experiments imports none of them.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Tuple, Union

from repro.exec.backends import ExecutionBackend, resolve_backend, use_backend
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult

ExperimentRunner = Callable[[Scale, int], ExperimentResult]

#: Memorable aliases accepted wherever an experiment id is (CLI, API).
_ALIASES: Dict[str, str] = {
    "comparison": "fig16",
    "sraa": "fig09_10",
    "saraa": "fig15",
    "robustness": "faults",
    "erosion": "degradation",
    "rolling": "fleet",
    "head-to-head": "detectors",
}

_REGISTRY: Dict[str, Tuple[str, str]] = {
    "fig05": (
        "Density of the sample-mean RT vs normal approximation (Fig. 5)",
        "analytical:run_fig05",
    ),
    "false_alarm": (
        "Exact CLTA false-alarm probabilities (Section 4.1)",
        "analytical:run_false_alarm",
    ),
    "mmc_baseline": (
        "Analytical M/M/16 RT moments across loads (Section 4.1)",
        "analytical:run_mmc_baseline",
    ),
    "autocorr": (
        "Lag-1 autocorrelation of simulated RTs (Section 4.1)",
        "autocorr:run_autocorrelation",
    ),
    "fig09_10": (
        "SRAA sweep, n*K*D = 15: RT (Fig. 9) and loss (Fig. 10)",
        "sraa_figs:run_fig09_10",
    ),
    "fig11": (
        "SRAA sweep, sample size doubled (Fig. 11)",
        "sraa_figs:run_fig11",
    ),
    "fig12_13": (
        "SRAA sweep, bucket depth doubled: RT (Fig. 12) and loss (Fig. 13)",
        "sraa_figs:run_fig12_13",
    ),
    "fig14": (
        "SRAA sweep, number of buckets doubled (Fig. 14)",
        "sraa_figs:run_fig14",
    ),
    "fig15": (
        "SARAA vs SRAA sweep, n*K*D = 30 (Fig. 15)",
        "saraa_fig:run_fig15",
    ),
    "fig16": (
        "SRAA vs SARAA vs CLTA comparison (Fig. 16)",
        "comparison:run_fig16",
    ),
    "ablations": (
        "Sensitivity to under-specified modelling choices",
        "ablations:run_ablations",
    ),
    "cluster": (
        "Cluster deployment: balancing and rolling restarts (beyond "
        "the paper; companion work [2])",
        "cluster_exp:run_cluster",
    ),
    "zoo": (
        "Every policy in the library at a low and a high load "
        "(integration study, beyond the paper)",
        "zoo:run_zoo",
    ),
    "arl": (
        "Exact false-trigger intervals and detection delays of SRAA "
        "configurations (run-length analysis, beyond the paper)",
        "arl_exp:run_arl",
    ),
    "fidelity": (
        "Every Section-5 quoted number measured live vs the paper",
        "fidelity:run_fidelity",
    ),
    "degradation": (
        "Detector families on the eroding-capacity substrate of "
        "ref. [3] (beyond the paper)",
        "degradation_exp:run_degradation",
    ),
    "faults": (
        "Fault-injection campaign: policy robustness across the "
        "adversarial scenario zoo (beyond the paper)",
        "faults_exp:run_faults",
    ),
    "detectors": (
        "Detector head-to-head: adaptive/entropy/trend vs "
        "SRAA/SARAA/CLTA across the zoo (beyond the paper)",
        "detectors_exp:run_detectors",
    ),
    "fleet": (
        "Sharded fleet: rolling/canary rejuvenation schedulers under "
        "a capacity floor (beyond the paper)",
        "fleet_exp:run_fleet",
    ),
    "availability": (
        "Huang et al. availability planning (analytical, ref. [9]; "
        "beyond the paper)",
        "availability_exp:run_availability",
    ),
}


def experiment_ids() -> Tuple[str, ...]:
    """All registered experiment identifiers, in registry order."""
    return tuple(_REGISTRY)


def describe(experiment_id: str) -> str:
    """One-line description of an experiment."""
    return _lookup(experiment_id)[0]


def run_experiment(
    experiment_id: str,
    scale: Scale,
    seed: int = 0,
    backend: Union[ExecutionBackend, str, None] = None,
) -> ExperimentResult:
    """Run one experiment at the given scale.

    ``backend`` (an :class:`~repro.exec.backends.ExecutionBackend`, a
    backend name, or ``None`` for the current default) is installed as
    the default execution backend for the duration of the run, so every
    ``run_replications`` / ``sweep_policies`` inside the experiment
    fans its replication jobs out through it.
    """
    module, _, name = _lookup(experiment_id)[1].partition(":")
    runner: ExperimentRunner = getattr(
        import_module(f".{module}", __package__), name
    )
    if backend is None:
        return runner(scale, seed)
    with use_backend(resolve_backend(backend)):
        return runner(scale, seed)


def experiment_spec(experiment_id: str, scale: Scale) -> Dict[str, object]:
    """The canonical (hashable) spec of one experiment invocation.

    This is what a run manifest hashes for ``repro run`` entries: the
    resolved experiment id plus the scale parameters.  Descriptions are
    deliberately excluded -- rewording a docstring must not orphan a
    pinned baseline.
    """
    from repro.obs.ledger.canonical import to_plain

    return {
        "experiment": resolve_experiment_id(experiment_id),
        "scale": to_plain(scale),
    }


def resolve_experiment_id(experiment_id: str) -> str:
    """The canonical id behind a name or alias (raises on unknown)."""
    experiment_id = _ALIASES.get(experiment_id, experiment_id)
    if experiment_id not in _REGISTRY:
        known = ", ".join(experiment_ids())
        aliases = ", ".join(f"{a} -> {t}" for a, t in _ALIASES.items())
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {known}; "
            f"aliases: {aliases}"
        )
    return experiment_id


def _lookup(experiment_id: str) -> Tuple[str, str]:
    return _REGISTRY[resolve_experiment_id(experiment_id)]
