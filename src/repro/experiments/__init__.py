"""Per-figure experiment definitions and the sweep harness.

Every table and figure in the paper's evaluation has a registered
experiment here (see DESIGN.md's per-experiment index).  Run them from
Python::

    from repro.experiments import Scale, run_experiment
    print(run_experiment("fig16", Scale.quick()).format_text())

or from the command line: ``python -m repro run fig16 --scale quick``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "describe": ".registry",
    "experiment_ids": ".registry",
    "run_experiment": ".registry",
    "PAPER_LOADS": ".scale",
    "Scale": ".scale",
    "PolicyConfig": ".sweep",
    "SweepResult": ".sweep",
    "sraa_config": ".sweep",
    "sweep_jobs": ".sweep",
    "sweep_policies": ".sweep",
    "ExperimentResult": ".tables",
    "Series": ".tables",
    "Table": ".tables",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
