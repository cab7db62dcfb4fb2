"""Every simulating experiment runs its whole job grid in one map.

A backend can only overlap jobs it is handed together, so an
experiment that submits its grid point by point cannot use a pool.
The counting backend below records every ``map`` call an experiment
makes at the tiny scale.  The ablation policy sources must pickle, or
a pool runs their jobs in the parent process.
"""

import pickle

import pytest

from repro.core.sla import PAPER_SLO
from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import replication_jobs
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import SerialBackend, use_backend
from repro.exec.jobs import execute_job, run_cells, run_jobs
from repro.experiments.ablations import ablation_variants
from repro.experiments.registry import experiment_ids, run_experiment
from repro.experiments.scale import Scale
from repro.systems.fleet import _run_shard
from repro.tuning import ParameterAdvisor

TINY = Scale(transactions=600, replications=1, loads=(9.0,), label="tiny")

#: Experiments computed from closed forms, with no job grid at all.
ANALYTICAL = {"fig05", "false_alarm", "mmc_baseline", "arl", "availability"}


class CountingBackend(SerialBackend):
    def __init__(self):
        super().__init__()
        self.calls = []

    def map(self, fn, items, progress=None):
        self.calls.append(fn)
        return super().map(fn, items, progress)


@pytest.mark.parametrize("name", experiment_ids())
def test_one_map_per_experiment(name):
    backend = CountingBackend()
    run_experiment(name, TINY, seed=0, backend=backend)
    if name in ANALYTICAL:
        assert backend.calls == []
    elif name == "fleet":
        # One grid map; each of the 3 x 2 fleet jobs then maps its
        # shards over the same ambient backend.
        assert backend.calls == [execute_job] + [_run_shard] * 6
    else:
        assert backend.calls == [execute_job]


def test_score_grid_makes_one_map():
    advisor = ParameterAdvisor(
        PAPER_CONFIG, PAPER_SLO, transactions=300, replications=2
    )
    backend = CountingBackend()
    with use_backend(backend):
        scores = advisor.score_grid([(2, 5, 3), (30, 1, 1), (15, 2, 1)])
    assert len(scores) == 3
    assert backend.calls == [execute_job]


def test_ablation_policy_sources_pickle():
    variants = [
        variant for _, table in ablation_variants() for variant in table
    ]
    assert len(variants) == 15
    for label, config, policy in variants:
        clone = pickle.loads(pickle.dumps(policy))
        assert type(clone()) is type(policy()), label


def test_run_cells_splits_one_map_per_cell_in_order():
    jobs = replication_jobs(
        PAPER_CONFIG,
        ArrivalSpec.poisson(1.8),
        PolicySpec.sraa(2, 5, 3),
        n_transactions=300,
        replications=6,
        seed=3,
    )
    backend = CountingBackend()
    cells = run_cells([jobs[:1], [], jobs[1:4], jobs[4:]], backend)
    assert backend.calls == [execute_job]
    assert [len(cell) for cell in cells] == [1, 0, 3, 2]
    flat = run_jobs(jobs, SerialBackend())
    assert [run.avg_response_time for cell in cells for run in cell] == [
        run.avg_response_time for run in flat
    ]
