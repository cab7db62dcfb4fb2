"""A one-node cluster is the Section-3 node.

The paper's single node and the balanced cluster are one class,
:class:`~repro.ecommerce.system.ECommerceSystem`; a system of exactly
one node keeps the Section-3 shape (service stream ``"service"``,
request events from source ``system``).  So the same seeded work run on
the ``cluster`` substrate with one node and on the default substrate
must agree on every ``RunResult`` field and on the JSONL trace bytes,
through the replication runner and through ``repro faults run``.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.core.spec import PolicySpec
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_replications
from repro.ecommerce.spec import ArrivalSpec
from repro.exec.backends import SerialBackend
from repro.obs.session import TraceSession, use_tracing
from repro.systems import ClusterSpec

CONFIGS = {
    "paper": PAPER_CONFIG,
    # Restart downtime exercises refused arrivals and down-node gating.
    "downtime": dataclasses.replace(
        PAPER_CONFIG, rejuvenation_downtime_s=30.0
    ),
}


def traced_replications(tmp_path, config, system):
    session = TraceSession("all", "jsonl")
    with use_tracing(session):
        replicated = run_replications(
            config,
            arrival=ArrivalSpec.poisson(config.arrival_rate_for_load(9.0)),
            policy=PolicySpec.sraa(2, 5, 3),
            n_transactions=1500,
            replications=2,
            seed=11,
            warmup=100,
            backend=SerialBackend(),
            system=system,
        )
    path = tmp_path / f"{system is None}.jsonl"
    session.write_trace(str(path))
    return replicated.runs, path.read_bytes()


def fields(run):
    return {
        field.name: getattr(run, field.name)
        for field in dataclasses.fields(run)
        if field.name != "trace"
    }


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_replications_match_the_single_node(tmp_path, config):
    node_runs, node_trace = traced_replications(
        tmp_path, CONFIGS[config], None
    )
    cluster_runs, cluster_trace = traced_replications(
        tmp_path, CONFIGS[config], ClusterSpec(n_nodes=1)
    )
    assert [fields(run) for run in cluster_runs] == [
        fields(run) for run in node_runs
    ]
    assert cluster_trace == node_trace
    assert b'"source":"system"' in node_trace
    assert all(len(run.nodes) == 1 for run in node_runs)


def test_faults_run_matches_the_single_node(tmp_path, capsys):
    def campaign(name, extra):
        trace = tmp_path / f"{name}.jsonl"
        scores = tmp_path / f"{name}.csv"
        command = [
            "faults", "run", "aging_onset,node_crash",
            "--horizon", "300",
            "--replications", "2",
            "--seed", "3",
            "--policies", "SRAA,CLTA",
            "--backend", "serial",
            "--no-ledger",
            "--trace", str(trace),
            "--csv", str(scores),
        ]
        assert main(command + extra) == 0
        return trace.read_bytes(), scores.read_bytes()

    node = campaign("node", [])
    cluster = campaign("cluster", ["--system", "cluster", "--nodes", "1"])
    assert cluster == node
