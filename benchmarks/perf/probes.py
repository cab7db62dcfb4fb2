"""Layer probes: one small, seeded measurement per layer of ``repro``.

A traced run (``--trace 1``) runs every probe after the workload's
rounds, so each workload's traced run reports every per-layer metric.
Each probe drives one layer through its public API with inputs made
from the seed, inside a ``probe.<layer>`` span, and returns its
metrics by name.  ``size`` scales the inputs (the self-test uses a
tiny size).
"""

from __future__ import annotations

import dataclasses
import http.client
import os
import pickle
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from workloads import (
    ROUTE_MIX,
    WORKERS,
    Tally,
    http_get,
    ledger_record,
    percentile,
    route_path,
    seed_bench_dir,
    seed_ledger,
)

Metrics = Dict[str, float]
#: The shortest horizon the fault zoo lays its timelines out for.
ZOO_MIN_HORIZON_S = 300.0


def _node_job(seed: int, load: float, transactions: int, **fields: Any):
    """One Section-3 node replication at ``load`` CPUs, as a job."""
    from repro.core.spec import PolicySpec
    from repro.ecommerce.config import PAPER_CONFIG
    from repro.ecommerce.spec import ArrivalSpec
    from repro.exec.jobs import ReplicationJob

    fields.setdefault("policy", PolicySpec.sraa(2, 5, 3))
    return ReplicationJob(
        config=PAPER_CONFIG,
        arrival=ArrivalSpec.poisson(PAPER_CONFIG.arrival_rate_for_load(load)),
        n_transactions=transactions,
        seed=seed,
        **fields,
    )


class Probes:
    """Runs every layer probe; see :meth:`run`."""

    def __init__(self, seed: int, work_dir: str, rec: Any,
                 size: float = 1.0) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.rec = rec
        self.size = size

    def n(self, full: int) -> int:
        return max(100, int(full * self.size))

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def timed(self, name: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """``fn()`` inside a span named ``name``: ``(result, seconds)``."""
        with self.rec.span(name):
            started = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - started

    def run(self) -> Metrics:
        metrics: Metrics = {}
        for layer, probe in (
            ("des", self.des),
            ("ecommerce", self.node),
            ("core", self.observe),
            ("exec", self.exec),
            ("faults", self.faults),
            ("obs", self.sinks),
            ("obs.columnar", self.columnar),
            ("obs.ledger", self.ledger),
            ("serve", self.serve),
        ):
            with self.rec.span(f"probe.{layer}"):
                metrics.update(probe())
        return metrics

    # ------------------------------------------------------------------
    def des(self) -> Metrics:
        """Self-rescheduling no-op events on 16 chains of seeded delays."""
        from repro.des.engine import Simulator

        chains, total = 16, self.n(300_000)
        rng = random.Random(self.seed)
        delays = [rng.expovariate(1.0) for _ in range(1024)]
        sim = Simulator()
        remaining = [total]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] >= chains:
                sim.schedule(delays[remaining[0] & 1023], tick)

        for chain in range(chains):
            sim.schedule(delays[chain], tick)
        fired, elapsed = self.timed("des.Simulator.run", sim.run)
        return {"des.bare_events_per_s": fired / elapsed}

    def node(self) -> Metrics:
        """One node run at load 9 under SRAA(2,5,3), plain and profiled."""
        from repro.exec.jobs import execute_job

        job = _node_job(self.seed, 9.0, self.n(40_000))
        _, plain_s = self.timed("ecommerce.run", lambda: execute_job(job))
        profiled, profiled_s = self.timed(
            "ecommerce.run_profiled",
            lambda: execute_job(dataclasses.replace(job, profile=True)),
        )
        profile = profiled.profile
        seconds = {entry.kind: entry.seconds for entry in profile.entries}
        return {
            "ecommerce.txn_per_s": job.n_transactions / plain_s,
            "des.events": profile.total_events,
            "des.engine_self_s": profiled_s - profile.total_seconds,
            "ecommerce.arrival_s": seconds["arrival"],
            "ecommerce.done_s": seconds["done"],
            "core.observe_share": seconds["policy.observe"] / profiled_s,
        }

    def observe(self) -> Metrics:
        """ns per ``observe`` over one recorded response-time stream."""
        from repro.detect import head_to_head_policies
        from repro.exec.jobs import execute_job
        from repro.faults.campaign import DEFAULT_POLICIES

        stream = execute_job(_node_job(
            self.seed, 9.0, self.n(50_000), policy=None,
            collect_response_times=True,
        )).response_times
        metrics: Metrics = {}
        for label, spec in head_to_head_policies().items():
            layer = "core" if label in DEFAULT_POLICIES else "detect"
            observe = spec.build().observe
            started = time.perf_counter_ns()
            for value in stream:
                observe(value)
            elapsed = time.perf_counter_ns() - started
            self.rec.count(f"{layer}.observe.{label}", len(stream), elapsed)
            metrics[f"{layer}.observe_ns.{label}"] = elapsed / len(stream)
        return metrics

    def exec(self) -> Metrics:
        """16 small jobs over a 2-worker process pool."""
        from repro.exec.backends import ProcessPoolBackend
        from repro.exec.jobs import execute_job

        jobs = [
            _node_job(self.seed + i, 6.0, self.n(2_000), tag=("probe", i))
            for i in range(16)
        ]
        events: List[Any] = []
        results, map_s = self.timed("exec.map", lambda: ProcessPoolBackend(
            WORKERS).map(execute_job, jobs, progress=events.append))
        job_s = sum(event.job_s for event in events)
        sizes = [len(pickle.dumps(result)) for result in results]
        return {
            "exec.job_s_sum": job_s,
            "exec.map_s": map_s,
            "exec.efficiency": job_s / (WORKERS * map_s),
            "exec.overhead_ms_per_job":
                (WORKERS * map_s - job_s) / len(jobs) * 1e3,
            "exec.result_kb": statistics.mean(sizes) / 1024,
        }

    def faults(self) -> Metrics:
        """The zoo x SRAA campaign, serial, single node then cluster."""
        from repro.exec.backends import SerialBackend
        from repro.faults.campaign import DEFAULT_POLICIES, run_campaign
        from repro.faults.zoo import builtin_scenarios

        scenarios = list(builtin_scenarios(ZOO_MIN_HORIZON_S).values())
        policies = {"SRAA": DEFAULT_POLICIES["SRAA"]}
        events: List[Any] = []
        _, single_s = self.timed("faults.run_campaign", lambda: run_campaign(
            scenarios, policies, 1, seed=self.seed,
            backend=SerialBackend(), progress=events.append,
        ))
        _, cluster_s = self.timed("cluster.run_campaign", lambda: run_campaign(
            scenarios, policies, 1, seed=self.seed,
            backend=SerialBackend(), system="cluster",
        ))
        return {
            "faults.single_node_s": single_s,
            "faults.score_s": single_s - sum(e.job_s for e in events),
            "cluster.campaign_s": cluster_s,
        }

    def sinks(self) -> Metrics:
        """Per-event cost of each trace sink on one node run."""
        from repro.exec.jobs import execute_job
        from repro.obs.live import LiveSpec

        job = _node_job(self.seed, 9.0, self.n(6_000))
        records = len(execute_job(
            dataclasses.replace(job, trace_level="all")
        ).trace)

        def wall(name: str, variant: Any) -> float:
            return statistics.median(
                self.timed(name, lambda: execute_job(variant))[1]
                for _ in range(3)
            )

        base = wall("ecommerce.run", job)
        metrics: Metrics = {"obs.trace_records": records}
        for sink, variant in (
            ("jsonl", dataclasses.replace(job, trace_level="all")),
            ("columnar", dataclasses.replace(
                job, trace_level="all", trace_format="columnar")),
            ("live", dataclasses.replace(job, live=LiveSpec())),
        ):
            metrics[f"obs.sink_ns_per_event.{sink}"] = (
                (wall(f"obs.sink.{sink}", variant) - base) / records * 1e9
            )
        return metrics

    def columnar(self) -> Metrics:
        """Write, load, report, re-score and convert a campaign trace."""
        from repro.exec.backends import SerialBackend
        from repro.faults.campaign import (
            DEFAULT_POLICIES,
            run_campaign,
            score_records,
        )
        from repro.faults.zoo import builtin_scenarios
        from repro.obs.columnar.convert import convert_trace
        from repro.obs.columnar.query import load_query
        from repro.obs.live.report import render_report
        from repro.obs.session import TraceSession, use_tracing

        session = TraceSession("all", "columnar")
        with use_tracing(session):
            run_campaign(
                list(builtin_scenarios(ZOO_MIN_HORIZON_S).values()),
                DEFAULT_POLICIES, 1, seed=self.seed, backend=SerialBackend(),
            )
        rcol, jsonl = self.path("probe.rcol"), self.path("probe.jsonl")
        _, write_s = self.timed(
            "obs.write_trace", lambda: session.write_trace(rcol))
        query, load_s = self.timed("obs.load_query", lambda: load_query(rcol))
        _, render_s = self.timed(
            "obs.render_report", lambda: render_report(query))
        _, rescore_s = self.timed(
            "faults.score_records", lambda: score_records(query))
        _, convert_s = self.timed(
            "obs.convert_trace", lambda: convert_trace(rcol, jsonl))
        _, jsonl_load_s = self.timed(
            "obs.load_query", lambda: load_query(jsonl))
        metrics = {
            "obs.columnar.write_s": write_s,
            "obs.columnar.load_s": load_s,
            "obs.live.render_s": render_s,
            "faults.rescore_s": rescore_s,
            "obs.columnar.convert_s": convert_s,
            "obs.columnar.jsonl_load_s": jsonl_load_s,
            "obs.columnar.rcol_mb": os.path.getsize(rcol) / 1e6,
            "obs.columnar.jsonl_mb": os.path.getsize(jsonl) / 1e6,
        }
        for path in (rcol, jsonl):
            os.remove(path)
        return metrics

    def ledger(self) -> Metrics:
        """30 appends to a seeded 200-entry ledger."""
        rng = random.Random(self.seed)
        self.ledger_dir = self.path("probe_ledger")
        ledger, manifests = seed_ledger(
            self.ledger_dir, self.n(200), rng
        )
        latencies = []
        for _ in range(30):
            record = ledger_record(rng, manifests)
            _, seconds = self.timed(
                "obs.ledger.append", lambda: ledger.append(*record))
            latencies.append(seconds * 1e3)
        return {
            "obs.ledger.append_p50_ms": percentile(latencies, 0.5),
            "obs.ledger.append_p90_ms": percentile(latencies, 0.9),
            "obs.ledger.mb": os.path.getsize(ledger.runs_path) / 1e6,
        }

    def serve(self) -> Metrics:
        """Each route over one keep-alive connection, then fresh ones.

        Runs an in-process ``ReproServer`` over the ledger probe's
        ledger, so it must run after :meth:`ledger`.
        """
        from repro.obs.ledger import Ledger
        from repro.serve import ReproServer

        rng = random.Random(self.seed)
        bench = self.path("probe_bench")
        seed_bench_dir(bench, rng)
        ids = [entry["id"] for entry in Ledger(self.ledger_dir).entries()]
        server = ReproServer(host="127.0.0.1", port=0,
                             ledger_dir=self.ledger_dir, bench_dir=bench)
        server.start()
        tally = Tally()
        metrics: Metrics = {}
        try:
            connection = http.client.HTTPConnection(server.host, server.port)
            for route, _ in ROUTE_MIX:
                path = route_path(route, ids, rng)
                before = len(tally.latencies_ms)
                for _ in range(5):
                    http_get(connection, route, path, tally, None)
                metrics[f"serve.route_p50_ms.{route}"] = statistics.median(
                    tally.latencies_ms[before:]
                )
            connection.close()
            before = len(tally.latencies_ms)
            for _ in range(30):
                fresh = http.client.HTTPConnection(server.host, server.port)
                http_get(fresh, "bench", "/api/bench", tally, None)
                fresh.close()
            metrics["serve.fresh_conn_p50_ms"] = statistics.median(
                tally.latencies_ms[before:]
            )
        finally:
            server.close()
        if tally.failed:
            raise RuntimeError(f"serve probe failed: {tally.problems}")
        return metrics
