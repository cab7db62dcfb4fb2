"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(imports, fixtures, server start, warm-up), then runs identical
*rounds* until the run's time window closes.  A round is one pass of
the workload's timed body; it returns the units of work it completed
and digests of its outputs, which ``run.py`` compares against the
first round of the run (any seed) and against ``expected/`` (the
oracle seed).  Every operation a round attempts, and every check that
fails, is counted in a :class:`Tally`.

The workloads call only public ``repro`` APIs.  Layer timing uses
public hooks: :class:`BenchBackend` is an ``ExecutionBackend`` that
wraps the real one, reads per-job wall-clock from progress
``JobEvent``\\ s, checks every ``RunResult``, and in traced rounds
turns on ``ReplicationJob.profile`` to attribute job time to event
kinds.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exec.backends import ExecutionBackend

#: The seed whose outputs are pinned in ``expected/``.
ORACLE_SEED = 2006
#: Worker processes and client connections: the machine has 2 cores.
WORKERS = 2


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def maybe_span(rec: Any, name: str, parent: Optional[int] = None):
    """A span on ``rec``, or nothing when the round is untraced."""
    return nullcontext() if rec is None else rec.span(name, parent)


class Tally:
    """Operations attempted and failed in one run (thread-safe)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Latency samples of the workload's unit operation.
        self.latencies_ms: List[float] = []
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def op(self, latency_ms: Optional[float] = None) -> None:
        with self._lock:
            self.attempted += 1
            if latency_ms is not None:
                self.latencies_ms.append(latency_ms)

    def fail(self, problem: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


class BenchBackend(ExecutionBackend):
    """Wraps a backend: times and checks every job it runs.

    Each job counts as one operation with its ``JobEvent.job_s`` as the
    latency sample.  Each result must account for every transaction
    (``completed + lost == arrivals == n_transactions - warmup``).  With
    a recorder, jobs run with ``profile=True``; the map, each job and
    each profiled event kind are recorded as spans and counters.
    """

    def __init__(self, inner: ExecutionBackend, tally: Tally,
                 rec: Any = None) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.workers = getattr(inner, "workers", 1)
        self.tally = tally
        self.rec = rec
        #: Simulated transactions completed through this backend.
        self.transactions = 0

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            progress: Any = None) -> List[Any]:
        from repro.exec.jobs import ReplicationJob

        work = list(items)
        if self.rec is not None:
            work = [
                dataclasses.replace(job, profile=True)
                if isinstance(job, ReplicationJob) else job
                for job in work
            ]
        hook = self._resolve_hook(progress)
        finished: List[Tuple[int, Any]] = []

        def on_event(event: Any) -> None:
            finished.append((time.perf_counter_ns(), event))
            if hook is not None:
                hook(event)

        with maybe_span(self.rec, "exec.map") as map_span:
            results = self.inner.map(fn, work, progress=on_event)
        for end, event in finished:
            self.tally.op(event.job_s * 1e3)
            result = results[event.index]
            self._check(work[event.index], result)
            if self.rec is not None:
                start = end - int(event.job_s * 1e9)
                job_span = self.rec.add("des.run", start, end, map_span)
                self._record_profile(getattr(result, "profile", None),
                                     start, job_span)
        return results

    def _check(self, job: Any, result: Any) -> None:
        arrivals = getattr(result, "arrivals", None)
        if arrivals is None:
            return
        expected = job.n_transactions - job.warmup
        if result.completed + result.lost != arrivals or arrivals != expected:
            self.tally.fail(
                f"job {job.tag}: completed {result.completed} + lost "
                f"{result.lost} != arrivals {arrivals} (expected {expected})"
            )
        self.transactions += arrivals

    def _record_profile(self, profile: Any, start: int, job_span: int) -> None:
        """A job's profiled event kinds as child spans of its ``des.run``.

        The profile holds per-kind totals, not intervals, so the child
        spans are laid end to end from the job's start: their durations
        are measured, their positions are not.  What remains of the job
        span is the engine's own loop plus building the system.
        """
        if profile is None:
            return
        cursor = start
        done_span = None
        for entry in profile.entries:
            ns = int(entry.seconds * 1e9)
            self.rec.count(f"profile.{entry.kind or 'engine'}",
                           entry.events, ns)
            if entry.kind in PROFILE_NESTED:
                continue
            name = PROFILE_SPANS.get(entry.kind, "des.event")
            index = self.rec.add(name, cursor, cursor + ns, job_span)
            if entry.kind == "done":
                done_span = index
            cursor += ns
        for entry in profile.entries:
            if entry.kind in PROFILE_NESTED and done_span is not None:
                done = self.rec.spans[done_span]
                ns = int(entry.seconds * 1e9)
                self.rec.add(PROFILE_NESTED[entry.kind], done.start,
                             done.start + ns, done_span)


#: Profiled event kinds -> the span name (layer.boundary) they become.
PROFILE_SPANS = {
    "arrival": "ecommerce.arrival",
    "done": "ecommerce.done",
    "probe": "ecommerce.telemetry",
    "fault": "faults.inject",
    "degrade": "degradation.step",
}
#: Kinds profiled inside another kind's time (the policy runs inside
#: a completion), recorded as children of the ``done`` span.
PROFILE_NESTED = {"policy.observe": "core.observe"}


class Workload:
    """One workload: seeded inputs, a repeatable round, a teardown."""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Imports, fixtures and warm-up; everything before timing."""

    def round(self, tally: Tally, rec: Any) -> Tuple[int, Dict[str, str]]:
        """One timed pass: ``(units of work, output digests)``."""
        raise NotImplementedError

    def verify(self, tally: Tally) -> None:
        """Untimed output checks made once, after the measured window."""

    def teardown(self) -> None:
        """Stop every process the workload started and wait for it."""

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


# ---------------------------------------------------------------------------
# paper_quick
# ---------------------------------------------------------------------------
class PaperQuick(Workload):
    """The paper's SRAA sweep and three-way comparison, serial.

    Quick scale's load axis at a quarter of its transactions and one
    replication, so one round takes about 1.5 s and a run holds several.
    """

    EXPERIMENTS = ("fig09_10", "fig16")

    def setup(self) -> None:
        from repro.exec.backends import SerialBackend
        from repro.experiments.registry import run_experiment
        from repro.experiments.scale import Scale

        self.scale = Scale(
            transactions=3_000,
            replications=1,
            loads=Scale.quick().loads,
            label="perf",
        )
        self.inner = SerialBackend()
        warmup = Scale(transactions=100, replications=1, loads=(9.0,),
                       label="warmup")
        for experiment in self.EXPERIMENTS:
            run_experiment(experiment, warmup, seed=self.seed,
                           backend=self.inner)

    def round(self, tally: Tally, rec: Any) -> Tuple[int, Dict[str, str]]:
        from repro.experiments.registry import run_experiment

        backend = BenchBackend(self.inner, tally, rec)
        digests = {}
        for experiment in self.EXPERIMENTS:
            with maybe_span(rec, f"experiments.{experiment}"):
                result = run_experiment(
                    experiment, self.scale, seed=self.seed, backend=backend
                )
            digests[experiment] = sha(result.format_text())
        return backend.transactions, digests


# ---------------------------------------------------------------------------
# zoo_campaign
# ---------------------------------------------------------------------------
#: The committed six-way robustness table (same campaign, seed 2006).
COMMITTED_TABLE = os.path.join("ci", "detectors_robustness.csv")
#: TREND rows of the committed table do not regenerate (known gap).
UNCHECKED_LABELS = ("TREND",)


def scores_csv(path: str, scores: Any) -> str:
    """The scores as ``repro faults run --csv`` writes them."""
    from repro.faults.score import write_scores_csv

    write_scores_csv(path, scores)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def csv_rows(text: str, skip_policies: Tuple[str, ...]) -> List[List[str]]:
    rows = list(csv.reader(text.splitlines()))
    return [rows[0]] + [row for row in rows[1:] if row[1] not in skip_policies]


class ZooCampaign(Workload):
    """The detector head-to-head over the fault zoo, on a process pool.

    A round runs the 8 zoo scenarios at horizon 900 s twice: the six
    detectors on the single node, then the paper trio on the cluster
    substrate, 1 replication each.  At the oracle seed, :meth:`verify`
    also runs the committed robustness table's campaign (5
    replications) and compares it with the table.
    """

    HORIZON_S = 900.0
    LABELS = "SRAA,SARAA,CLTA,ADAPTIVE,ENTROPY,TREND"
    COMMITTED_REPLICATIONS = 5

    def __init__(self, seed: int, work_dir: str, root: str) -> None:
        super().__init__(seed, work_dir)
        self.root = root

    def setup(self) -> None:
        from repro.exec.backends import ProcessPoolBackend, SerialBackend
        from repro.faults.campaign import (
            DEFAULT_POLICIES,
            resolve_policies,
            run_campaign,
        )
        from repro.faults.zoo import builtin_scenarios

        self.scenarios = list(builtin_scenarios(self.HORIZON_S).values())
        self.detectors = resolve_policies(self.LABELS)
        self.trio = DEFAULT_POLICIES
        self.inner = ProcessPoolBackend(WORKERS)
        run_campaign(
            list(builtin_scenarios(300.0).values())[:1],
            {"SRAA": self.trio["SRAA"]},
            1,
            seed=self.seed,
            backend=SerialBackend(),
        )

    def round(self, tally: Tally, rec: Any) -> Tuple[int, Dict[str, str]]:
        from repro.faults.campaign import run_campaign

        backend = BenchBackend(self.inner, tally, rec)
        with maybe_span(rec, "faults.run_campaign"):
            single = run_campaign(
                self.scenarios, self.detectors, 1, seed=self.seed,
                backend=backend,
            )
        with maybe_span(rec, "cluster.run_campaign"):
            cluster = run_campaign(
                self.scenarios, self.trio, 1, seed=self.seed,
                backend=backend, system="cluster",
            )
        return backend.transactions, {
            "single_csv": sha(scores_csv(self.path("single.csv"),
                                         single.scores)),
            "cluster_csv": sha(scores_csv(self.path("cluster.csv"),
                                          cluster.scores)),
        }

    def verify(self, tally: Tally) -> None:
        from repro.faults.campaign import run_campaign

        if self.seed != ORACLE_SEED:
            return
        with open(os.path.join(self.root, COMMITTED_TABLE),
                  encoding="utf-8") as handle:
            committed = csv_rows(handle.read(), UNCHECKED_LABELS)
        result = run_campaign(
            self.scenarios, self.detectors, self.COMMITTED_REPLICATIONS,
            seed=self.seed, backend=BenchBackend(self.inner, tally),
        )
        table = scores_csv(self.path("committed.csv"), result.scores)
        if csv_rows(table, UNCHECKED_LABELS) != committed:
            tally.fail(f"single-node scores differ from {COMMITTED_TABLE}")


# ---------------------------------------------------------------------------
# trace_pipeline
# ---------------------------------------------------------------------------
class TracePipeline(Workload):
    """Collect a columnar trace, then consume it in both file formats.

    A ``TraceSession("all", "columnar")`` campaign (8 scenarios x paper
    trio x 1 replication at horizon 300 s, ~90k records) written to
    ``.rcol``; report + re-score from the ``.rcol``; conversion to
    JSONL; the same report + re-score from the JSONL.
    """

    HORIZON_S = 300.0

    def setup(self) -> None:
        from repro.exec.backends import ProcessPoolBackend, SerialBackend
        from repro.faults.zoo import builtin_scenarios

        self.inner = ProcessPoolBackend(WORKERS)
        self.scenarios = list(builtin_scenarios(self.HORIZON_S).values())
        self._pipeline(Tally(), None, self.scenarios[:1], SerialBackend())

    @staticmethod
    def _consume(path: str, rec: Any) -> Tuple[str, Any]:
        from repro.faults.campaign import score_records
        from repro.obs.columnar.query import load_query
        from repro.obs.live.report import render_report

        with maybe_span(rec, "obs.load_query"):
            query = load_query(path)
        with maybe_span(rec, "obs.render_report"):
            html = render_report(query)
        with maybe_span(rec, "faults.score_records"):
            scores = score_records(query)
        return html, scores

    def _pipeline(self, tally: Tally, rec: Any, scenarios: List[Any],
                  inner: ExecutionBackend) -> Tuple[int, Dict[str, str]]:
        from repro.faults.campaign import DEFAULT_POLICIES, run_campaign
        from repro.obs.columnar.convert import convert_trace
        from repro.obs.session import TraceSession, use_tracing

        rcol, jsonl = self.path("trace.rcol"), self.path("trace.jsonl")
        backend = BenchBackend(inner, tally, rec)
        session = TraceSession("all", "columnar")
        with maybe_span(rec, "obs.collect"):
            with use_tracing(session):
                run_campaign(scenarios, DEFAULT_POLICIES, 1, seed=self.seed,
                             backend=backend)
            records = session.write_trace(rcol)
        with maybe_span(rec, "obs.report_rcol"):
            html, scores = self._consume(rcol, rec)
        with maybe_span(rec, "obs.convert_trace"):
            converted = convert_trace(rcol, jsonl)[2]
        with maybe_span(rec, "obs.report_jsonl"):
            html_jsonl, scores_jsonl = self._consume(jsonl, rec)
        for _ in range(4):
            tally.op()
        if converted != records:
            tally.fail(f"converted {converted} records, collected {records}")
        if html_jsonl != html:
            tally.fail("report from JSONL differs from report from .rcol")
        if scores_jsonl != scores:
            tally.fail("re-scores from JSONL differ from .rcol re-scores")
        scores_text = scores_csv(self.path("scores.csv"), scores)
        for path in (rcol, jsonl):
            os.remove(path)
        return records, {"records": str(records), "scores": sha(scores_text)}

    def round(self, tally: Tally, rec: Any) -> Tuple[int, Dict[str, str]]:
        return self._pipeline(tally, rec, self.scenarios, self.inner)


# ---------------------------------------------------------------------------
# serve_ledger
# ---------------------------------------------------------------------------
#: Route mix of the serve_ledger clients: (route, weight in percent).
ROUTE_MIX = (
    ("runs_list", 40),
    ("run_entry", 20),
    ("diff", 10),
    ("health", 10),
    ("bench", 10),
    ("dashboard", 10),
)


def seed_ledger(directory: str, entries: int, rng: random.Random) -> Any:
    """A ledger of ``entries`` varied runs, appended through ``Ledger``."""
    from repro.core.spec import PolicySpec
    from repro.ecommerce.config import PAPER_CONFIG
    from repro.ecommerce.spec import ArrivalSpec
    from repro.experiments.scale import Scale
    from repro.obs.ledger import Ledger, experiment_manifest, simulate_manifest

    manifests = [
        experiment_manifest(experiment, Scale.smoke(), rng.randrange(10_000))
        for experiment in ("fig09_10", "fig16", "fig15", "faults")
    ]
    for _ in range(8):
        load = rng.choice((2.0, 6.0, 9.0))
        manifests.append(simulate_manifest(
            PAPER_CONFIG,
            ArrivalSpec.poisson(PAPER_CONFIG.arrival_rate_for_load(load)),
            PolicySpec.sraa(rng.choice((1, 2, 3)), 5, 3),
            rng.choice((1_000, 5_000, 20_000)),
            rng.choice((1, 3, 5)),
            rng.randrange(10_000),
        ))
    ledger = Ledger(directory)
    for _ in range(entries):
        ledger.append(*ledger_record(rng, manifests))
    return ledger, manifests


def ledger_record(rng: random.Random, manifests: List[Any]) -> Tuple:
    """``(manifest, outcomes, timing)`` for one ``Ledger.append``."""
    outcomes = {
        "avg_response_time": rng.uniform(5.0, 60.0),
        "loss_fraction": rng.uniform(0.0, 0.2),
        "rejuvenations": rng.randrange(40),
    }
    return rng.choice(manifests), outcomes, {"wall_clock_s": rng.uniform(0.1, 9)}


def seed_bench_dir(directory: str, rng: random.Random) -> None:
    """Six benchmark trajectories of twenty points each."""
    from repro.obs.ledger import record_bench_point

    for index in range(6):
        base = rng.uniform(0.5, 20.0)
        for _ in range(20):
            record_bench_point(
                f"trajectory_{index}", base * rng.uniform(0.9, 1.1),
                units="s", directory=directory,
            )


def route_path(route: str, ids: List[str], rng: random.Random) -> str:
    """A request path for ``route``; refs are drawn from ``ids``."""
    if route == "runs_list":
        return "/api/runs?limit=50"
    if route == "run_entry":
        return f"/api/runs/{rng.choice(ids)}"
    if route == "diff":
        left, right = rng.sample(ids, 2)
        return f"/api/diff?left={left}&right={right}"
    return {"health": "/api/health", "bench": "/api/bench",
            "dashboard": "/"}[route]


def http_get(connection: http.client.HTTPConnection, route: str, path: str,
             tally: Tally, rec: Any) -> Optional[bytes]:
    """One timed GET; the body of a 200 response, else ``None``."""
    started = time.perf_counter_ns()
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as error:
        connection.close()
        tally.op()
        tally.fail(f"GET {path}: {error!r}")
        return None
    elapsed = time.perf_counter_ns() - started
    tally.op(elapsed / 1e6)
    if rec is not None:
        rec.count(f"serve.GET.{route}", 1, elapsed)
    if response.status != 200:
        tally.fail(f"GET {path}: status {response.status}")
        return None
    return body


class ReadWriteLock:
    """Many readers at once, or one writer alone; waiting writers go first.

    ``Ledger.append`` writes a line that can cross a page boundary, and
    a server reading ``runs.jsonl`` meanwhile can see half of it: a torn
    line that ``Ledger.entries`` rejects, failing the GET.  The
    serve_ledger clients therefore never GET while one of them appends.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers = 0  # waiting or writing
        self._writing = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writers:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers += 1
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._writers -= 1
                self._cond.notify_all()


def start_server(ledger_dir: str, bench_dir: str, cwd: str,
                 env: Dict[str, str]) -> Tuple[subprocess.Popen, str, int]:
    """``repro serve`` in a subprocess; returns it with its address."""
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--host",
         "127.0.0.1", "--port", "0", "--ledger", ledger_dir,
         "--bench-dir", bench_dir, "--schedule-tick", "0"],
        stdout=subprocess.PIPE, text=True, cwd=cwd, env=env,
    )
    ready, _, _ = select.select([process.stdout], [], [], 60.0)
    line = process.stdout.readline() if ready else ""
    match = re.search(r"http://([0-9.]+):([0-9]+)", line)
    if match is None:
        stop_server(process)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return process, match.group(1), int(match.group(2))


def stop_server(process: subprocess.Popen) -> None:
    """Interrupt the server (it shuts down cleanly) and reap it."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


class ServeLedger(Workload):
    """Closed loop against ``repro serve`` while clients append runs.

    Two client threads, each on one keep-alive HTTP/1.1 connection,
    issue 30 GETs per round from the seeded :data:`ROUTE_MIX`; after
    every 10th GET a client appends a run to the served ledger, as a
    CLI run records while a dashboard polls (never during a GET: see
    :class:`ReadWriteLock`).  Each round starts from the same 500-entry
    ledger, so rounds are identical.
    """

    SEED_ENTRIES = 500
    GETS_PER_CLIENT = 30
    APPEND_EVERY = 10

    def __init__(self, seed: int, work_dir: str, env: Dict[str, str]) -> None:
        super().__init__(seed, work_dir)
        self.env = env
        self.server: Optional[subprocess.Popen] = None
        self.connections: List[http.client.HTTPConnection] = []
        self.ledger_lock = ReadWriteLock()

    def setup(self) -> None:
        from repro.obs.ledger import Ledger

        rng = random.Random(self.seed)
        self.pristine = self.path("pristine")
        ledger, self.manifests = seed_ledger(
            self.pristine, self.SEED_ENTRIES, rng
        )
        ids = [entry["id"] for entry in ledger.entries()]
        bench = self.path("bench")
        seed_bench_dir(bench, rng)
        self.live = self.path("ledger")
        shutil.copytree(self.pristine, self.live)
        self.ledger = Ledger(self.live)
        self.server, host, port = start_server(
            self.live, bench, self.work_dir, self.env
        )
        routes, weights = zip(*ROUTE_MIX)
        self.plans = [
            [(route, route_path(route, ids, rng))
             for route in rng.choices(routes, weights, k=self.GETS_PER_CLIENT)]
            for _ in range(WORKERS)
        ]
        self.records = [
            [ledger_record(rng, self.manifests)
             for _ in range(self.GETS_PER_CLIENT // self.APPEND_EVERY)]
            for _ in range(WORKERS)
        ]
        self.connections = [
            http.client.HTTPConnection(host, port, timeout=60)
            for _ in range(WORKERS)
        ]
        warm = Tally()
        for connection in self.connections:
            http_get(connection, "health", "/api/health", warm, None)
        if warm.failed:
            raise RuntimeError(f"serve warm-up failed: {warm.problems}")

    def _check(self, route: str, path: str, body: bytes, entries: int,
               tally: Tally) -> None:
        if route == "dashboard":
            if not body.startswith(b"<!DOCTYPE html>"):
                tally.fail("GET /: not an HTML document")
            return
        try:
            payload = json.loads(body)
        except ValueError as error:
            tally.fail(f"GET {path}: bad JSON ({error})")
            return
        if route == "runs_list" and payload["total"] != entries:
            tally.fail(
                f"GET {path}: total {payload['total']}, the ledger holds "
                f"{entries} entries"
            )
        elif route == "run_entry" and payload.get("id") != path.rsplit("/", 1)[1]:
            tally.fail(f"GET {path}: returned {payload.get('id')}")

    def _client(self, index: int, tally: Tally, rec: Any,
                parent: Optional[int]) -> None:
        connection = self.connections[index]
        records = iter(self.records[index])
        with maybe_span(rec, "serve.client", parent):
            for count, (route, path) in enumerate(self.plans[index], 1):
                with self.ledger_lock.read():
                    entries = self.SEED_ENTRIES + self.appends
                    body = http_get(connection, route, path, tally, rec)
                if body is not None:
                    self._check(route, path, body, entries, tally)
                if count % self.APPEND_EVERY:
                    continue
                tally.op()
                with self.ledger_lock.write():
                    try:
                        with maybe_span(rec, "obs.ledger.append"):
                            self.ledger.append(*next(records))
                    except (OSError, ValueError) as error:
                        tally.fail(f"Ledger.append: {error!r}")
                        continue
                    self.appends += 1

    def round(self, tally: Tally, rec: Any) -> Tuple[int, Dict[str, str]]:
        shutil.copyfile(
            os.path.join(self.pristine, "runs.jsonl"),
            os.path.join(self.live, "runs.jsonl"),
        )
        self.appends = 0
        before = tally.attempted
        parent = None if rec is None else rec.current()
        threads = [
            threading.Thread(target=self._client, args=(i, tally, rec, parent))
            for i in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = self.SEED_ENTRIES + self.appends
        held = len(self.ledger.entries())
        if held != expected:
            tally.fail(f"ledger holds {held} entries, expected {expected}")
        return tally.attempted - before, {}

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.server is not None:
            stop_server(self.server)
            self.server = None


def make_workload(name: str, seed: int, work_dir: str, root: str,
                  env: Dict[str, str]) -> Workload:
    if name == "paper_quick":
        return PaperQuick(seed, work_dir)
    if name == "zoo_campaign":
        return ZooCampaign(seed, work_dir, root)
    if name == "trace_pipeline":
        return TracePipeline(seed, work_dir)
    if name == "serve_ledger":
        return ServeLedger(seed, work_dir, env)
    raise ValueError(f"unknown workload {name!r}")
