#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--repeat N] [--json OUT]
        [--record DIR] [--spans PATH] [--write-expected]

One run sets a workload up from ``--seed``, then repeats its round for
``--seconds`` (at least twice) and prints every metric as ``name value
unit``, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` alternates plain and traced rounds (spans
around every call into ``repro``), runs the layer probes, and reports
the per-layer metrics.  Every round's outputs are checked: against the
run's first round at any seed, and against ``expected/`` at the
oracle seed.  The exit code is 1 on any failed check.

``--workload all`` and ``--repeat N`` run each workload N times, each
in a fresh process, and report the median and quartiles per metric.
``--json OUT`` appends each run as one JSON line (input to
``compare.py``); ``--record DIR`` appends each end-to-end metric to
``DIR/BENCH_<workload>.<metric>.json``; ``--spans PATH`` dumps the
run's spans and counters.  Names, units and bounds of every metric
live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for fixtures and traces, inside the checkout.
WORK_ROOT = ROOT / ".bench_tmp"
EXPECTED = HERE / "expected" / "seed2006.json"
#: Fresh-process set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Rounds of each kind (plain, traced) a run makes however short.
MIN_ROUNDS = 2

WORKLOADS = ("paper_quick", "zoo_campaign", "trace_pipeline", "serve_ledger")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured window (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh-process runs per workload")
    parser.add_argument("--json", metavar="OUT",
                        help="append each run to OUT as one JSON line")
    parser.add_argument("--record", metavar="DIR",
                        help="append end-to-end metrics to BENCH_*.json "
                        "trajectories in DIR")
    parser.add_argument("--spans", metavar="PATH",
                        help="dump spans and counters to PATH")
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's output digests as the "
                        "oracle (only at the oracle seed)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.spans and (args.workload == "all" or args.repeat > 1):
        parser.error("--spans needs a single run")
    return args


def load_spec() -> Dict[str, List[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def prepare_environment() -> None:
    """Import path, scratch space and a fixed provenance for ``repro``.

    ``REPRO_GIT_SHA`` is resolved once here: without it every ledger
    manifest and every ``/api/health`` request would run ``git``, at a
    cost that depends on where the checkout lives.
    """
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    os.environ["TMPDIR"] = str(WORK_ROOT)
    tempfile.tempdir = str(WORK_ROOT)
    os.environ["REPRO_LEDGER"] = "0"
    for name in ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_LEDGER_DIR",
                 "REPRO_SCALE"):
        os.environ.pop(name, None)
    if not os.environ.get("REPRO_GIT_SHA"):
        from repro.obs.ledger.provenance import git_revision

        os.environ["REPRO_GIT_SHA"] = git_revision(str(ROOT))[0] or "unknown"


def expected_digests(workload: str) -> Dict[str, str]:
    """The oracle seed's pinned output digests of one workload."""
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


class Oracle:
    """Checks each round's digests against the run's first round and,
    when given, against the pinned ``expected`` digests."""

    def __init__(self, tally, expected: Optional[Dict[str, str]]) -> None:
        self.tally = tally
        self.first: Optional[Dict[str, str]] = None
        self.expected = expected

    def check(self, digests: Dict[str, str]) -> None:
        if self.first is None:
            self.first = dict(digests)
            if self.expected is not None and set(self.expected) != set(digests):
                self.tally.fail(
                    f"expected digests for {sorted(self.expected)}, "
                    f"produced {sorted(digests)}"
                )
        for key, value in digests.items():
            if value != self.first.get(key):
                self.tally.fail(f"{key}: output differs from round 1")
            elif self.expected is not None and self.expected.get(key) != value:
                self.tally.fail(f"{key}: {value} != expected "
                                f"{self.expected.get(key)}")


def setup_wall(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh process to its workload being set
    up: imports, fixtures, server start and warm-up."""
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([probe.stdout], [], [], 60.0)
        line = probe.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - started
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        probe.stdout.read()
        if probe.wait(timeout=60) != 0:
            raise RuntimeError("set-up probe failed after set-up")
    finally:
        if probe.poll() is None:
            probe.terminate()
            try:
                probe.wait(timeout=10)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
        probe.stdout.close()
    return elapsed


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def run_rounds(workload, args: argparse.Namespace, tally, rec, oracle):
    """Repeat the workload's round until the window closes.

    Returns ``(plain walls, traced walls, operations in plain rounds)``.
    With ``--trace 1`` plain and traced rounds alternate.  A round
    starts only while the window still has room for a median round.
    """
    from workloads import maybe_span

    plain: List[float] = []
    traced: List[float] = []
    ops = 0
    started = time.perf_counter()
    while True:
        is_traced = bool(args.trace) and len(traced) < len(plain)
        round_rec = rec if is_traced else None
        with maybe_span(round_rec, "round"):
            round_started = time.perf_counter()
            work, digests = workload.round(tally, round_rec)
            wall = time.perf_counter() - round_started
        (traced if is_traced else plain).append(wall)
        if not is_traced:
            ops += work
        oracle.check(digests)
        elapsed = time.perf_counter() - started
        enough = len(plain) >= MIN_ROUNDS and (
            not args.trace or len(traced) >= MIN_ROUNDS
        )
        if enough and elapsed + statistics.median(plain) > args.seconds:
            return plain, traced, ops


def run_single(args: argparse.Namespace) -> int:
    from probes import Probes
    from spans import SpanRecorder
    from workloads import ORACLE_SEED, Tally, make_workload, percentile

    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    tally = Tally()
    rec = SpanRecorder()
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workload = make_workload(args.workload, args.seed, work_dir,
                                 str(ROOT), dict(os.environ))
        if args.setup_probe:
            try:
                workload.setup()
                print("ready", flush=True)
            finally:
                workload.teardown()
            return 0
        setups = [] if args.trace else [
            setup_wall(args) for _ in range(SETUP_SAMPLES)
        ]
        pinned = args.seed == ORACLE_SEED and not args.write_expected
        oracle = Oracle(
            tally, expected_digests(args.workload) if pinned else None
        )
        try:
            workload.setup()
            plain, traced, ops = run_rounds(workload, args, tally, rec, oracle)
            workload.verify(tally)
        finally:
            workload.teardown()
        if args.trace:
            metrics = Probes(args.seed, work_dir, rec).run()
            metrics["trace_overhead"] = (
                statistics.median(traced) / statistics.median(plain)
            )
            expected_names = [m["name"] for m in spec["per_layer"]]
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(plain),
                "ops_per_s": ops / sum(plain),
                "peak_rss_mb": peak_rss_mb(),
            }
            expected_names = [m["name"] for m in spec["end_to_end"]]
        if sorted(metrics) != sorted(expected_names):
            raise RuntimeError(
                f"metrics {sorted(metrics)} do not match BENCHMARK.json"
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain)} plain + {len(traced)} traced rounds, "
          f"{tally.attempted} operations, {tally.failed} failed")
    print("round walls (s): " + " ".join(f"{wall:.3f}" for wall in plain))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if tally.latencies_ms:
        print(f"operation latency over {len(tally.latencies_ms)} samples: "
              f"p50 {percentile(tally.latencies_ms, 0.5):.4g} ms, "
              f"p90 {percentile(tally.latencies_ms, 0.9):.4g} ms")
    for name in expected_names:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    if args.trace:
        for layer, seconds in sorted(rec.layer_self_s("round").items()):
            print(f"span.{layer}.self_s {seconds / len(traced):.6g} s")
        for name, (calls, ns) in sorted(rec.counters.items()):
            print(f"counter.{name}.ns_per_call {ns / calls:.6g} ns")
    if args.spans:
        rec.dump(args.spans)
    if args.write_expected:
        write_expected(args, oracle.first)
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in expected_names
        },
    }
    if args.json:
        with open(args.json, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(
                result, workload=args.workload, seed=args.seed,
                trace=args.trace, seconds=args.seconds,
            )) + "\n")
    if args.record and not args.trace:
        from repro.obs.ledger import record_bench_point

        for name in expected_names:
            record_bench_point(
                f"{args.workload}.{name}", metrics[name], units=units[name],
                seed=args.seed, directory=args.record,
            )
    print(json.dumps(result))
    return 0 if correct else 1


def write_expected(args: argparse.Namespace,
                   digests: Optional[Dict[str, str]]) -> None:
    from workloads import ORACLE_SEED

    if args.seed != ORACLE_SEED or digests is None:
        raise SystemExit(f"--write-expected needs --seed {ORACLE_SEED}")
    expected = {}
    if EXPECTED.exists():
        with open(EXPECTED, encoding="utf-8") as handle:
            expected = json.load(handle)
    expected[args.workload] = digests
    EXPECTED.parent.mkdir(exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_many(args: argparse.Namespace) -> int:
    """Each (workload, repetition) in a fresh process, then a summary."""
    from compare import quartiles

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    attempted = failed = 0
    ok = True
    for name in names:
        for _ in range(args.repeat):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            for flag, value in (("--json", args.json),
                                ("--record", args.record)):
                if value:
                    command += [flag, value]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(child.stdout, end="", flush=True)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                ok = False
            if not lines or not lines[-1].startswith("{"):
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(f"{name}.{metric}", []).append(entry["value"])
                units[f"{name}.{metric}"] = entry["unit"]
    print(f"summary over {args.repeat} run(s) per workload: "
          "median [q1, q3]")
    summary = {}
    for key, series in values.items():
        q1, median, q3 = quartiles(series)
        print(f"{key} {median:.6g} {units[key]} [{q1:.6g}, {q3:.6g}]")
        summary[key] = {"value": median, "unit": units[key]}
    correct = ok and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    prepare_environment()
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop the server
    # and pool processes a run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all" or args.repeat > 1:
        return run_many(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
