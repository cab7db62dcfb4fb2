"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------

``repro list``
    Show every registered experiment with its description.
``repro run EXPERIMENT [--scale quick|smoke|paper] [--seed N]
[--workers N] [--backend serial|process|auto]``
    Run one experiment, a comma-separated list, or ``all``, and print
    its tables.  With ``--workers N > 1`` the replication jobs of each
    experiment fan out over a process pool; when several experiments
    are requested, the independent experiments themselves are
    dispatched concurrently.  ``REPRO_WORKERS`` / ``REPRO_BACKEND``
    are the environment equivalents.
``repro mmc --load CPUS``
    Print the analytical M/M/16 response-time facts at one load.
``repro policies``
    List the policy names the factory accepts.
``repro simulate [--policy NAME] [--workers N] [--telemetry-csv PATH]``
    One-off simulation of the Section-3 system under a policy.
``repro explain TRACE [--since TS] [--until TS] [--kind KIND]``
    Human-readable timeline from a ``--trace`` file (JSONL or columnar,
    plain or ``.gz``): names the bucket, batch mean and threshold
    behind every rejuvenation.  ``--since``/``--until`` window the
    narration by simulation time; ``--kind`` (repeatable) restricts it
    to exact event types or dotted prefixes (``policy`` matches
    ``policy.trigger``).
``repro faults list|run|score``
    The fault-injection subsystem: list the built-in adversarial
    scenarios, run a (scenario x policy x replication) campaign with
    robustness scoring (``--workers``, ``--trace``, ``--csv``), or
    re-score an existing campaign trace.
``repro report TRACE [-o PATH]``
    Render a trace (JSONL or columnar, plain or ``.gz``) as a
    self-contained HTML dashboard: RT percentiles over time, bucket
    levels, fault intervals, decisions.
``repro trace convert IN OUT [--to jsonl|columnar]``
    Convert a trace between JSONL and the columnar ``.rcol`` store
    (either direction, ``.gz`` aware; the output format is inferred
    from the extension unless ``--to`` forces it).  The round trip is
    lossless: JSONL -> columnar -> JSONL is byte-identical.
``repro top [simulate options]``
    Run a simulation with a live-refreshing terminal snapshot
    (equivalent to ``repro simulate --top``).
``repro runs list|show|diff|baseline|check|bench``
    The cross-run ledger: every ``simulate`` / ``run`` / ``faults run``
    invocation appends a provenance manifest plus its deterministic
    outcomes to ``.repro/ledger/runs.jsonl`` (``REPRO_LEDGER_DIR``
    overrides the directory, ``REPRO_LEDGER=0`` or ``--no-ledger``
    disables recording).  ``diff`` compares two entries field by field,
    ``baseline`` pins one, and ``check`` statistically compares a run
    against a pinned baseline (z-test on replication means, with an
    SRAA-style persistence filter before flagging).  ``bench`` lists
    the ``BENCH_*.json`` benchmark trajectories.

``repro run`` and ``repro simulate`` both accept ``--trace PATH``
(a ``.rcol`` or ``.columnar`` suffix, optionally ``.gz``, writes the
columnar container, anything else JSONL),
``--trace-level spans|decisions|all``, ``--trace-chrome PATH``
(Chrome/Perfetto ``trace_event`` JSON) and ``--metrics PATH``
(Prometheus textfile snapshot).  ``repro simulate``, ``repro top`` and
``repro faults run`` additionally accept the live-telemetry options:
``--live`` (constant-memory streaming summary), ``--top`` (live
terminal panel), ``--flight PATH`` (flight-recorder dump JSONL),
``--slo SECONDS`` (SLO-breach dump trigger) and ``--profile``
(per-subsystem DES attribution).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional, Tuple

from repro.exec.backends import (
    ExecutionBackend,
    SerialBackend,
    make_backend,
)
from repro.exec.progress import ProgressPrinter, StageTimer
from repro.experiments.registry import (
    describe,
    experiment_ids,
    run_experiment,
)
from repro.experiments.scale import Scale
from repro.experiments.tables import ExperimentResult


class _VersionAction(argparse.Action):
    """``--version`` without paying the git subprocess on every parse."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.obs.ledger.provenance import version_string

        print(version_string())
        parser.exit()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Performance Assurance via Software "
            "Rejuvenation' (DSN 2006)"
        ),
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print the package version and git revision",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")
    policies = sub.add_parser(
        "policies", help="list available policy names"
    )
    policies.add_argument(
        "--params",
        action="store_true",
        help="also show each policy's parameters (the '-p name=value' "
        "spellings and their defaults)",
    )

    run = sub.add_parser("run", help="run an experiment and print its tables")
    run.add_argument(
        "experiment",
        help=(
            "experiment id from 'repro list', a comma-separated list "
            "of ids, or 'all'"
        ),
    )
    run.add_argument(
        "--scale",
        choices=("smoke", "quick", "paper"),
        default=None,
        help="simulation scale (default: REPRO_SCALE env or 'quick')",
    )
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result(s) as JSON (directory when "
        "running several experiments, file otherwise)",
    )
    run.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each table as CSV into this directory",
    )
    _add_backend_options(run)
    _add_trace_options(run)
    _add_ledger_option(run)

    mmc = sub.add_parser("mmc", help="analytical M/M/16 facts at one load")
    mmc.add_argument(
        "--load", type=float, required=True, help="offered load in CPUs"
    )
    mmc.add_argument("--servers", type=int, default=16)
    mmc.add_argument("--service-rate", type=float, default=0.2)

    simulate = sub.add_parser(
        "simulate",
        help="one-off simulation of the Section-3 system under a policy",
    )
    _add_simulate_options(simulate)

    top = sub.add_parser(
        "top",
        help="simulate with a live-refreshing terminal snapshot "
        "(repro simulate --top)",
    )
    _add_simulate_options(top)
    top.add_argument(
        "--follow",
        type=float,
        default=None,
        metavar="SECONDS",
        help="do not simulate; re-render every SECONDS from a running "
        "'repro serve' (see --url) until interrupted",
    )
    top.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="snapshot source for --follow: a 'repro serve' base URL "
        "or /api/live endpoint, or a JSON file path "
        "(default http://127.0.0.1:8765/api/live)",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="stop --follow after N frames (default: follow forever)",
    )

    explain = sub.add_parser(
        "explain",
        help="explain every rejuvenation in a --trace file",
    )
    explain.add_argument(
        "trace",
        help="path to a trace file (JSONL or columnar, plain or .gz)",
    )
    explain.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="SECONDS",
        help="only narrate events at or after this simulated time",
    )
    explain.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="SECONDS",
        help="only narrate events at or before this simulated time",
    )
    explain.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="TYPE",
        help="only narrate events of this type or dotted prefix "
        "(e.g. 'fault' keeps fault.injected and fault.cleared; "
        "repeatable)",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the timeline as machine-readable JSON records "
        "(the same evidence format the sentinel alert engine attaches "
        "to incidents) instead of prose",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="trace-file utilities (JSONL <-> columnar conversion)",
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_convert = trace_sub.add_parser(
        "convert",
        help="losslessly convert a trace between JSONL and the "
        "columnar container",
    )
    trace_convert.add_argument(
        "input",
        help="source trace (JSONL or columnar, plain or .gz; the "
        "format is sniffed from the file's bytes)",
    )
    trace_convert.add_argument(
        "output",
        help="destination path (a '.gz' suffix gzips; '.jsonl'/'.json' "
        "and '.rcol'/'.columnar' name the format, otherwise the opposite of the input is "
        "written)",
    )
    trace_convert.add_argument(
        "--to",
        choices=("jsonl", "columnar"),
        default=None,
        help="force the output format (default: inferred from the "
        "output path)",
    )

    report = sub.add_parser(
        "report",
        help="render a trace as a self-contained HTML dashboard",
    )
    report.add_argument(
        "trace",
        help="path to a trace file (JSONL or columnar, plain or .gz)",
    )
    report.add_argument(
        "-o",
        "--out",
        metavar="PATH",
        default=None,
        help="output HTML path (default: TRACE with a .html suffix)",
    )
    report.add_argument(
        "--title", default=None, help="dashboard title (default: the path)"
    )
    report.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="per-run detail sections to render (default 12)",
    )

    faults = sub.add_parser(
        "faults",
        help="fault-injection scenarios and robustness campaigns",
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    faults_list = faults_sub.add_parser(
        "list", help="list the built-in adversarial scenarios"
    )
    _add_horizon_option(faults_list)

    faults_run = faults_sub.add_parser(
        "run",
        help="run a (scenario x policy x replication) campaign "
        "and print the robustness scores",
    )
    faults_run.add_argument(
        "scenarios",
        nargs="?",
        default="all",
        help="comma-separated scenario names from 'repro faults list', "
        "or 'all' (default)",
    )
    faults_run.add_argument(
        "--scenario-file",
        metavar="PATH",
        default=None,
        help="also run a scenario loaded from a YAML/JSON file "
        "(see docs/faults.md for the schema)",
    )
    faults_run.add_argument(
        "--policies",
        default="SRAA,SARAA,CLTA",
        help="comma-separated policy names (factory names or the "
        "default labels SRAA/SARAA/CLTA at paper parameters)",
    )
    faults_run.add_argument(
        "--replications",
        type=int,
        default=5,
        help="replications per (scenario, policy) cell (default 5)",
    )
    faults_run.add_argument("--seed", type=int, default=0)
    faults_run.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also write the scores as CSV",
    )
    _add_horizon_option(faults_run)
    _add_backend_options(faults_run)
    _add_trace_options(faults_run)
    _add_live_options(faults_run)
    _add_ledger_option(faults_run)
    _add_system_options(faults_run)

    faults_score = faults_sub.add_parser(
        "score",
        help="re-score a 'repro faults run --trace' JSONL file "
        "against the built-in ground truth",
    )
    faults_score.add_argument("trace", help="path to a campaign trace")
    faults_score.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also write the scores as CSV",
    )
    _add_horizon_option(faults_score)

    runs = sub.add_parser(
        "runs",
        help="cross-run ledger: list, show, diff, pin and check runs",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument(
        "--kind",
        choices=("simulate", "experiment", "faults"),
        default=None,
        help="only runs of this kind",
    )
    runs_list.add_argument(
        "-n",
        "--last",
        type=_count,
        default=None,
        metavar="N",
        help="only the N most recent runs",
    )
    runs_list.add_argument(
        "--json",
        action="store_true",
        help="print the listing as JSON (the same payload "
        "'repro serve' returns from GET /api/runs)",
    )
    _add_ledger_dir_option(runs_list)

    runs_show = runs_sub.add_parser(
        "show", help="show one run's manifest and outcomes"
    )
    runs_show.add_argument(
        "ref", help="entry id, unique id prefix, or 'latest'"
    )
    runs_show.add_argument(
        "--json",
        action="store_true",
        help="print the raw ledger entry as JSON",
    )
    _add_ledger_dir_option(runs_show)

    runs_diff = runs_sub.add_parser(
        "diff", help="field-by-field comparison of two runs"
    )
    runs_diff.add_argument("left", help="baseline-side ref")
    runs_diff.add_argument("right", help="candidate-side ref")
    runs_diff.add_argument(
        "--limit",
        type=int,
        default=40,
        help="differences to display (0 = all; default 40)",
    )
    _add_ledger_dir_option(runs_diff)

    runs_baseline = runs_sub.add_parser(
        "baseline", help="pin a run as a named baseline (no ref: list pins)"
    )
    runs_baseline.add_argument(
        "ref",
        nargs="?",
        default=None,
        help="entry id, unique id prefix, or 'latest'",
    )
    runs_baseline.add_argument(
        "--label",
        default="default",
        help="baseline name (default 'default')",
    )
    _add_ledger_dir_option(runs_baseline)

    runs_check = runs_sub.add_parser(
        "check",
        help="statistically compare a run against a pinned baseline",
    )
    runs_check.add_argument(
        "candidate",
        nargs="?",
        default="latest",
        help="candidate ref (default 'latest')",
    )
    runs_check.add_argument(
        "--baseline",
        default="default",
        help="pinned baseline name (default 'default')",
    )
    runs_check.add_argument(
        "--against",
        metavar="PATH",
        default=None,
        help="compare against a ledger entry exported to a JSON file "
        "('repro runs show REF --json') instead of a pinned baseline",
    )
    runs_check.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="z-test confidence for replication-mean metrics "
        "(default 0.95)",
    )
    runs_check.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative band for scalar metrics (default 0.05)",
    )
    runs_check.add_argument(
        "--persistence",
        type=int,
        default=2,
        help="consecutive exceedances before flagging, like the "
        "SRAA bucket-persistence D (default 2)",
    )
    runs_check.add_argument(
        "--warn-only",
        action="store_true",
        help="always exit 0 (report only); for CI gates that warn",
    )
    runs_check.add_argument(
        "--json",
        action="store_true",
        help="print the check report as JSON",
    )
    _add_ledger_dir_option(runs_check)

    runs_bench = runs_sub.add_parser(
        "bench", help="list the BENCH_*.json benchmark trajectories"
    )
    runs_bench.add_argument(
        "--dir",
        dest="bench_dir",
        metavar="DIR",
        default=None,
        help="trajectory directory (default: REPRO_BENCH_DIR or "
        ".repro/bench)",
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP observability plane: JSON API over the run ledger, "
        "live SSE telemetry, campaign launches, HTML dashboard",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default 8765; 0 picks a free port)",
    )
    serve.add_argument(
        "--bench-dir",
        dest="bench_dir",
        metavar="DIR",
        default=None,
        help="benchmark trajectory directory served at /api/bench "
        "(default: REPRO_BENCH_DIR or .repro/bench)",
    )
    serve.add_argument(
        "--watch",
        metavar="RULES.json",
        default=None,
        help="alert rules file evaluated continuously while serving "
        "(see docs/observability.md: burn_rate / regression families)",
    )
    serve.add_argument(
        "--alerts",
        dest="alerts_dir",
        metavar="DIR",
        default=None,
        help="append incident transitions to DIR/alerts.jsonl "
        "(default: REPRO_ALERTS_DIR when set, else not persisted)",
    )
    serve.add_argument(
        "--schedule-tick",
        dest="schedule_tick",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="wall-clock scheduler tick period (default 1.0; 0 "
        "disables the ticker so POST /api/schedules/tick drives a "
        "virtual clock)",
    )
    _add_ledger_dir_option(serve)

    watch = sub.add_parser(
        "watch",
        help="continuous assurance: evaluate alert rules over recorded "
        "runs (--tick) or tail a serve process's alert stream "
        "(--follow)",
    )
    mode = watch.add_mutually_exclusive_group()
    mode.add_argument(
        "--tick",
        action="store_true",
        help="one-shot evaluation: replay --trace / walk the ledger, "
        "print incidents, exit 1 if any is open (default mode)",
    )
    mode.add_argument(
        "--follow",
        action="store_true",
        help="attach to a 'repro serve' SSE stream and print alerts "
        "as they fire (reconnects with Last-Event-ID + backoff)",
    )
    watch.add_argument(
        "--rules",
        metavar="RULES.json",
        default=None,
        help="alert rules file ({'burn_rate': [...], "
        "'regression': [...]})",
    )
    watch.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace file (JSONL or .rcol) replayed through the "
        "burn-rate rules in --tick mode",
    )
    watch.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="convenience burn-rate rule: response-time SLO "
        "(equivalent to a one-rule --rules file)",
    )
    watch.add_argument(
        "--objective",
        type=float,
        default=0.95,
        help="SLO objective for --slo (default 0.95)",
    )
    watch.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="burn-rate factor for --slo (default 4.0)",
    )
    watch.add_argument(
        "--long-window",
        dest="long_window",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="burn-rate long window for --slo (default 600)",
    )
    watch.add_argument(
        "--short-window",
        dest="short_window",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="burn-rate short window for --slo (default 120)",
    )
    watch.add_argument(
        "--min-count",
        dest="min_count",
        type=int,
        default=50,
        help="minimum long-window completions for --slo (default 50)",
    )
    watch.add_argument(
        "--baseline",
        default=None,
        metavar="LABEL",
        help="convenience regression rule: compare every ledger entry "
        "against this pinned baseline label",
    )
    watch.add_argument(
        "--persistence",
        type=int,
        default=None,
        help="consecutive exceedances before a regression fires "
        "(default 2, the paper's SRAA discipline)",
    )
    watch.add_argument(
        "--snapshot-every",
        dest="snapshot_every",
        type=int,
        default=500,
        metavar="N",
        help="completions between synthetic snapshots when replaying "
        "a trace (default 500)",
    )
    watch.add_argument(
        "--alerts",
        dest="alerts_dir",
        metavar="DIR",
        default=None,
        help="append incident transitions to DIR/alerts.jsonl",
    )
    watch.add_argument(
        "--sink",
        action="append",
        default=None,
        metavar="SPEC",
        help="alert sink: stdout, file:PATH, or webhook:URL "
        "(repeatable)",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print the incident table as JSON (--tick mode)",
    )
    watch.add_argument(
        "--url",
        default=None,
        help="serve base URL for --follow "
        "(default http://127.0.0.1:8765)",
    )
    watch.add_argument(
        "--max-events",
        dest="max_events",
        type=int,
        default=None,
        metavar="N",
        help="stop --follow after printing N events",
    )
    watch.add_argument(
        "--timeout",
        dest="timeout_s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop --follow after this many seconds",
    )
    _add_ledger_dir_option(watch)
    return parser


def _add_ledger_dir_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        dest="ledger_dir",
        metavar="DIR",
        default=None,
        help="ledger directory (default: REPRO_LEDGER_DIR or "
        ".repro/ledger)",
    )


def _add_ledger_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this run in the ledger "
        "(REPRO_LEDGER=0 is the environment equivalent)",
    )


_CLUSTER_OR_FLEET = ("system", ("cluster", "fleet"))
_LIMITED = ("scheduler", ("rolling", "canary"))

#: The options that shape a ``--system`` substrate: flag, argparse
#: keywords, and the reader ``(option, values)`` -- the value is read
#: only while ``option`` takes one of ``values`` (``None``: while
#: ``option`` is given at all).  Anything else is a usage error.
_SYSTEM_OPTIONS = (
    ("--nodes", dict(
        type=int,
        help="node count for --system cluster/fleet (defaults: 4 / 100)",
    ), _CLUSTER_OR_FLEET),
    ("--shards", dict(
        type=int, help="shard count for --system fleet (default 4)",
    ), ("system", ("fleet",))),
    ("--balancer", dict(
        help="load balancer for cluster/fleet "
        "(round_robin, random, jsq; default round_robin)",
    ), _CLUSTER_OR_FLEET),
    ("--scheduler", dict(
        choices=("rolling", "canary", "unrestricted"),
        help="fleet rejuvenation scheduler (default: independent "
        "per-node triggers)",
    ), _CLUSTER_OR_FLEET),
    ("--capacity-floor", dict(
        type=float,
        help="fraction of nodes that must stay up per scheduling "
        "domain (e.g. 0.8)",
    ), _LIMITED),
    ("--max-nodes-down", dict(
        type=int, help="absolute cap on concurrently rejuvenating nodes",
    ), _LIMITED),
    ("--pod-size", dict(
        type=int,
        help="blast-radius pod size (consecutive global node indices)",
    ), _LIMITED),
    ("--max-down-per-pod", dict(
        type=int, help="concurrently-down cap within one pod (default 1)",
    ), ("pod_size", None)),
    ("--min-gap", dict(
        type=float,
        help="minimum simulated seconds between grants (default 0)",
    ), _LIMITED),
    ("--canary-soak", dict(
        type=float,
        help="canary scheduler: soak seconds after the canary's "
        "downtime before the wave opens",
    ), ("scheduler", ("canary",))),
)


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    """Substrate selection (see repro.systems and docs/systems.md)."""
    parser.add_argument(
        "--system",
        choices=("ecommerce", "cluster", "fleet"),
        default="ecommerce",
        help="substrate to run against: the single Section-3 node "
        "(default), a balanced cluster, or a sharded fleet",
    )
    for flag, keywords, _ in _SYSTEM_OPTIONS:
        parser.add_argument(flag, **keywords)


def _check_system_flags(args: argparse.Namespace) -> None:
    """Refuse any ``--system`` option the chosen substrate would ignore."""
    for flag, _, (option, values) in _SYSTEM_OPTIONS:
        given = getattr(args, flag[2:].replace("-", "_")) is not None
        value = getattr(args, option)
        if given and (value is None or values and value not in values):
            needs = "--" + option.replace("_", "-")
            if values:
                needs += " " + " or ".join(values)
            raise SystemExit(f"{flag}: only read with {needs}")


def _given(**options):
    """The keyword arguments whose value was given (is not ``None``)."""
    return {key: value for key, value in options.items() if value is not None}


def _make_system_spec(args: argparse.Namespace):
    """The ``--system`` options as a SystemSpec (None = single node)."""
    _check_system_flags(args)
    if args.system == "ecommerce":
        return None
    from repro.systems import ClusterSpec, FleetSpec, SchedulerSpec

    try:
        scheduler = None
        if args.scheduler is not None:
            scheduler = SchedulerSpec(
                kind=args.scheduler,
                **_given(
                    min_gap_s=args.min_gap,
                    max_nodes_down=args.max_nodes_down,
                    capacity_floor=args.capacity_floor,
                    pod_size=args.pod_size,
                    max_down_per_pod=args.max_down_per_pod,
                    canary_soak_s=args.canary_soak,
                ),
            )
        spec_class = ClusterSpec if args.system == "cluster" else FleetSpec
        return spec_class(
            scheduler=scheduler,
            **_given(
                n_nodes=args.nodes, shards=args.shards, balancer=args.balancer
            ),
        )
    except ValueError as error:
        raise SystemExit(f"--system: {error}") from None


def _add_simulate_options(parser: argparse.ArgumentParser) -> None:
    """The shared ``simulate`` / ``top`` option set."""
    parser.add_argument(
        "--policy",
        default="sraa",
        help="policy name from 'repro policies', or 'none'",
    )
    parser.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="policy parameter (repeatable), e.g. -p n=2 -p K=5 -p D=3",
    )
    parser.add_argument(
        "--load", type=float, default=9.0, help="offered load in CPUs"
    )
    parser.add_argument("--transactions", type=int, default=20_000)
    parser.add_argument("--replications", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--warmup", type=int, default=0, help="transactions excluded from stats"
    )
    parser.add_argument(
        "--telemetry-csv",
        metavar="PATH",
        default=None,
        help="write fixed-interval telemetry samples of every "
        "replication as CSV (schema: replication + telemetry columns)",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=100.0,
        metavar="SECONDS",
        help="simulated seconds between telemetry samples "
        "(with --telemetry-csv; default 100)",
    )
    _add_backend_options(parser)
    _add_trace_options(parser)
    _add_live_options(parser)
    _add_ledger_option(parser)


def _add_live_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--live",
        action="store_true",
        help="constant-memory streaming telemetry: print merged "
        "quantile-sketch / rate / window statistics at the end",
    )
    parser.add_argument(
        "--top",
        action="store_true",
        help="live-refreshing terminal snapshot while the run executes "
        "(implies --live)",
    )
    parser.add_argument(
        "--flight",
        metavar="PATH",
        default=None,
        help="write the flight-recorder dumps (the last events before "
        "each rejuvenation / fault / SLO breach) as JSONL",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="response-time SLO; a breach triggers a flight-recorder "
        "dump (implies --live)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall-clock and event counts per DES subsystem "
        "and print the table",
    )


def _make_live_spec(args: argparse.Namespace):
    """A LiveSpec when any live-telemetry option was requested."""
    if not (
        args.live or args.top or args.flight is not None
        or args.slo is not None
    ):
        return None
    from repro.obs.live import LiveDisplay, LiveSpec, RecorderSpec

    # --flight/--slo alone run the cheapest always-on configuration:
    # ring + dumps, no streaming aggregators.  --live/--top add them.
    return LiveSpec(
        aggregate=bool(args.live or args.top),
        recorder=RecorderSpec(slo_s=args.slo),
        display=LiveDisplay() if args.top else None,
    )


def _write_live_outputs(result_runs, merged_live, args) -> None:
    """Flight-dump file plus the end-of-run live summary."""
    if args.flight is not None:
        from repro.obs.live import write_flight_jsonl

        dumps = write_flight_jsonl(
            args.flight, [getattr(run, "flight", None) or () for run in result_runs]
        )
        print(f"wrote {args.flight} ({dumps} flight dumps)")
    if merged_live is None or not (args.live or args.top):
        # Flight-only runs skip aggregation; there is nothing to print.
        return
    snapshot = merged_live.snapshot()
    quantiles = "  ".join(
        f"{name}={value:.3f}s"
        for name, value in sorted(snapshot["rt_quantiles"].items())
    )
    print(
        f"live              : {snapshot['completed']} completed, "
        f"{snapshot['lost']} lost, {snapshot['rejuvenations']} "
        f"rejuvenations, {snapshot['faults']} faults"
    )
    if quantiles:
        print(f"live rt sketch    : {quantiles} (eps-rank error bound)")
    print(
        f"live rt window    : mean {snapshot['window_mean']:.3f} s, "
        f"lag-1 autocorr {snapshot['window_autocorr']:+.3f}, "
        f"rate {snapshot['rate_per_s']:.2f}/s"
    )


def _count(text: str) -> int:
    """argparse type for ``--last``: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}"
        )
    return int(text)


def _horizon(text: str) -> float:
    """argparse type for ``--horizon``: the zoo's horizon check."""
    from repro.faults.zoo import check_horizon

    try:
        return check_horizon(float(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_horizon_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--horizon",
        type=_horizon,
        default=900.0,
        metavar="SECONDS",
        help="scenario timeline horizon in simulated seconds "
        "(default 900; the study scale is 3600)",
    )


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a trace of every replication: the columnar "
        "container for a .rcol/.columnar path (optionally .gz), "
        "JSONL otherwise "
        "(inspect with 'repro explain PATH')",
    )
    parser.add_argument(
        "--trace-level",
        choices=("spans", "decisions", "all"),
        default="all",
        help="what to record: request spans, policy decisions, or "
        "everything including engine events (default: all)",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace_event JSON "
        "(load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a Prometheus-style textfile metrics snapshot",
    )


def _maybe_tracing(session):
    """``use_tracing(session)``, or a no-op context when tracing is off."""
    if session is None:
        return contextlib.nullcontext()
    from repro.obs.session import use_tracing

    return use_tracing(session)


def _make_trace_session(args: argparse.Namespace):
    """A TraceSession when any trace/metrics output was requested."""
    if not (args.trace or args.trace_chrome or args.metrics):
        return None
    from repro.obs.columnar.convert import infer_output_format
    from repro.obs.session import TraceSession

    # The --trace suffix names the file format with the rules of
    # 'trace convert'; passing "columnar" as the input format makes
    # unknown suffixes (and no --trace at all) mean JSONL.
    return TraceSession(
        level=args.trace_level,
        trace_format=infer_output_format(args.trace or "", "columnar"),
    )


def _write_trace_outputs(session, args: argparse.Namespace) -> None:
    if args.trace is not None:
        lines = session.write_trace(args.trace)
        print(f"wrote {args.trace} ({lines} records)")
    if args.trace_chrome is not None:
        count = session.write_chrome(args.trace_chrome)
        print(f"wrote {args.trace_chrome} ({count} trace_event records)")
    if args.metrics is not None:
        session.write_metrics(args.metrics)
        print(f"wrote {args.metrics}")


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel worker processes (default: REPRO_WORKERS env or 1)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process"),
        default=None,
        help="execution backend (default: REPRO_BACKEND env or 'auto'; "
        "'auto' picks 'process' when more than one worker is requested)",
    )


def _record_ledger(
    args: Optional[argparse.Namespace],
    manifest,
    outcomes: dict,
    timing: Optional[dict] = None,
) -> None:
    """Append a ledger entry for a CLI run (best-effort, optional)."""
    if args is not None and getattr(args, "no_ledger", False):
        return
    from repro.obs.ledger import ledger_enabled, record_run

    if not ledger_enabled():
        return
    artifacts = None
    if args is not None and getattr(args, "trace", None):
        artifacts = {"trace": os.path.abspath(args.trace)}
    entry = record_run(manifest, outcomes, timing, artifacts=artifacts)
    if entry is not None:
        print(f"ledger            : recorded {entry['id']}")


def _resolve_scale(name: Optional[str]) -> Scale:
    if name is None:
        return Scale.from_env()
    return {"smoke": Scale.smoke, "quick": Scale.quick, "paper": Scale.paper}[
        name
    ]()


def _resolve_backend(args: argparse.Namespace) -> ExecutionBackend:
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    return make_backend(
        args.backend,
        args.workers,
        progress=ProgressPrinter(label="exec"),
    )


def _cmd_list() -> int:
    width = max(len(eid) for eid in experiment_ids())
    for eid in experiment_ids():
        print(f"{eid.ljust(width)}  {describe(eid)}")
    return 0


def _cmd_policies(show_params: bool = False) -> int:
    from repro.core.factory import policy_schema

    for entry in policy_schema():
        print(f"{entry['name']:<16} {entry['summary']}")
        if show_params:
            for param in entry["params"]:
                print(
                    f"    -p {param['name']}=<{param['type']}>"
                    f"  (default {param['default']}) -- {param['doc']}"
                )
    return 0


def _resolve_run_targets(experiment: str) -> Tuple[str, ...]:
    if experiment == "all":
        return experiment_ids()
    return tuple(
        name.strip() for name in experiment.split(",") if name.strip()
    )


def _run_one(spec: Tuple[str, Scale, int]) -> ExperimentResult:
    """Run one registry experiment serially (picklable dispatch target)."""
    eid, scale, seed = spec
    return run_experiment(eid, scale, seed, backend=SerialBackend())


def _cmd_run(
    experiment: str,
    scale: Scale,
    seed: int,
    backend: ExecutionBackend,
    json_path: Optional[str] = None,
    csv_dir: Optional[str] = None,
    trace_args: Optional[argparse.Namespace] = None,
) -> int:
    from repro.experiments.io import save_csv, save_json

    session = (
        _make_trace_session(trace_args) if trace_args is not None else None
    )

    targets = _resolve_run_targets(experiment)
    if not targets:
        raise SystemExit(f"no experiment ids in {experiment!r}")
    many = len(targets) > 1
    timer = StageTimer()
    # Tracing forces the sequential per-experiment path: the installed
    # TraceSession lives in this process only, so experiments dispatched
    # to pool workers could not ingest into it (their replication jobs
    # still fan out through the backend).
    parallel_experiments = (
        many and getattr(backend, "workers", 1) > 1 and session is None
    )
    if parallel_experiments:
        # Independent experiments dispatched concurrently; each runs
        # its own jobs serially (no nested pools).  Results come back
        # in registry order regardless of completion order.
        with timer.stage("all experiments"):
            results = backend.map(
                _run_one, [(eid, scale, seed) for eid in targets]
            )
    else:
        results = []
        with _maybe_tracing(session):
            for eid in targets:
                with timer.stage(eid):
                    results.append(
                        run_experiment(eid, scale, seed, backend=backend)
                    )
    from repro.obs.ledger import (
        experiment_manifest,
        experiment_outcomes,
        timing_block,
    )

    for eid, result in zip(targets, results):
        print(result.format_text())
        print()
        if json_path is not None:
            if many:
                os.makedirs(json_path, exist_ok=True)
                destination = os.path.join(json_path, f"{eid}.json")
            else:
                destination = json_path
            save_json(result, destination)
            print(f"wrote {destination}")
        if csv_dir is not None:
            for path in save_csv(result, csv_dir):
                print(f"wrote {path}")
    if session is not None:
        _write_trace_outputs(session, trace_args)
    print(f"wall-clock per stage ({backend.name} backend):")
    print(timer.report())
    # Recorded after the tables so stdout stays comparable across
    # backends up to the timing footer (the entry id is sequential).
    for eid, result in zip(targets, results):
        _record_ledger(
            trace_args,
            experiment_manifest(eid, scale, seed, backend=backend),
            experiment_outcomes(result),
            timing_block(timer.stages.get(eid)),
        )
    return 0


def _cmd_mmc(load: float, servers: int, service_rate: float) -> int:
    from repro.queueing.mmc import MMcModel

    model = MMcModel.from_offered_load(load, service_rate, servers)
    if not model.is_stable:
        print(
            f"load {load} CPUs on {servers} servers is unstable "
            f"(rho = {model.traffic_intensity:.3f} >= 1)"
        )
        return 1
    print(f"offered load        : {load} CPUs (lambda = {model.arrival_rate:g}/s)")
    print(f"traffic intensity   : {model.traffic_intensity:.4f}")
    print(f"W_c (no-wait prob.) : {model.wc():.6f}")
    print(f"E[RT]   (eq. 2)     : {model.response_time_mean():.4f} s")
    print(f"sd[RT]  (eq. 3)     : {model.response_time_std():.4f} s")
    print(f"P(RT > 10 s)        : {1.0 - model.response_time_cdf(10.0):.6f}")
    return 0


def _parse_params(pairs: List[str]) -> dict:
    """``KEY=VALUE`` pairs to a params dict (ints preferred to floats).

    Accepts anything Python parses as a number, including scientific
    notation (``mu=1e-3``) and infinities -- not just digits-and-dots.
    """
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                raise SystemExit(
                    f"bad --param value {value!r}; expected a number"
                ) from None
    return params


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.spec import PolicySpec
    from repro.ecommerce.config import PAPER_CONFIG
    from repro.ecommerce.runner import run_replications
    from repro.ecommerce.spec import ArrivalSpec

    params = _parse_params(args.param)
    if args.policy == "none":
        if params:
            raise SystemExit("--param: policy 'none' takes no parameters")
        policy = PolicySpec.none()
    else:
        try:
            policy = PolicySpec(args.policy, params)
        except ValueError as error:
            raise SystemExit(f"--policy: {error}") from None
    try:
        description = policy.describe()
    except ValueError as error:
        raise SystemExit(f"--param: {error}") from None
    rate = PAPER_CONFIG.arrival_rate_for_load(args.load)
    arrival = ArrivalSpec.poisson(rate)
    backend = _resolve_backend(args)
    session = _make_trace_session(args)
    live_spec = _make_live_spec(args)
    telemetry_interval = (
        args.telemetry_interval if args.telemetry_csv is not None else None
    )
    timer = StageTimer()
    with timer.stage("simulate"), _maybe_tracing(session):
        result = run_replications(
            PAPER_CONFIG,
            arrival=arrival,
            policy=policy,
            n_transactions=args.transactions,
            replications=args.replications,
            seed=args.seed,
            warmup=args.warmup,
            backend=backend,
            telemetry_interval_s=telemetry_interval,
            live=live_spec,
            profile=args.profile,
        )
    if args.telemetry_csv is not None:
        from repro.ecommerce.telemetry import write_telemetry_csv

        rows = write_telemetry_csv(
            args.telemetry_csv,
            [run.telemetry or () for run in result.runs],
        )
        print(f"wrote {args.telemetry_csv} ({rows} samples)")
    if session is not None:
        _write_trace_outputs(session, args)
    if live_spec is not None:
        _write_live_outputs(result.runs, result.merged_live(), args)
    if args.profile:
        profile = result.merged_profile()
        if profile is not None:
            print(profile.format_table())
    from repro.obs.ledger import (
        replicated_outcomes,
        simulate_manifest,
        timing_block,
    )

    _record_ledger(
        args,
        simulate_manifest(
            PAPER_CONFIG,
            arrival,
            policy,
            args.transactions,
            args.replications,
            args.seed,
            warmup=args.warmup,
            backend=backend,
        ),
        replicated_outcomes(result),
        timing_block(
            timer.total_s,
            result.merged_profile() if args.profile else None,
        ),
    )
    rt_mean, rt_low, rt_high = result.response_time_interval()
    loss_mean, loss_low, loss_high = result.loss_interval()
    print(f"policy            : {description}")
    print(
        f"load              : {args.load} CPUs (lambda = {rate:g}/s), "
        f"{args.replications} x {args.transactions} transactions"
    )
    print(
        f"avg response time : {rt_mean:.3f} s "
        f"[{rt_low:.3f}, {rt_high:.3f}]"
    )
    print(
        f"loss fraction     : {loss_mean:.5f} "
        f"[{loss_low:.5f}, {loss_high:.5f}]"
    )
    print(f"rejuvenations     : {result.rejuvenations:g} per replication")
    print(f"garbage collections: {result.gc_count:g} per replication")
    print(f"wall-clock        : {timer.total_s:.2f} s")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.zoo import builtin_scenarios

    if args.faults_command == "list":
        for scenario in builtin_scenarios(args.horizon).values():
            print(scenario.describe())
        return 0
    if args.faults_command == "run":
        return _cmd_faults_run(args)
    if args.faults_command == "score":
        return _cmd_faults_score(args)
    raise AssertionError(
        f"unhandled faults command {args.faults_command!r}"
    )


def _cmd_faults_run(args: argparse.Namespace) -> int:
    from repro.faults.campaign import run_request, validate_campaign
    from repro.faults.scenario import load_scenario
    from repro.faults.score import write_scores_csv

    fields = ("scenarios", "policies", "replications", "seed", "horizon")
    try:
        request = validate_campaign({f: getattr(args, f) for f in fields})
    except ValueError as error:
        raise SystemExit(str(error)) from None
    extra = [load_scenario(args.scenario_file)] if args.scenario_file else []
    backend = _resolve_backend(args)
    session = _make_trace_session(args)
    live_spec = _make_live_spec(args)
    system = _make_system_spec(args)
    with _maybe_tracing(session):
        campaign, entry = run_request(
            request,
            extra_scenarios=extra,
            backend=backend,
            live=live_spec,
            profile=args.profile,
            system=system,
        )
    _record_ledger(args, *entry)
    print(campaign.format_table())
    if args.csv is not None:
        rows = write_scores_csv(args.csv, campaign.scores)
        print(f"wrote {args.csv} ({rows} score rows)")
    if session is not None:
        _write_trace_outputs(session, args)
    if live_spec is not None:
        all_runs = [run for _, cell in campaign.runs for run in cell]
        _write_live_outputs(all_runs, campaign.merged_live(), args)
    if args.profile:
        profile = campaign.merged_profile()
        if profile is not None:
            print(profile.format_table())
    print(f"wall-clock: {entry.timing['wall_clock_s']:.2f} s")
    return 0


@contextlib.contextmanager
def _reading_trace(path: Optional[str]):
    """Guard a command body that reads the trace file at ``path``.

    A missing file, or a malformed trace (the readers raise a
    line-numbered ``ValueError``), ends the command with a one-line
    message instead of a traceback.
    """
    if path is not None and not os.path.exists(path):
        raise SystemExit(f"no such trace file: {path}")
    try:
        yield
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _cmd_faults_score(args: argparse.Namespace) -> int:
    from repro.faults.campaign import score_trace
    from repro.faults.score import format_scores, write_scores_csv

    with _reading_trace(args.trace):
        scores = score_trace(args.trace, horizon_s=args.horizon)
    print(format_scores(scores))
    if args.csv is not None:
        rows = write_scores_csv(args.csv, scores)
        print(f"wrote {args.csv} ({rows} score rows)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_trace, timeline_from_trace

    render = timeline_from_trace if args.json else explain_trace
    with _reading_trace(args.trace):
        out = render(
            args.trace, since=args.since, until=args.until, kinds=args.kind
        )
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(out, end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "convert":
        from repro.obs.columnar.convert import convert_trace

        with _reading_trace(args.input):
            in_format, out_format, records = convert_trace(
                args.input, args.output, to=args.to
            )
        print(
            f"wrote {args.output} "
            f"({in_format} -> {out_format}, {records} records)"
        )
        return 0
    raise AssertionError(
        f"unhandled trace command {args.trace_command!r}"
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.live.report import DEFAULT_MAX_RUNS, write_report

    out = args.out
    if out is None:
        base = args.trace
        for suffix in (".gz", ".jsonl", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        out = base + ".html"
    with _reading_trace(args.trace):
        records = write_report(
            args.trace,
            out,
            title=args.title,
            max_runs=(
                args.max_runs
                if args.max_runs is not None
                else DEFAULT_MAX_RUNS
            ),
        )
    print(f"wrote {out} ({records} trace records)")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    handlers = {
        "list": _cmd_runs_list,
        "show": _cmd_runs_show,
        "diff": _cmd_runs_diff,
        "baseline": _cmd_runs_baseline,
        "check": _cmd_runs_check,
        "bench": _cmd_runs_bench,
    }
    try:
        handler = handlers[args.runs_command]
    except KeyError:
        raise AssertionError(
            f"unhandled runs command {args.runs_command!r}"
        ) from None
    try:
        return handler(args)
    except LookupError as error:
        # Bad refs / missing baselines are user errors, not tracebacks.
        raise SystemExit(str(error)) from None


def _open_ledger(args: argparse.Namespace):
    from repro.obs.ledger import Ledger

    return Ledger(args.ledger_dir)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.obs.ledger import runs_payload

    ledger = _open_ledger(args)
    # The exact GET /api/runs payload, so scripts can swap the CLI and
    # the serve API freely; the text rows render the same window.
    payload = runs_payload(
        ledger.entries(), ledger.baselines(), kind=args.kind, last=args.last
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not payload["runs"]:
        print(f"no recorded runs in {ledger.directory}")
    for run in payload["runs"]:
        mark = "" if run["baseline"] is None else (
            f"  [baseline:{run['baseline']}]"
        )
        print(f"{run['id']}  {run['created_utc']}  {run['label']}{mark}")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import json as json_module

    entry = _open_ledger(args).get(args.ref)
    if args.json:
        print(json_module.dumps(entry, indent=2, sort_keys=True))
        return 0
    manifest = entry["manifest"]
    environment = manifest["environment"]
    execution = manifest["execution"]
    seeds = manifest["seed_protocol"]
    print(f"id            : {entry['id']}")
    print(f"created       : {entry['created_utc']}")
    print(f"kind          : {entry['kind']}")
    print(f"label         : {entry['label']}")
    print(f"manifest hash : {manifest['manifest_hash']}")
    dirty = "-dirty" if environment.get("git_dirty") else ""
    print(
        f"provenance    : repro {environment.get('version')} "
        f"(git {str(environment.get('git_sha'))[:12]}{dirty}), "
        f"python {environment.get('python')} on "
        f"{environment.get('platform')}/{environment.get('machine')}"
    )
    print(
        f"execution     : {execution.get('backend')} backend, "
        f"{execution.get('workers')} worker(s)"
    )
    print(
        f"seed protocol : master {seeds.get('master')}, "
        f"rule '{seeds.get('rule')}'"
    )
    from repro.obs.ledger import flatten

    for path, value in sorted(flatten(entry["outcomes"]).items()):
        print(f"outcome {path} = {value}")
    wall = entry.get("timing", {}).get("wall_clock_s")
    if wall is not None:
        print(f"wall-clock    : {wall:.2f} s")
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.ledger import diff_entries, format_diff

    ledger = _open_ledger(args)
    left = ledger.get(args.left)
    right = ledger.get(args.right)
    differences = diff_entries(left, right)
    if not differences:
        print(f"{left['id']} and {right['id']} are identical")
        return 0
    print(f"{left['id']} vs {right['id']}: {len(differences)} differences")
    rows = format_diff(differences, args.limit)
    width = max(len(path) for path, _ in rows)
    for path, text in rows:
        print(f"  {path.ljust(width)}  {text}")
    return 1


def _cmd_runs_baseline(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    if args.ref is None:
        pins = ledger.baselines()
        if not pins:
            print("no baselines pinned")
            return 0
        for label in sorted(pins):
            pin = pins[label]
            print(
                f"{label}: {pin['id']} "
                f"(hash {pin['manifest_hash'][:12]}, "
                f"pinned {pin['pinned_utc']})"
            )
        return 0
    entry = ledger.get(args.ref)
    ledger.set_baseline(args.label, entry)
    print(f"pinned {entry['id']} as baseline '{args.label}'")
    return 0


def _cmd_runs_check(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.ledger import run_check

    ledger = _open_ledger(args)
    if args.against is not None:
        if not os.path.exists(args.against):
            raise SystemExit(f"no such baseline file: {args.against}")
        with open(args.against, encoding="utf-8") as handle:
            baseline = json_module.load(handle)
    else:
        try:
            baseline = ledger.baseline_entry(args.baseline)
        except LookupError as error:
            raise SystemExit(str(error)) from None
    try:
        candidate = ledger.get(args.candidate)
    except LookupError as error:
        raise SystemExit(str(error)) from None
    report = run_check(
        ledger,
        baseline,
        candidate,
        confidence=args.confidence,
        tolerance=args.tolerance,
        persistence=args.persistence,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_check_report(report)
    if args.warn_only:
        return 0
    return report.exit_code


def _print_check_report(report) -> int:
    print(
        f"check {report.candidate_id} against {report.baseline_id} "
        f"(persistence {report.streak}/{report.persistence})"
    )
    if report.manifest_match:
        print("  manifest      : match")
    else:
        print(
            f"  manifest      : DRIFT in {len(report.drift)} field(s)"
        )
        for path in report.drift[:10]:
            print(f"    {path}")
        if len(report.drift) > 10:
            print(f"    ... {len(report.drift) - 10} more")
    for check in report.checks:
        verdict = "EXCEEDED" if check.exceeded else "ok"
        detail = f"{check.baseline:g} -> {check.candidate:g}"
        if check.method == "welch-z":
            detail += (
                f", z = {check.statistic:+.2f} "
                f"(|z| > {check.threshold:.2f} flags)"
            )
        elif check.method == "relative":
            detail += (
                f", delta = {check.relative_delta:+.2%} "
                f"(tolerance {check.threshold:.0%})"
            )
        else:
            detail = "result hashes identical"
        print(f"  {check.metric.ljust(28)} {verdict.ljust(8)} {detail}")
    if report.flagged:
        print(
            "verdict: FLAGGED (exceeded on "
            f"{report.streak} consecutive checks)"
        )
    elif report.exceeded:
        print(
            "verdict: exceeded (streak "
            f"{report.streak}/{report.persistence}; not yet persistent)"
        )
    else:
        print("verdict: ok")
    return 0


def _cmd_runs_bench(args: argparse.Namespace) -> int:
    from repro.obs.ledger import trajectory_files, trajectory_summaries

    rows = trajectory_summaries(trajectory_files(args.bench_dir))
    if not rows:
        print("no benchmark trajectories recorded")
    for row in rows:
        latest = row["latest"]
        if row["problems"]:
            print(f"{row['name']}: INVALID ({'; '.join(row['problems'])})")
        elif latest is not None:
            print(
                f"{row['name']}: {row['points']} point(s), latest "
                f"{latest['value']:g} {latest['units']} "
                f"at {latest['timestamp']}"
            )
    return 1 if any(row["problems"] for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        # Point stdout at devnull so interpreter shutdown does not try
        # (and fail) to flush the closed descriptor.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _cmd_top_follow(args: argparse.Namespace) -> int:
    from repro.obs.live import follow_snapshots

    source = args.url or "http://127.0.0.1:8765/api/live"
    if source.startswith(("http://", "https://")) and "/api/" not in source:
        source = source.rstrip("/") + "/api/live"
    follow_snapshots(
        source, interval_s=args.follow, frames=args.frames
    )
    return 0


def _load_rules_file(path: str):
    from repro.obs.sentinel import rules_from_dict

    if not os.path.exists(path):
        raise SystemExit(f"no such rules file: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as error:
            raise SystemExit(f"bad rules file {path}: {error}") from None
    try:
        return rules_from_dict(config)
    except (TypeError, ValueError) as error:
        raise SystemExit(f"bad rules file {path}: {error}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import DEFAULT_HOST, DEFAULT_PORT, ReproServer

    rules = _load_rules_file(args.watch) if args.watch else None
    server = ReproServer(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        ledger_dir=args.ledger_dir,
        bench_dir=args.bench_dir,
        rules=rules,
        alerts_dir=args.alerts_dir,
    )
    if args.schedule_tick > 0:
        server.start_ticker(args.schedule_tick)
    print(
        f"repro serve on {server.url}  "
        f"(ledger {server.ledger().directory}; Ctrl-C stops)"
    )
    print(f"  dashboard  {server.url}/")
    print(f"  API        {server.url}/api/health")
    print(f"  events     {server.url}/api/events")
    if rules:
        print(f"  alerts     {server.url}/api/alerts  ({len(rules)} rule(s))")
    if args.schedule_tick > 0:
        print(f"  schedules  tick every {args.schedule_tick:g}s")
    else:
        print("  schedules  virtual clock (POST /api/schedules/tick)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _watch_rules(args: argparse.Namespace):
    """Assemble the rule set from --rules and/or convenience flags."""
    from repro.obs.sentinel import BurnRateRule, RegressionRule

    rules = list(_load_rules_file(args.rules)) if args.rules else []
    if args.slo is not None:
        rules.append(
            BurnRateRule(
                "slo-burn",
                slo_s=args.slo,
                objective=args.objective,
                factor=args.factor,
                long_window_s=args.long_window,
                short_window_s=args.short_window,
                min_count=args.min_count,
            )
        )
    if args.baseline is not None:
        from repro.obs.ledger.regress import DEFAULT_PERSISTENCE

        rules.append(
            RegressionRule(
                "baseline-regression",
                baseline=args.baseline,
                persistence=(
                    args.persistence
                    if args.persistence is not None
                    else DEFAULT_PERSISTENCE
                ),
            )
        )
    return rules


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.sentinel import AlertLedger, sinks_from_specs
    from repro.obs.sentinel.watch import follow_alerts, watch_tick

    if args.follow:
        url = args.url or "http://127.0.0.1:8765"
        follow_alerts(
            url,
            max_events=args.max_events,
            timeout_s=args.timeout_s,
        )
        return 0
    rules = _watch_rules(args)
    if not rules:
        raise SystemExit(
            "watch --tick needs rules: --rules FILE, --slo S, "
            "or --baseline LABEL"
        )
    with _reading_trace(args.trace):
        ledger = None
        if args.baseline is not None or args.ledger_dir is not None or (
            args.rules and any(r.kind == "regression" for r in rules)
        ):
            from repro.obs.ledger import Ledger

            ledger = Ledger(args.ledger_dir)
        sinks = sinks_from_specs(args.sink or ())
        alerts = (
            AlertLedger(args.alerts_dir)
            if args.alerts_dir is not None
            else None
        )
        return watch_tick(
            rules,
            trace=args.trace,
            ledger=ledger,
            alerts=alerts,
            sinks=sinks,
            snapshot_every=args.snapshot_every,
            json_out=args.json,
        )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "policies":
        return _cmd_policies(args.params)
    if args.command == "run":
        return _cmd_run(
            args.experiment,
            _resolve_scale(args.scale),
            args.seed,
            _resolve_backend(args),
            json_path=args.json,
            csv_dir=args.csv,
            trace_args=args,
        )
    if args.command == "mmc":
        return _cmd_mmc(args.load, args.servers, args.service_rate)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "top":
        if args.follow is not None:
            return _cmd_top_follow(args)
        args.top = True
        return _cmd_simulate(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "watch":
        return _cmd_watch(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
