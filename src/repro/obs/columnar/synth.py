"""Synthetic trace generation for scale tests and benchmarks.

Builds campaign-shaped traces -- ``("faults", scenario, policy, rep)``
tagged runs with ``run.meta`` records, dense ``request.complete``
streams, and scripted fault/trigger/rejuvenation events -- directly as
column arrays, so a multi-million-event trace materializes in well
under a second.  The scripted events make ground truth exact: each run
injects one aging fault at ``0.4 * horizon``, clears it at ``0.7 *
horizon``, and rejuvenates ``detection_delay_s`` after the injection,
so the expected detection latency, miss count, and false-alarm count
of the re-scored trace are known by construction (see
``tests/obs/columnar/test_scale.py``).

Everything derives deterministically from ``seed`` via
``numpy.random.default_rng``; the JSONL twin of a synthetic trace is
just ``trace.iter_records()`` serialized, which keeps paired
JSONL-vs-columnar benchmarks honest (same records, both formats).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.obs.events import (
    FAULT_CLEARED,
    FAULT_INJECTED,
    POLICY_TRIGGER,
    RUN_META,
    SYSTEM_REJUVENATION,
)

from .store import (
    ColumnarTrace,
    _segment,
    encode_records,
    merge_batches_sorted,
)

#: The payload shape of every dense completion event.
_COMPLETION_SHAPE = ("event", (("response_time", "f"),))


def _completion_trace(
    run: int, ts: np.ndarray, rt: np.ndarray
) -> ColumnarTrace:
    """A dense ``request.complete`` trace built straight from arrays."""
    n = int(ts.shape[0])
    zero_off = np.zeros(n, dtype=np.uint32)
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    type_id = np.zeros(n, dtype=np.uint32)
    return ColumnarTrace(
        run=np.full(n, run, dtype=np.int64),
        ts=ts,
        type_id=type_id,
        source_id=np.zeros(n, dtype=np.uint32),
        shape_id=np.zeros(n, dtype=np.uint32),
        ints_off=zero_off,
        floats_off=np.arange(n, dtype=np.uint32),
        strs_off=zero_off,
        jsons_off=zero_off,
        ints=np.zeros(0, dtype=np.int64),
        floats=np.ascontiguousarray(rt, dtype=np.float64),
        strs=np.zeros(0, dtype=np.uint32),
        jsons=np.zeros(0, dtype=np.uint32),
        types=["request.complete"],
        sources=["system"],
        strings=[],
        fragments=[],
        shapes=[_COMPLETION_SHAPE],
        segments=[_segment(0, n, type_id, ts)],
    )


def synth_campaign_trace(
    runs: int = 4,
    events_per_run: int = 1000,
    horizon_s: float = 3600.0,
    seed: int = 2006,
    scenarios: Sequence[str] = ("synthetic",),
    policies: Sequence[str] = ("SRAA", "SARAA"),
    detection_delay_s: float = 30.0,
    false_alarms_per_run: int = 0,
) -> ColumnarTrace:
    """A deterministic campaign-shaped columnar trace.

    ``runs`` replications are distributed round-robin over the
    ``(scenario, policy)`` grid; each holds ``events_per_run`` dense
    completions plus the scripted fault story.  Ground truth per run:
    one degraded interval ``[0.4 h, 0.7 h]``, detected at ``0.4 h +
    detection_delay_s``, plus ``false_alarms_per_run`` triggers in
    healthy time at ``0.1 h`` onward (spaced 60 s).
    """
    rng = np.random.default_rng(seed)
    grid = [
        (scenario, policy)
        for scenario in scenarios
        for policy in policies
    ]
    traces: List[ColumnarTrace] = []
    for run in range(runs):
        scenario, policy = grid[run % len(grid)]
        rep = run // len(grid)
        inject_ts = 0.4 * horizon_s
        clear_ts = 0.7 * horizon_s
        rejuv_ts = inject_ts + detection_delay_s

        ts = np.sort(
            rng.uniform(1.0, horizon_s, size=events_per_run)
        )
        rt = rng.gamma(2.0, 0.03, size=events_per_run)
        degraded = (ts >= inject_ts) & (ts <= clear_ts)
        rt = rt + degraded * rng.gamma(2.0, 0.12, size=events_per_run)

        sparse = [
            {
                "ts": float(inject_ts),
                "type": FAULT_INJECTED,
                "source": "scenario",
                "data": {"kind": "aging", "factor": 3.0},
                "run": run,
            },
            {
                "ts": float(rejuv_ts),
                "type": POLICY_TRIGGER,
                "source": f"policy:{policy.lower()}",
                "data": {
                    "level": 3,
                    "batch_mean": 0.31,
                    "threshold": 0.25,
                    "sample_size": 40,
                },
                "run": run,
            },
            {
                "ts": float(rejuv_ts),
                "type": SYSTEM_REJUVENATION,
                "source": "system",
                "data": {"downtime_s": 30.0},
                "run": run,
            },
            {
                "ts": float(clear_ts),
                "type": FAULT_CLEARED,
                "source": "scenario",
                "data": {"kind": "aging"},
                "run": run,
            },
        ]
        for alarm in range(false_alarms_per_run):
            alarm_ts = 0.1 * horizon_s + 60.0 * alarm
            sparse.append(
                {
                    "ts": float(alarm_ts),
                    "type": SYSTEM_REJUVENATION,
                    "source": "system",
                    "data": {"downtime_s": 30.0},
                    "run": run,
                }
            )
        meta = {
            "run": run,
            "tag": ["faults", scenario, policy, rep],
            "seed": int(seed + run),
            "ts": 0.0,
            "type": RUN_META,
            "source": "session",
            "data": {
                "arrivals": events_per_run,
                "completed": events_per_run,
                "lost": 0,
                "avg_response_time": float(np.mean(rt)),
                "loss_fraction": 0.0,
                "gc_count": 0,
                "rejuvenations": 1 + false_alarms_per_run,
                "sim_duration_s": float(horizon_s),
            },
        }
        events = merge_batches_sorted(
            [
                encode_records(sparse),
                _completion_trace(run, ts, rt),
            ]
        )
        traces.append(encode_records([meta]))
        traces.append(events)
    return ColumnarTrace.from_batches(traces)
