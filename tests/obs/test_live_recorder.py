"""The flight recorder: ring semantics, triggers, cooldown, dumps."""

import json
import pickle
from pathlib import Path

import pytest

from repro.obs.events import TraceEvent
from repro.obs.live.recorder import (
    DEFAULT_TRIGGERS,
    FlightRecorder,
    RecorderSpec,
    write_flight_jsonl,
)


def complete(ts, rt=1.0):
    return TraceEvent(ts, "request.complete", "system",
                      {"response_time": rt})


def rejuvenation(ts):
    return TraceEvent(ts, "system.rejuvenation", "node0", {"lost": 2})


class TestRing:
    def test_keeps_last_capacity_events(self):
        recorder = RecorderSpec(capacity=3).build()
        for i in range(10):
            recorder.push(complete(float(i)))
        assert len(recorder) == 3
        assert [e.ts for e in recorder.ring] == [7.0, 8.0, 9.0]

    def test_clear_resets_everything(self):
        recorder = RecorderSpec(capacity=4, cooldown_s=0.0).build()
        recorder.push(rejuvenation(1.0))
        assert recorder.dumps
        recorder.clear()
        assert not recorder.dumps
        assert len(recorder) == 0
        # A post-clear trigger dumps again (cooldown state was reset).
        recorder.push(rejuvenation(2.0))
        assert len(recorder.dumps) == 1


class TestTriggers:
    def test_default_triggers_dump_the_ring(self):
        recorder = RecorderSpec(capacity=4, cooldown_s=0.0).build()
        for i in range(6):
            recorder.push(complete(float(i)))
        recorder.push(rejuvenation(6.0))
        assert [d.reason for d in recorder.dumps] == ["system.rejuvenation"]
        dump = recorder.dumps[0]
        assert dump.ts == 6.0
        # Oldest first; the triggering event is the last entry.
        assert len(dump.events) == 4
        assert dump.events[-1].etype == "system.rejuvenation"

    def test_fault_injected_is_a_default_trigger(self):
        assert "fault.injected" in DEFAULT_TRIGGERS
        recorder = RecorderSpec(cooldown_s=0.0).build()
        recorder.push(
            TraceEvent(5.0, "fault.injected", "campaign", {"kind": "surge"})
        )
        assert [d.reason for d in recorder.dumps] == ["fault.injected"]

    def test_slo_breach_dumps_with_reason(self):
        recorder = RecorderSpec(slo_s=10.0, cooldown_s=0.0).build()
        recorder.push(complete(1.0, rt=9.0))  # under the SLO: no dump
        assert not recorder.dumps
        recorder.push(complete(2.0, rt=10.5))
        assert [d.reason for d in recorder.dumps] == ["slo_breach"]

    def test_no_slo_means_no_breach_dumps(self):
        recorder = RecorderSpec(cooldown_s=0.0).build()
        recorder.push(complete(1.0, rt=1e9))
        assert not recorder.dumps


class TestBounds:
    def test_cooldown_suppresses_storms(self):
        recorder = RecorderSpec(cooldown_s=60.0).build()
        recorder.push(rejuvenation(0.0))
        recorder.push(rejuvenation(30.0))  # inside the cooldown window
        recorder.push(rejuvenation(61.0))  # outside
        assert [d.ts for d in recorder.dumps] == [0.0, 61.0]
        assert recorder.dropped == 1

    def test_max_dumps_caps_memory(self):
        recorder = RecorderSpec(cooldown_s=0.0, max_dumps=2).build()
        for i in range(5):
            recorder.push(rejuvenation(float(i)))
        assert len(recorder.dumps) == 2
        assert recorder.dropped == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RecorderSpec(capacity=0)
        with pytest.raises(ValueError):
            RecorderSpec(cooldown_s=-1.0)
        with pytest.raises(ValueError):
            RecorderSpec(max_dumps=0)


class TestSerialisation:
    def test_dumps_are_picklable(self):
        recorder = RecorderSpec(capacity=2, cooldown_s=0.0).build()
        recorder.push(complete(1.0))
        recorder.push(rejuvenation(2.0))
        revived = pickle.loads(pickle.dumps(tuple(recorder.dumps)))
        assert revived == tuple(recorder.dumps)

    def test_write_flight_jsonl_round_trip(self, tmp_path):
        recorder = RecorderSpec(capacity=2, cooldown_s=0.0).build()
        recorder.push(complete(1.0))
        recorder.push(rejuvenation(2.0))
        path = str(tmp_path / "flight.jsonl")
        lines = write_flight_jsonl(
            path, [recorder.dumps, None, recorder.dumps]
        )
        assert lines == 2
        records = [
            json.loads(l) for l in Path(path).read_text().splitlines()
        ]
        assert [r["run"] for r in records] == [0, 2]
        assert records[0]["reason"] == "system.rejuvenation"
        assert records[0]["events"][-1]["type"] == "system.rejuvenation"
