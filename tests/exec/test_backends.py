"""The execution backends: selection, env resolution, progress, order."""

import gc
import os
import pickle
import time

import pytest

from repro.exec.backends import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    current_backend,
    make_backend,
    resolve_backend,
    use_backend,
    workers_from_env,
)
from repro.exec.progress import JobEvent, ProgressPrinter, StageTimer


def _square(x):
    return x * x


def _mark_and_sleep(item):
    """Leave a marker file; job 0 then fails, the others take 0.2 s."""
    index, directory = item
    open(os.path.join(directory, f"{index}.ran"), "w").close()
    if index == 0:
        raise RuntimeError("job 0 failed")
    time.sleep(0.2)
    return index


def _freeze_count(_item):
    return gc.get_freeze_count()


class _Unpicklable:
    """A callable job that cannot cross a process boundary."""

    def __init__(self):
        self.fn = lambda: None  # lambdas do not pickle

    def __call__(self):
        return 42


class TestSerialBackend:
    def test_maps_in_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_name(self):
        assert SerialBackend().name == "serial"

    def test_empty(self):
        assert SerialBackend().map(_square, []) == []

    def test_progress_events(self):
        events = []
        backend = SerialBackend(progress=events.append)
        backend.map(_square, [1, 2, 3])
        assert [e.done for e in events] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        assert [e.index for e in events] == [0, 1, 2]
        assert all(e.elapsed_s >= 0 and e.job_s >= 0 for e in events)

    def test_call_site_progress_overrides_default(self):
        default_events, call_events = [], []
        backend = SerialBackend(progress=default_events.append)
        backend.map(_square, [1], progress=call_events.append)
        assert not default_events
        assert len(call_events) == 1


class TestProcessPoolBackend:
    def test_maps_in_submission_order(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.map(_square, list(range(8))) == [
            x * x for x in range(8)
        ]

    def test_name_and_workers(self):
        backend = ProcessPoolBackend(workers=3)
        assert backend.name == "process"
        assert backend.workers == 3

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_unpicklable_jobs_fall_back_to_parent(self):
        # One picklable call plus one that cannot be sent to a worker:
        # the pool handles the former, the parent runs the latter, and
        # the result order still matches submission order.
        backend = ProcessPoolBackend(workers=2)
        results = backend.map(
            lambda job: job(), [_Unpicklable(), _Unpicklable()]
        )
        assert results == [42, 42]

    def test_progress_counts_every_job(self):
        events = []
        backend = ProcessPoolBackend(workers=2, progress=events.append)
        backend.map(_square, [1, 2, 3, 4])
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)

    def test_failing_job_cancels_the_queued_jobs(self, tmp_path):
        jobs = [(index, str(tmp_path)) for index in range(20)]
        with pytest.raises(RuntimeError, match="job 0 failed"):
            ProcessPoolBackend(workers=2).map(_mark_and_sleep, jobs)
        ran = len(list(tmp_path.glob("*.ran")))
        # The running jobs and the few already handed to the workers
        # finish; the rest never start.
        assert 1 <= ran <= 8, f"{ran} of 20 jobs ran"

    def test_workers_freeze_the_inherited_heap(self):
        # A worker's collections skip what it inherited, so those pages
        # stay shared with the parent.
        counts = ProcessPoolBackend(workers=2).map(_freeze_count, [0, 1])
        assert all(count > 0 for count in counts), counts


class TestMakeBackend:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert make_backend().name == "serial"

    def test_auto_promotes_on_workers(self):
        backend = make_backend("auto", workers=4)
        assert backend.name == "process"
        assert backend.workers == 4

    def test_explicit_serial_wins_over_workers(self):
        assert make_backend("serial", workers=4).name == "serial"

    def test_env_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        backend = make_backend()
        assert backend.name == "process"
        assert backend.workers == 3

    def test_env_backend_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert make_backend().name == "serial"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("threads")

    def test_bad_env_workers_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            workers_from_env()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            workers_from_env()

    def test_names_registry(self):
        assert BACKEND_NAMES == ("serial", "process")


class TestBackendContext:
    def test_default_stack(self):
        assert current_backend().name == "serial"
        replacement = ProcessPoolBackend(workers=2)
        with use_backend(replacement):
            assert current_backend() is replacement
            with use_backend(SerialBackend()):
                assert current_backend().name == "serial"
            assert current_backend() is replacement
        assert current_backend().name == "serial"

    def test_resolve_backend_variants(self):
        assert resolve_backend(None).name == "serial"
        assert resolve_backend("serial").name == "serial"
        backend = ProcessPoolBackend(workers=2)
        assert resolve_backend(backend) is backend
        with use_backend(backend):
            assert resolve_backend(None) is backend


class TestProgressPrinter:
    def test_prints_final_event(self):
        lines = []

        class Stream:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        printer = ProgressPrinter(
            stream=Stream(), min_interval_s=3600.0, label="t"
        )
        printer(JobEvent(index=0, done=1, total=2, elapsed_s=0.5, job_s=0.5))
        printer(JobEvent(index=1, done=2, total=2, elapsed_s=1.0, job_s=0.5))
        text = "".join(lines)
        assert "2/2 jobs" in text  # final event always printed
        assert "[t]" in text


class TestStageTimer:
    def test_accumulates_stages(self):
        timer = StageTimer()
        with timer.stage("alpha"):
            pass
        with timer.stage("beta"):
            pass
        assert list(timer.stages) == ["alpha", "beta"]
        assert timer.total_s >= 0.0
        report = timer.report()
        assert "alpha" in report and "beta" in report

    def test_events_are_picklable(self):
        event = JobEvent(index=0, done=1, total=1, elapsed_s=0.0, job_s=0.0)
        assert pickle.loads(pickle.dumps(event)) == event
