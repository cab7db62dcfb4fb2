"""Execution backends: where replication jobs actually run.

Every backend maps a picklable function over a sequence of job items
and returns the results **in submission order**, whatever order the
jobs finish in -- so a run is bit-identical across backends for the
same seeds (asserted by ``tests/exec/test_determinism.py``).

Selection: pass a backend (or its name) explicitly, or set the
``REPRO_WORKERS`` / ``REPRO_BACKEND`` environment variables and let
:func:`make_backend` resolve them.  ``repro run --workers N`` and
``--backend`` thread through here.
"""

from __future__ import annotations

import abc
import gc
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

from repro.exec.progress import JobEvent, ProgressHook

#: Backend names accepted by :func:`make_backend` (besides "auto").
BACKEND_NAMES = ("serial", "process")


class ExecutionBackend(abc.ABC):
    """Maps a function over job items, preserving submission order."""

    name: str = "abstract"

    def __init__(self, progress: Optional[ProgressHook] = None) -> None:
        #: Default progress hook for ``map`` calls that pass none.
        self.progress = progress

    @abc.abstractmethod
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        progress: Optional[ProgressHook] = None,
    ) -> List[Any]:
        """``[fn(item) for item in items]``, possibly in parallel."""

    def _resolve_hook(
        self, progress: Optional[ProgressHook]
    ) -> Optional[ProgressHook]:
        return progress if progress is not None else self.progress

    def describe(self) -> dict:
        """Plain execution metadata for run manifests (never hashed)."""
        return {
            "backend": self.name,
            "workers": int(getattr(self, "workers", 1)),
        }


def _emit(
    hook: Optional[ProgressHook],
    index: int,
    done: int,
    total: int,
    started: float,
    job_s: float,
    item: Any,
) -> None:
    if hook is None:
        return
    hook(
        JobEvent(
            index=index,
            done=done,
            total=total,
            elapsed_s=time.perf_counter() - started,
            job_s=job_s,
            tag=getattr(item, "tag", ()),
        )
    )


class SerialBackend(ExecutionBackend):
    """In-process, one job at a time -- the reference backend."""

    name = "serial"

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        progress: Optional[ProgressHook] = None,
    ) -> List[Any]:
        hook = self._resolve_hook(progress)
        work = list(items)
        started = time.perf_counter()
        results = []
        for index, item in enumerate(work):
            job_started = time.perf_counter()
            results.append(fn(item))
            job_s = time.perf_counter() - job_started
            _emit(hook, index, index + 1, len(work), started, job_s, item)
        return results


def _timed_call(fn: Callable[[Any], Any], item: Any) -> tuple:
    """Worker-side wrapper measuring per-job wall-clock."""
    job_started = time.perf_counter()
    return fn(item), time.perf_counter() - job_started


def _init_worker() -> None:
    """Pool workers run their own jobs serially (no nested pools).

    A worker also freezes the heap it inherited from the parent: its
    collections then skip those objects, and leave their pages shared.
    """
    os.environ["REPRO_WORKERS"] = "1"
    os.environ["REPRO_BACKEND"] = "serial"
    gc.freeze()


def _is_picklable(payload: Any) -> bool:
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


class ProcessPoolBackend(ExecutionBackend):
    """Fans jobs out over ``workers`` OS processes.

    Jobs that cannot be pickled (e.g. built from closure factories
    instead of specs) are executed in the parent process while the pool
    works on the rest; results are reassembled in submission order
    either way.
    """

    name = "process"

    def __init__(
        self, workers: int, progress: Optional[ProgressHook] = None
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(progress)
        self.workers = int(workers)

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        progress: Optional[ProgressHook] = None,
    ) -> List[Any]:
        hook = self._resolve_hook(progress)
        work = list(items)
        if not work:
            return []
        started = time.perf_counter()
        results: List[Any] = [None] * len(work)
        remote: List[int] = []
        local: List[int] = []
        for index, item in enumerate(work):
            if _is_picklable((fn, item)):
                remote.append(index)
            else:
                local.append(index)
        done = 0
        if not remote:
            # Nothing can cross the process boundary; degrade to serial.
            for index in local:
                result, job_s = _timed_call(fn, work[index])
                results[index] = result
                done += 1
                _emit(hook, index, done, len(work), started, job_s, work[index])
            return results
        with ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker
        ) as pool:
            futures = {
                pool.submit(_timed_call, fn, work[index]): index
                for index in remote
            }
            try:
                # Unpicklable stragglers run here while the pool is busy.
                for index in local:
                    result, job_s = _timed_call(fn, work[index])
                    results[index] = result
                    done += 1
                    _emit(
                        hook, index, done, len(work), started, job_s,
                        work[index],
                    )
                pending = set(futures)
                while pending:
                    finished, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        index = futures[future]
                        results[index], job_s = future.result()
                        done += 1
                        _emit(
                            hook, index, done, len(work), started, job_s,
                            work[index],
                        )
            except BaseException:
                # Drop the queued jobs: the error is raised once the
                # running ones finish, not after every job has run.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return results


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def workers_from_env(default: int = 1) -> int:
    """Worker count from ``REPRO_WORKERS`` (>= 1; bad values rejected)."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return default
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
    return workers


def make_backend(
    name: Optional[str] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
) -> ExecutionBackend:
    """Build a backend by name, with env-variable fallbacks.

    ``name=None`` reads ``REPRO_BACKEND`` (default ``auto``);
    ``workers=None`` reads ``REPRO_WORKERS`` (default 1).  ``auto``
    picks the process pool when more than one worker is requested and
    the serial backend otherwise.
    """
    if workers is None:
        workers = workers_from_env()
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "auto")
    name = name.strip().lower()
    if name == "auto":
        name = "process" if workers > 1 else "serial"
    if name == "serial":
        return SerialBackend(progress=progress)
    if name == "process":
        return ProcessPoolBackend(workers, progress=progress)
    raise ValueError(
        f"unknown backend {name!r}; expected one of "
        f"{('auto',) + BACKEND_NAMES}"
    )


#: Stack of backends installed by :func:`use_backend` (innermost last).
_DEFAULT_STACK: List[ExecutionBackend] = []


@contextmanager
def use_backend(backend: ExecutionBackend) -> Iterator[ExecutionBackend]:
    """Install ``backend`` as the default within the ``with`` block.

    :func:`~repro.exec.jobs.run_jobs` calls that do not receive an
    explicit backend use the innermost installed one, which is how
    ``repro run --workers N`` parallelises experiments without every
    experiment function having to thread a backend parameter through.
    """
    _DEFAULT_STACK.append(backend)
    try:
        yield backend
    finally:
        _DEFAULT_STACK.pop()


def current_backend() -> ExecutionBackend:
    """The innermost :func:`use_backend` backend, else the env default."""
    if _DEFAULT_STACK:
        return _DEFAULT_STACK[-1]
    return make_backend()


def resolve_backend(
    backend: Union[ExecutionBackend, str, None],
) -> ExecutionBackend:
    """Normalise a backend argument: instance, name, or None (default)."""
    if backend is None:
        return current_backend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        return make_backend(backend)
    raise TypeError(
        f"backend must be an ExecutionBackend, a name, or None, got "
        f"{backend!r}"
    )
