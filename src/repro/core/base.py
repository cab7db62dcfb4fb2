"""Policy interface and the batch-averaging buffer.

Every decision rule in this library is a :class:`RejuvenationPolicy`: a
stateful object that consumes the customer-affecting metric one
observation at a time and answers, for each observation, whether software
rejuvenation must be triggered *now*.  The simulator, the monitoring
framework and the experiment harness all program against this interface,
so the paper's algorithms and every baseline are interchangeable.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Mapping, Optional


class DecisionListener:
    """Observer of a policy's internal decisions (all hooks optional).

    The observability layer (:mod:`repro.obs`) installs one of these on
    a policy via :meth:`RejuvenationPolicy.set_listener` to turn batch
    boundaries, bucket transitions and triggers into structured trace
    events; the base class is a no-op so policies can call every hook
    unconditionally once they have null-checked the listener itself.

    Hooks receive the *policy* first so one listener can serve several
    policies (e.g. per-node policies in a cluster).

    ``wants_batches`` lets a listener decline the :meth:`on_batch`
    firehose (one call per completed batch -- by far the hottest hook)
    so policies skip the call entirely: an always-on telemetry sink
    that only tracks level changes and triggers should not pay a
    Python call per batch.  The other hooks are rare enough that they
    are always delivered.
    """

    #: Whether :meth:`on_batch` should be called at all.  Policies
    #: check this once per batch (a plain attribute load) instead of
    #: making a method call that the listener immediately discards.
    wants_batches: bool = True

    def on_batch(
        self,
        policy: "RejuvenationPolicy",
        batch_mean: float,
        target: float,
        sample_size: int,
        exceeded: bool,
    ) -> None:
        """A batch completed: its mean was compared against ``target``."""

    def on_transition(
        self,
        policy: "RejuvenationPolicy",
        direction: str,
        level: int,
        fill: int,
        target: float,
    ) -> None:
        """The bucket chain moved to a new level (``up`` or ``down``)."""

    def on_trigger(
        self,
        policy: "RejuvenationPolicy",
        batch_mean: float,
        threshold: float,
        level: int,
        sample_size: int,
    ) -> None:
        """Rejuvenation was demanded; arguments carry the full cause."""

    def on_trigger_cause(
        self,
        policy: "RejuvenationPolicy",
        cause: Mapping[str, object],
    ) -> None:
        """Rejuvenation was demanded, with a free-form cause mapping.

        The paper's policies all decide by comparing a batch mean
        against a threshold, which is exactly what :meth:`on_trigger`'s
        positional arguments encode.  The adaptive/learned detectors
        (:mod:`repro.detect`) trigger on other evidence -- an entropy
        shift, a projected trajectory -- so they report their cause as
        a mapping instead.  The base implementation forwards whatever
        numeric essentials the cause carries to :meth:`on_trigger`, so
        a listener that only overrides the classic hook still sees
        every trigger; listeners that want the full cause override
        this hook (the tracing listener records the mapping verbatim).
        """
        self.on_trigger(
            policy,
            float(cause.get("batch_mean", float("nan"))),  # type: ignore[arg-type]
            float(cause.get("threshold", float("nan"))),  # type: ignore[arg-type]
            int(cause.get("level", 0)),  # type: ignore[arg-type]
            int(cause.get("sample_size", 1)),  # type: ignore[arg-type]
        )

    def on_resize(
        self,
        policy: "RejuvenationPolicy",
        old_size: int,
        new_size: int,
        level: int,
    ) -> None:
        """The batch size changed (SARAA's sampling acceleration)."""

    def on_reset(self, policy: "RejuvenationPolicy") -> None:
        """Detection state was cleared externally."""


class RejuvenationPolicy(abc.ABC):
    """A streaming trigger rule over a customer-affecting metric."""

    #: Short machine-readable identifier (used by the factory and tables).
    name: str = "policy"

    #: Optional decision observer (class default keeps subclasses'
    #: ``__init__`` untouched and the unobserved path to one None check).
    _listener: Optional[DecisionListener] = None

    @property
    def listener(self) -> Optional[DecisionListener]:
        """The installed decision listener, if any."""
        return self._listener

    def set_listener(self, listener: Optional[DecisionListener]) -> None:
        """Install (or remove, with ``None``) a decision listener."""
        self._listener = listener

    @abc.abstractmethod
    def observe(self, value: float) -> bool:
        """Consume one metric observation.

        Returns
        -------
        bool
            ``True`` when rejuvenation must be carried out now.  The
            policy resets its own detection state before returning
            ``True`` (the paper's pseudo-code does the same), so the
            caller only has to perform the rejuvenation itself.
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all detection state (called on external rejuvenation)."""

    def observe_many(self, values: Iterable[float]) -> List[int]:
        """Feed a sequence; return the indices at which triggers fired.

        A convenience for offline/trace analysis -- the simulator uses
        :meth:`observe` directly.
        """
        triggers: List[int] = []
        for index, value in enumerate(values):
            if self.observe(value):
                triggers.append(index)
        return triggers

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name


class BatchBuffer:
    """Accumulates raw observations into means of ``n`` (the paper's x̄_u).

    SRAA, SARAA and CLTA all decide on *batch means* rather than raw
    values; this buffer implements the shared bookkeeping, including the
    batch-size changes required by SARAA's sampling acceleration.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("batch size must be >= 1")
        self.size = int(size)
        self._sum = 0.0
        self._count = 0
        self.batches_completed = 0

    @property
    def pending(self) -> int:
        """Observations accumulated towards the current batch."""
        return self._count

    def push(self, value: float) -> Optional[float]:
        """Add one observation; return the batch mean if it completed."""
        self._sum += float(value)
        self._count += 1
        if self._count < self.size:
            return None
        mean = self._sum / self._count
        self._sum = 0.0
        self._count = 0
        self.batches_completed += 1
        return mean

    def resize(self, new_size: int) -> None:
        """Change the batch size, discarding any partial batch.

        The paper's pseudo-code only ever indexes whole batches, so the
        observations gathered towards a batch of the old size are dropped.
        """
        if new_size < 1:
            raise ValueError("batch size must be >= 1")
        self.size = int(new_size)
        self._sum = 0.0
        self._count = 0

    def clear(self) -> None:
        """Drop any partially accumulated batch."""
        self._sum = 0.0
        self._count = 0
