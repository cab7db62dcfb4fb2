"""The ball-and-bucket kernel shared by the static, SRAA, SARAA and CLTA rules.

Section 4.2 describes the metaphor: ``K`` buckets of depth ``D``.  The
current bucket ``N`` receives a ball whenever the (averaged) observation
exceeds that bucket's target and loses one otherwise.  When the count
exceeds the depth the bucket *overflows* and the algorithm advances to
bucket ``N + 1`` with a higher target; when the count would go negative
while ``N > 0`` the bucket *underflows* and the algorithm falls back to
bucket ``N - 1`` (refilled to ``D``).  Overflow of the last bucket
triggers rejuvenation and resets the chain.

We follow the paper's pseudo-code (Fig. 6) exactly, including two details
the prose glosses over:

* overflow occurs when the count becomes *strictly greater* than ``D``
  (so a bucket absorbs ``D + 1`` net exceedances, not ``D``);
* falling back to the previous bucket restores its count to the *full*
  depth ``D``, so a fresh underflow there requires ``D + 1`` further
  non-exceedances.

The minimum delay before rejuvenation is therefore ``(D + 1) * K``
(averaged) observations, which realises the paper's "at least D * K
observations" burst tolerance.

All three of the paper's rules (Figs. 6-8) run the same loop over this
chain -- average ``n`` observations, compare the batch mean with the
current bucket's target, record the outcome -- and differ only in data:
the per-level targets, the per-level batch sizes and ``(K, D)``.
:class:`BucketPolicy` is that loop; :class:`SRAA`,
:class:`StaticRejuvenation`, :class:`SARAA` and :class:`CLTA` only build
its per-level tables.  Under the strict overflow rule CLTA, which fires
on the first batch mean beyond its threshold, is the ``K = 1, D = 0``
chain.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional, Sequence

from repro.core.base import BatchBuffer, RejuvenationPolicy
from repro.core.sla import ServiceLevelObjective
from repro.stats.normal import normal_quantile


class Transition(enum.Enum):
    """What a single :meth:`BucketChain.record` call did to the chain."""

    NONE = "none"          #: ball added/removed within the current bucket
    LEVEL_UP = "up"        #: current bucket overflowed; moved to N + 1
    LEVEL_DOWN = "down"    #: current bucket underflowed; moved to N - 1
    TRIGGER = "trigger"    #: last bucket overflowed; rejuvenate and reset


# Module-level aliases: a global load is far cheaper than an enum
# member lookup, and both hot paths below compare against these.
_NONE = Transition.NONE
_UP = Transition.LEVEL_UP
_DOWN = Transition.LEVEL_DOWN
_TRIGGER = Transition.TRIGGER


class BucketChain:
    """The ``K``-bucket, depth-``D`` degradation counter of Fig. 6.

    Parameters
    ----------
    n_buckets:
        ``K >= 1`` -- how many standard deviations of shift must be
        confirmed before rejuvenation (burst tolerance).
    depth:
        ``D >= 0`` -- a bucket overflows after ``D + 1`` net exceedances
        (degradation-detection accuracy).  ``D = 0`` overflows on the
        first exceedance, which is how CLTA is expressed.

    Examples
    --------
    >>> chain = BucketChain(n_buckets=1, depth=1)
    >>> chain.record(True)            # d: 0 -> 1, not yet > D
    <Transition.NONE: 'none'>
    >>> chain.record(True)            # d -> 2 > 1: overflow of last bucket
    <Transition.TRIGGER: 'trigger'>
    >>> (chain.level, chain.fill)     # reset after trigger
    (0, 0)
    """

    def __init__(self, n_buckets: int, depth: int) -> None:
        if n_buckets < 1:
            raise ValueError("need at least one bucket (K >= 1)")
        if depth < 0:
            raise ValueError("bucket depth must be >= 0 (D >= 0)")
        self.n_buckets = int(n_buckets)
        self.depth = int(depth)
        self.level = 0  # the paper's N, index of the current bucket
        self.fill = 0   # the paper's d, balls in the current bucket
        self.triggers = 0

    def record(self, exceeded: bool) -> Transition:
        """Fold one comparison outcome into the chain.

        Parameters
        ----------
        exceeded:
            Whether the (averaged) observation exceeded the current
            bucket's target value.

        Returns
        -------
        Transition
            ``TRIGGER`` means rejuvenation must be carried out now; the
            chain has already reset itself.
        """
        if exceeded:
            self.fill += 1
        else:
            self.fill -= 1
        if self.fill > self.depth:
            self.fill = 0
            self.level += 1
            if self.level == self.n_buckets:
                self.level = 0
                self.triggers += 1
                return _TRIGGER
            return _UP
        if self.fill < 0:
            if self.level > 0:
                self.fill = self.depth
                self.level -= 1
                return _DOWN
            self.fill = 0
        return _NONE

    def reset(self) -> None:
        """Return to the initial state (level 0, empty bucket)."""
        self.level = 0
        self.fill = 0

    @property
    def min_observations_to_trigger(self) -> int:
        """Fewest (averaged) observations that can cause a trigger.

        Each bucket needs ``D + 1`` net exceedances under the Fig. 6
        semantics, and there are ``K`` buckets.
        """
        return (self.depth + 1) * self.n_buckets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BucketChain(K={self.n_buckets}, D={self.depth}, "
            f"N={self.level}, d={self.fill})"
        )


class BucketPolicy(RejuvenationPolicy):
    """Batch means driving a :class:`BucketChain` with per-level data.

    Parameters
    ----------
    targets:
        ``targets[N]`` -- the threshold a batch mean must exceed to add
        a ball while the chain sits at level ``N``.  Its length is ``K``.
    sizes:
        ``sizes[N]`` -- the batch size used at level ``N`` (one entry
        per target).  The batch is resized whenever the chain moves to
        a level with a different size, and returns to ``sizes[0]`` after
        a trigger or :meth:`reset`.
    depth:
        ``D`` of the chain.
    """

    def __init__(
        self, targets: Sequence[float], sizes: Sequence[int], depth: int
    ) -> None:
        self.targets = tuple(targets)
        self.sizes = tuple(int(size) for size in sizes)
        self.chain = BucketChain(n_buckets=len(self.targets), depth=depth)
        self.buffer = BatchBuffer(self.sizes[0])

    @property
    def level(self) -> int:
        """Current bucket index ``N``."""
        return self.chain.level

    @property
    def current_sample_size(self) -> int:
        """The batch size in force at the current level."""
        return self.buffer.size

    def current_target(self) -> float:
        """The active decision threshold ``targets[N]``."""
        return self.targets[self.chain.level]

    def observe(self, value: float) -> bool:
        """Feed one raw observation; decide on each completed batch mean."""
        # BatchBuffer.push, inlined: this runs once per observation and
        # the saved call is a large share of its cost.
        buffer = self.buffer
        buffer._sum += float(value)
        buffer._count += 1
        if buffer._count < buffer.size:
            return False
        batch_mean = buffer._sum / buffer._count
        buffer._sum = 0.0
        buffer._count = 0
        buffer.batches_completed += 1
        chain = self.chain
        level = chain.level
        target = self.targets[level]
        exceeded = batch_mean > target
        transition = chain.record(exceeded)
        listener = self._listener
        if listener is not None and listener.wants_batches:
            listener.on_batch(self, batch_mean, target, buffer.size, exceeded)
        if transition is _NONE:
            return False
        # The chain moved (a trigger resets it to level 0).  The batch
        # just completed, so a resize loses no observations.
        size = buffer.size
        new_level = chain.level
        new_size = self.sizes[new_level]
        if new_size != size:
            buffer.resize(new_size)
        if transition is _TRIGGER:
            if listener is not None:
                listener.on_trigger(self, batch_mean, target, level, size)
            return True
        if listener is not None:
            if new_size != size:
                listener.on_resize(self, size, new_size, new_level)
            listener.on_transition(
                self,
                "up" if transition is _UP else "down",
                new_level,
                chain.fill,
                self.targets[new_level],
            )
        return False

    def reset(self) -> None:
        """Forget buckets and any partial batch; restore ``sizes[0]``."""
        self.chain.reset()
        self.buffer.resize(self.sizes[0])
        if self._listener is not None:
            self._listener.on_reset(self)


def _check_shape(sample_size: int, n_buckets: int, depth: int) -> None:
    """The input checks SRAA and SARAA make before building their tables."""
    if sample_size < 1:
        raise ValueError("sample size must be >= 1")
    if n_buckets < 1:
        raise ValueError("need at least one bucket (K >= 1)")
    if depth < 1:
        raise ValueError("bucket depth must be >= 1 (D >= 1)")


class SRAA(BucketPolicy):
    """Static rejuvenation with averaging (Fig. 6).

    Bucket ``N`` uses the target ``mu_X + N * sigma_X`` -- one full
    standard deviation of the *underlying* metric per bucket,
    independent of the batch size -- so a trigger always certifies
    evidence for a right-shift of the metric's distribution by
    ``K - 1`` standard deviations.  Setting ``n = 1`` recovers the
    original static rejuvenation algorithm of Avritzer, Bondi & Weyuker
    (WOSP 2005), which this paper uses as its starting point.

    Parameters
    ----------
    slo:
        Healthy-behaviour mean and standard deviation (``mu_X, sigma_X``).
    sample_size:
        ``n`` -- observations averaged per decision.
    n_buckets:
        ``K`` -- buckets to climb before triggering.
    depth:
        ``D`` -- bucket depth.

    Examples
    --------
    The paper's best trade-off configuration (Section 5.4):

    >>> from repro.core.sla import PAPER_SLO
    >>> policy = SRAA(PAPER_SLO, sample_size=3, n_buckets=2, depth=5)
    >>> policy.observe(20.0)        # first of a batch of 3: no decision yet
    False
    """

    name = "sraa"

    def __init__(
        self,
        slo: ServiceLevelObjective,
        sample_size: int,
        n_buckets: int,
        depth: int,
    ) -> None:
        _check_shape(sample_size, n_buckets, depth)
        self.slo = slo
        self.sample_size = int(sample_size)
        levels = range(int(n_buckets))
        super().__init__(
            targets=[slo.shift_threshold(level) for level in levels],
            sizes=[self.sample_size for _ in levels],
            depth=depth,
        )

    def describe(self) -> str:
        return (
            f"SRAA(n={self.sample_size}, K={self.chain.n_buckets}, "
            f"D={self.chain.depth})"
        )


class StaticRejuvenation(SRAA):
    """The original static algorithm of [1]: SRAA with ``n = 1``.

    Kept as a distinct class so experiments can name the baseline
    explicitly.
    """

    name = "static"

    def __init__(
        self, slo: ServiceLevelObjective, n_buckets: int, depth: int
    ) -> None:
        super().__init__(slo, sample_size=1, n_buckets=n_buckets, depth=depth)

    def describe(self) -> str:
        return f"Static(K={self.chain.n_buckets}, D={self.chain.depth})"


def linear_acceleration(n_orig: int, level: int, n_buckets: int) -> int:
    """The paper's batch-size schedule: linear in ``N/K``, floored, >= 1."""
    if n_orig < 1:
        raise ValueError("original sample size must be >= 1")
    if not 0 <= level <= n_buckets:
        raise ValueError("bucket level out of range")
    return math.floor(1 + (n_orig - 1) * (1 - level / n_buckets))


def no_acceleration(n_orig: int, level: int, n_buckets: int) -> int:
    """Ablation schedule: keep ``n = n_orig`` at every level."""
    return n_orig


def geometric_acceleration(n_orig: int, level: int, n_buckets: int) -> int:
    """Ablation schedule: halve the batch size per level (floor at 1)."""
    return max(1, n_orig >> level)


class SARAA(BucketPolicy):
    """Sampling-acceleration rejuvenation with averaging (Fig. 7).

    SARAA changes two things relative to SRAA:

    1. **Paradigm.**  Targets use the standard error of the batch mean,
       ``mu_X + N * sigma_X / sqrt(n)``: the rule tries to *falsify the
       hypothesis that the distribution has not shifted at all*, rather
       than to verify a shift of a specific size.
    2. **Acceleration.**  Each level has its own batch size, by default
       the paper's linear schedule
       ``n = floor(1 + (n_orig - 1) * (1 - N / K))``, so that deeper
       degradation is confirmed from fewer samples -- the time to gather
       a batch is proportional to ``n``, so the time to trigger shrinks
       exactly when the system is getting worse.  The partial batch is
       discarded on every resize, as the paper's pseudo-code only ever
       indexes whole batches.  After a trigger the batch size returns to
       ``n_orig``.

    Parameters
    ----------
    slo:
        Healthy-behaviour mean and standard deviation.
    sample_size:
        ``n_orig`` -- the batch size used at bucket 0 (and after reset).
    n_buckets, depth:
        ``K`` and ``D`` as in SRAA.
    schedule:
        Batch-size schedule ``(n_orig, level, K) -> n``; defaults to the
        paper's :func:`linear_acceleration`.  Alternatives are provided
        for the ablation benchmarks.
    """

    name = "saraa"

    def __init__(
        self,
        slo: ServiceLevelObjective,
        sample_size: int,
        n_buckets: int,
        depth: int,
        schedule: Optional[Callable[[int, int, int], int]] = None,
    ) -> None:
        _check_shape(sample_size, n_buckets, depth)
        self.slo = slo
        self.original_sample_size = int(sample_size)
        self.schedule = schedule if schedule is not None else linear_acceleration
        n_buckets = int(n_buckets)
        sizes = [
            self.schedule(self.original_sample_size, level, n_buckets)
            for level in range(n_buckets)
        ]
        super().__init__(
            targets=[
                slo.sampling_threshold(level, size)
                for level, size in enumerate(sizes)
            ],
            sizes=sizes,
            depth=depth,
        )

    def describe(self) -> str:
        return (
            f"SARAA(n_orig={self.original_sample_size}, "
            f"K={self.chain.n_buckets}, D={self.chain.depth})"
        )


class CLTA(BucketPolicy):
    """Central-limit-theorem-based rejuvenation (Fig. 8).

    CLTA applies the CLT directly: the mean of ``n`` observations is
    treated as a draw from ``N(mu_X, sigma_X^2 / n)``, and rejuvenation
    triggers on the *first* batch mean beyond
    ``mu_X + z * sigma_X / sqrt(n)`` where ``z`` is a standard-normal
    quantile chosen from the acceptable false-alarm rate -- a single
    bucket that overflows on one exceedance (``K = 1, D = 0``).

    The paper cautions (Section 4.1) that the normal approximation
    inflates the real false-alarm rate -- for ``z = 1.96`` (nominal
    2.5 %) the exact probabilities are 3.69 % at ``n = 15`` and 3.37 %
    at ``n = 30`` -- and
    :func:`repro.ctmc.sample_mean.clt_false_alarm_probability` computes
    the exact value for any configuration.

    Parameters
    ----------
    slo:
        Healthy-behaviour mean and standard deviation.
    sample_size:
        ``n`` -- should be large enough for the normal approximation
        (the paper uses 30; Fig. 5 suggests 15 is already reasonable).
    z:
        The multiplier ``N`` of Fig. 8 -- a standard-normal quantile,
        e.g. ``1.96`` for a nominal 2.5 % false-alarm rate.

    Examples
    --------
    >>> from repro.core.sla import PAPER_SLO
    >>> policy = CLTA(PAPER_SLO, sample_size=30, z=1.96)
    >>> round(policy.threshold, 3)
    6.789
    """

    name = "clta"

    def __init__(
        self,
        slo: ServiceLevelObjective,
        sample_size: int = 30,
        z: float = 1.96,
    ) -> None:
        if sample_size < 1:
            raise ValueError("sample size must be >= 1")
        self.slo = slo
        self.sample_size = int(sample_size)
        self.z = float(z)
        self.threshold = slo.sampling_threshold(self.z, self.sample_size)
        super().__init__(
            targets=[self.threshold], sizes=[self.sample_size], depth=0
        )

    @classmethod
    def from_false_alarm_rate(
        cls,
        slo: ServiceLevelObjective,
        sample_size: int = 30,
        false_alarm_rate: float = 0.025,
    ) -> "CLTA":
        """Choose ``z`` as the ``1 - rate`` standard-normal quantile."""
        if not 0.0 < false_alarm_rate < 1.0:
            raise ValueError("false-alarm rate must lie in (0, 1)")
        return cls(slo, sample_size, z=normal_quantile(1.0 - false_alarm_rate))

    def describe(self) -> str:
        return f"CLTA(n={self.sample_size}, z={self.z:g})"
