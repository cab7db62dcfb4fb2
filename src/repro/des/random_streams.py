"""Named, independent random-number substreams.

Simulation studies that vary one factor (say, the rejuvenation policy) want
every other source of randomness held fixed across runs.  The standard
technique is *common random numbers*: give each stochastic process its own
stream, derived deterministically from (seed, stream name), so that changing
how one process is consumed does not perturb the draws seen by another.

``RandomStreams`` derives each named stream from a :class:`numpy.random.SeedSequence`
spawned with a stable hash of the stream name, which guarantees statistical
independence between streams (the SeedSequence contract) and reproducibility
across processes and platforms.

:class:`BlockDrawnGenerator` makes the hottest draws cheap without
changing a single value: the model's arrival and service streams draw
one scalar exponential per event, and a block of standard exponentials
drawn at once costs a small fraction of the same number of scalar calls.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

#: Largest block of exponentials drawn ahead; bigger blocks buy almost no
#: speed and cost resident memory per stream.
BLOCK_CAP = 256


def _stable_key(name: str) -> int:
    """A platform-stable 32-bit key for a stream name.

    Python's builtin ``hash`` is salted per process, so it cannot be used to
    derive reproducible seeds; CRC-32 is stable everywhere.
    """
    return zlib.crc32(name.encode("utf-8"))


class BlockDrawnGenerator:
    """A ``numpy.random.Generator`` proxy serving scalar exponentials
    from pre-drawn blocks, bit-identical to the generator it wraps.

    ``exponential(scale)`` (a positive float ``scale``, no ``size``)
    returns ``scale * block[i]`` from a block of
    ``standard_exponential(k)`` values: the very product ``numpy``
    computes for a scalar draw, and a block of ``k`` draws consumes the
    bit generator exactly as ``k`` scalar draws do.  Any other use of the
    generator -- another distribution, a ``size=`` draw, reading
    ``bit_generator`` -- first restores the state saved before the block
    and re-draws only the values already served, so the generator is left
    exactly where scalar draws would have left it.  Blocks start at one
    value and double, up to :data:`BLOCK_CAP`, while exponential draws
    follow each other uninterrupted; a stream that mixes distributions
    therefore wastes at most a few values per switch.

    Every draw on a wrapped stream must go through the proxy: a method or
    the ``bit_generator`` taken off the wrapped generator itself would
    see it run ahead by the unserved part of the block.

    Examples
    --------
    >>> proxy = BlockDrawnGenerator(np.random.default_rng(7))
    >>> plain = np.random.default_rng(7)
    >>> [proxy.exponential(2.0) for _ in range(5)] == [
    ...     plain.exponential(2.0) for _ in range(5)]
    True
    >>> proxy.random() == plain.random()
    True
    """

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        self._block: List[float] = []
        self._served = 0
        self._state: Optional[Dict[str, Any]] = None
        self._next_size = 1

    def exponential(self, scale: Any = 1.0, size: Any = None) -> Any:
        """``Generator.exponential``, served from a block when scalar."""
        if size is None and type(scale) is float and scale > 0.0:
            served = self._served
            if served < len(self._block):
                self._served = served + 1
                return scale * self._block[served]
            return scale * self._draw_block()
        self._sync()
        return self._generator.exponential(scale, size)

    def _draw_block(self) -> float:
        """Draw the next block and serve its first value."""
        generator = self._generator
        size = self._next_size
        self._next_size = min(2 * size, BLOCK_CAP)
        if size == 1:
            # A one-value block is a plain scalar draw: no state to save,
            # and the spent block stays spent.
            return generator.standard_exponential()
        self._state = generator.bit_generator.state
        self._block = generator.standard_exponential(size).tolist()
        self._served = 1
        return self._block[0]

    def _sync(self) -> None:
        """Rewind the generator to just after the values served so far."""
        served = self._served
        if served < len(self._block):
            generator = self._generator
            generator.bit_generator.state = self._state
            generator.standard_exponential(served)
            self._block = []
            self._served = 0
        self._next_size = 1

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._generator, name)
        if not callable(attr):
            self._sync()
            return attr
        sync = self._sync

        def synced(*args: Any, **kwargs: Any) -> Any:
            sync()
            return attr(*args, **kwargs)

        # Cache the wrapper: later lookups skip __getattr__ entirely.
        self.__dict__[name] = synced
        return synced

    def __reduce__(self) -> Any:
        self._sync()
        return (BlockDrawnGenerator, (self._generator,))


#: What a named stream is: a generator, or one behind the block proxy.
Stream = Union[np.random.Generator, BlockDrawnGenerator]


class RandomStreams:
    """A factory of independent ``numpy.random.Generator`` substreams.

    Parameters
    ----------
    seed:
        Master seed.  Two ``RandomStreams`` built from the same seed hand out
        identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams["arrivals"]
    >>> service = streams["service"]
    >>> a = arrivals.exponential(1.0)          # independent of `service`
    >>> streams2 = RandomStreams(seed=42)
    >>> float(streams2["arrivals"].exponential(1.0)) == float(a)
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self.seed = seed
        self._generators: Dict[str, Stream] = {}

    def __getitem__(self, name: str) -> "Stream":
        """Return the generator for ``name``, creating it on first use."""
        generator = self._generators.get(name)
        if generator is None:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(self._root.spawn_key) + (_stable_key(name),),
            )
            generator = np.random.default_rng(child)
            self._generators[name] = generator
        return generator

    def block_drawn(self, name: str) -> BlockDrawnGenerator:
        """The stream ``name`` behind a :class:`BlockDrawnGenerator`.

        The proxy replaces the stream, so later ``streams[name]`` lookups
        return it too and every draw on the stream goes through it.
        """
        stream = self[name]
        if not isinstance(stream, BlockDrawnGenerator):
            stream = BlockDrawnGenerator(stream)
            self._generators[name] = stream
        return stream

    def names(self) -> Iterable[str]:
        """Names of streams created so far."""
        return tuple(self._generators)

    def spawn(self, replication: int) -> "RandomStreams":
        """Derive a stream family for an independent replication.

        Replication ``i`` of an experiment should not share draws with
        replication ``j``; spawning folds the replication index into the
        entropy while keeping the per-name structure.
        """
        if replication < 0:
            raise ValueError("replication index must be non-negative")
        base = self._root.entropy
        if base is None:  # pragma: no cover - SeedSequence always sets entropy
            base = 0
        child = RandomStreams.__new__(RandomStreams)
        child._root = np.random.SeedSequence(
            entropy=base, spawn_key=(0x5EED, replication)
        )
        child.seed = None
        child._generators = {}
        return child
