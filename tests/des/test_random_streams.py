"""Reproducibility and independence of the named RNG streams."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.random_streams import (
    BLOCK_CAP,
    BlockDrawnGenerator,
    RandomStreams,
)


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = RandomStreams(seed=42)["arrivals"].random(10)
        b = RandomStreams(seed=42)["arrivals"].random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1)["arrivals"].random(10)
        b = RandomStreams(seed=2)["arrivals"].random(10)
        assert not np.array_equal(a, b)

    def test_streams_by_name_are_distinct(self):
        streams = RandomStreams(seed=7)
        a = streams["arrivals"].random(10)
        s = streams["service"].random(10)
        assert not np.array_equal(a, s)

    def test_stream_name_order_does_not_matter(self):
        forward = RandomStreams(seed=3)
        _ = forward["arrivals"].random(5)
        service_after = forward["service"].random(5)
        backward = RandomStreams(seed=3)
        service_first = backward["service"].random(5)
        assert np.array_equal(service_after, service_first)

    def test_repeated_lookup_returns_same_generator(self):
        streams = RandomStreams(seed=0)
        assert streams["x"] is streams["x"]


class TestSpawn:
    def test_replications_are_distinct(self):
        base = RandomStreams(seed=11)
        rep0 = base.spawn(0)["arrivals"].random(10)
        rep1 = base.spawn(1)["arrivals"].random(10)
        assert not np.array_equal(rep0, rep1)

    def test_spawn_is_reproducible(self):
        a = RandomStreams(seed=11).spawn(3)["arrivals"].random(10)
        b = RandomStreams(seed=11).spawn(3)["arrivals"].random(10)
        assert np.array_equal(a, b)

    def test_negative_replication_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=0).spawn(-1)


class TestIntrospection:
    def test_names_lists_created_streams(self):
        streams = RandomStreams(seed=0)
        _ = streams["alpha"], streams["beta"]
        assert set(streams.names()) == {"alpha", "beta"}

    def test_streams_are_statistically_plausible(self):
        # Coarse sanity: exponential draws with the requested mean.
        rng = RandomStreams(seed=5)["service"]
        sample = rng.exponential(5.0, size=20_000)
        assert sample.mean() == pytest.approx(5.0, rel=0.05)


# One draw on a generator: (method name, positional args, keyword args).
_SCALES = (0.5, 1.0, 2.5, 5.0)
_draws = st.one_of(
    st.tuples(st.just("exponential"), st.sampled_from(_SCALES).map(
        lambda scale: (scale,)), st.just({})),
    st.tuples(st.just("random"), st.just(()), st.just({})),
    st.tuples(st.just("pareto"), st.just((1.5,)), st.just({})),
    st.tuples(st.just("gamma"), st.just((2.0, 0.5)), st.just({})),
    st.tuples(st.just("exponential"), st.sampled_from(_SCALES).map(
        lambda scale: (scale,)), st.integers(1, 4).map(
        lambda k: {"size": k})),
    st.tuples(st.just("random"), st.just(()), st.integers(1, 4).map(
        lambda k: {"size": k})),
)
# A run of scalar exponentials, long enough to cross block boundaries.
_runs = st.tuples(st.sampled_from(_SCALES), st.integers(1, 2 * BLOCK_CAP + 3))


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestBlockDrawnGenerator:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.one_of(_draws, _runs), max_size=25),
    )
    def test_property_matches_a_plain_generator(self, seed, script):
        proxy = BlockDrawnGenerator(np.random.default_rng(seed))
        plain = np.random.default_rng(seed)
        for step in script:
            if len(step) == 2:  # a run of scalar exponentials
                scale, count = step
                for _ in range(count):
                    assert proxy.exponential(scale) == plain.exponential(scale)
                continue
            name, args, kwargs = step
            got = getattr(proxy, name)(*args, **kwargs)
            assert _same(got, getattr(plain, name)(*args, **kwargs))
        assert proxy.bit_generator.state == plain.bit_generator.state

    def test_block_is_capped(self):
        proxy = BlockDrawnGenerator(np.random.default_rng(1))
        for _ in range(4 * BLOCK_CAP):
            proxy.exponential(1.0)
        assert len(proxy._block) == BLOCK_CAP

    def test_cached_method_still_syncs_at_call_time(self):
        proxy = BlockDrawnGenerator(np.random.default_rng(3))
        plain = np.random.default_rng(3)
        draw_uniform = proxy.random
        for _ in range(10):
            assert proxy.exponential(2.0) == plain.exponential(2.0)
        assert draw_uniform() == plain.random()

    def test_invalid_scale_raises_like_numpy(self):
        proxy = BlockDrawnGenerator(np.random.default_rng(0))
        with pytest.raises(ValueError):
            proxy.exponential(-1.0)

    def test_pickle_round_trip_continues_the_stream(self):
        proxy = BlockDrawnGenerator(np.random.default_rng(5))
        plain = np.random.default_rng(5)
        for _ in range(7):
            proxy.exponential(1.0), plain.exponential(1.0)
        clone = pickle.loads(pickle.dumps(proxy))
        assert [clone.exponential(1.0) for _ in range(20)] == [
            plain.exponential(1.0) for _ in range(20)
        ]

    def test_block_drawn_replaces_the_named_stream(self):
        streams = RandomStreams(seed=9)
        proxy = streams.block_drawn("arrivals")
        assert isinstance(proxy, BlockDrawnGenerator)
        assert streams["arrivals"] is proxy
        assert streams.block_drawn("arrivals") is proxy
        plain = RandomStreams(seed=9)["arrivals"]
        assert proxy.exponential(3.0) == plain.exponential(3.0)
